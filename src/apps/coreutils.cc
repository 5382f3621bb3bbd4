// Console utilities ported from xv6 (§3): ls, cat, echo, wc, grep, mkdir,
// rm, ln, kill, plus ps and free (which read /proc/tasks and /proc/memstat)
// and uptime (a syscall).
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/md5.h"
#include "src/fs/fsck.h"
#include "src/kernel/trace.h"
#include "src/ulib/bmp.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"

namespace vos {
namespace {

int LsMain(AppEnv& env) {
  std::string path = env.argv.size() > 1 ? env.argv[1] : ".";
  std::vector<DirEntryInfo> entries;
  std::int64_t r = ureaddir(env, path, &entries);
  if (r < 0) {
    // Maybe a file: stat it through open.
    std::int64_t fd = uopen(env, path, kORdonly);
    if (fd < 0) {
      uprintf(env, "ls: cannot access %s\n", path.c_str());
      return 1;
    }
    Stat st;
    ufstat(env, static_cast<int>(fd), &st);
    uclose(env, static_cast<int>(fd));
    uprintf(env, "%-20s %8u\n", path.c_str(), st.size);
    return 0;
  }
  for (const DirEntryInfo& e : entries) {
    uprintf(env, "%-20s %8u%s\n", e.name.c_str(), e.size, e.is_dir ? " /" : "");
    UBurn(env, 400);
  }
  return 0;
}

int CatMain(AppEnv& env) {
  auto pump = [&env](int fd) {
    char buf[512];
    for (;;) {
      std::int64_t n = uread(env, fd, buf, sizeof(buf));
      if (n <= 0) {
        break;
      }
      uwrite(env, 1, buf, static_cast<std::uint32_t>(n));
      UBurn(env, double(n) * 0.4);
    }
  };
  if (env.argv.size() < 2) {
    pump(0);
    return 0;
  }
  for (std::size_t i = 1; i < env.argv.size(); ++i) {
    std::int64_t fd = uopen(env, env.argv[i], kORdonly);
    if (fd < 0) {
      uprintf(env, "cat: cannot open %s\n", env.argv[i].c_str());
      return 1;
    }
    pump(static_cast<int>(fd));
    uclose(env, static_cast<int>(fd));
  }
  return 0;
}

int EchoMain(AppEnv& env) {
  std::string out;
  for (std::size_t i = 1; i < env.argv.size(); ++i) {
    if (i > 1) {
      out += " ";
    }
    out += env.argv[i];
  }
  out += "\n";
  uputs(env, out);
  return 0;
}

int WcMain(AppEnv& env) {
  int fd = 0;
  if (env.argv.size() > 1) {
    std::int64_t r = uopen(env, env.argv[1], kORdonly);
    if (r < 0) {
      uprintf(env, "wc: cannot open %s\n", env.argv[1].c_str());
      return 1;
    }
    fd = static_cast<int>(r);
  }
  std::uint64_t lines = 0, words = 0, bytes = 0;
  bool in_word = false;
  char buf[512];
  for (;;) {
    std::int64_t n = uread(env, fd, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    bytes += static_cast<std::uint64_t>(n);
    for (std::int64_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') {
        ++lines;
      }
      bool space = buf[i] == ' ' || buf[i] == '\n' || buf[i] == '\t';
      if (!space && !in_word) {
        ++words;
      }
      in_word = !space;
    }
    UBurn(env, double(n) * 1.2);
  }
  uprintf(env, "%llu %llu %llu\n", static_cast<unsigned long long>(lines),
          static_cast<unsigned long long>(words), static_cast<unsigned long long>(bytes));
  if (fd != 0) {
    uclose(env, fd);
  }
  return 0;
}

int GrepMain(AppEnv& env) {
  if (env.argv.size() < 2) {
    uprintf(env, "usage: grep pattern [file]\n");
    return 1;
  }
  const std::string& pattern = env.argv[1];
  int fd = 0;
  if (env.argv.size() > 2) {
    std::int64_t r = uopen(env, env.argv[2], kORdonly);
    if (r < 0) {
      uprintf(env, "grep: cannot open %s\n", env.argv[2].c_str());
      return 1;
    }
    fd = static_cast<int>(r);
  }
  std::string pending;
  char buf[512];
  int matches = 0;
  auto flush_line = [&](const std::string& line) {
    UBurn(env, double(line.size() + pattern.size()) * 2.0);
    if (line.find(pattern) != std::string::npos) {
      uputs(env, line + "\n");
      ++matches;
    }
  };
  for (;;) {
    std::int64_t n = uread(env, fd, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    for (std::int64_t i = 0; i < n; ++i) {
      if (buf[i] == '\n') {
        flush_line(pending);
        pending.clear();
      } else {
        pending.push_back(buf[i]);
      }
    }
  }
  if (!pending.empty()) {
    flush_line(pending);
  }
  if (fd != 0) {
    uclose(env, fd);
  }
  return matches > 0 ? 0 : 1;
}

int MkdirMain(AppEnv& env) {
  if (env.argv.size() < 2) {
    uprintf(env, "usage: mkdir dir...\n");
    return 1;
  }
  int rc = 0;
  for (std::size_t i = 1; i < env.argv.size(); ++i) {
    if (umkdir(env, env.argv[i]) < 0) {
      uprintf(env, "mkdir: %s failed\n", env.argv[i].c_str());
      rc = 1;
    }
  }
  return rc;
}

int RmMain(AppEnv& env) {
  if (env.argv.size() < 2) {
    uprintf(env, "usage: rm file...\n");
    return 1;
  }
  int rc = 0;
  for (std::size_t i = 1; i < env.argv.size(); ++i) {
    if (uunlink(env, env.argv[i]) < 0) {
      uprintf(env, "rm: %s failed\n", env.argv[i].c_str());
      rc = 1;
    }
  }
  return rc;
}

int LnMain(AppEnv& env) {
  if (env.argv.size() != 3) {
    uprintf(env, "usage: ln old new\n");
    return 1;
  }
  if (ulink(env, env.argv[1], env.argv[2]) < 0) {
    uprintf(env, "ln: failed\n");
    return 1;
  }
  return 0;
}

int KillMain(AppEnv& env) {
  if (env.argv.size() < 2) {
    uprintf(env, "usage: kill pid...\n");
    return 1;
  }
  for (std::size_t i = 1; i < env.argv.size(); ++i) {
    ukill(env, std::atoi(env.argv[i].c_str()));
  }
  return 0;
}

int SyncMain(AppEnv& env) {
  if (usync(env) < 0) {
    uprintf(env, "sync: failed\n");
    return 1;
  }
  return 0;
}

int PsMain(AppEnv& env) {
  std::vector<std::uint8_t> raw;
  if (uread_file(env, "/proc/tasks", &raw) < 0) {
    uprintf(env, "ps: no procfs\n");
    return 1;
  }
  uputs(env, std::string(raw.begin(), raw.end()));
  return 0;
}

int FreeMain(AppEnv& env) {
  std::vector<std::uint8_t> raw;
  if (uread_file(env, "/proc/memstat", &raw) < 0) {
    uprintf(env, "free: no procfs\n");
    return 1;
  }
  const std::string mem(raw.begin(), raw.end());
  std::uint64_t total = 0, free = 0;
  if (!ParseMetricValue(mem, "total_pages", &total) ||
      !ParseMetricValue(mem, "free_pages", &free)) {
    uprintf(env, "free: no page counts in /proc/memstat\n");
    return 1;
  }
  uprintf(env, "MemTotal: %llu kB\nMemFree: %llu kB\n",
          static_cast<unsigned long long>(total * kPageSize / 1024),
          static_cast<unsigned long long>(free * kPageSize / 1024));
  return 0;
}

int UptimeMain(AppEnv& env) {
  uprintf(env, "up %lld ms\n", static_cast<long long>(uuptime_ms(env)));
  return 0;
}

// fsck: checks the mounted root filesystem's consistency (read-only by
// default; "-r" repairs in place). Exit codes distinguish the outcomes:
// 0 = clean, 1 = errors found and repaired, 2 = errors remain.
int FsckMain(AppEnv& env) {
  bool repair = env.argv.size() > 1 && env.argv[1] == "-r";
  Cycles burn = 0;
  FsckReport report = repair ? FsckRepairXv6(env.kernel->rootfs(), &burn)
                             : FsckXv6(env.kernel->rootfs(), &burn);
  UBurn(env, double(burn));  // the scan's I/O time charges the caller
  uprintf(env, "fsck /: %s\n", report.Summary().c_str());
  if (report.unrecoverable > 0) {
    return 2;
  }
  return report.repaired > 0 ? 1 : 0;
}

// screenshot: captures what the framebuffer scans out into a BMP on disk —
// the SD card by default, so the image survives poweroff and can be pulled
// from the FAT32 partition on a host machine.
int ScreenshotMain(AppEnv& env) {
  std::string path = env.argv.size() > 1 ? env.argv[1] : "/d/SHOT.BMP";
  std::uint32_t* fb = nullptr;
  std::uint32_t w = 0, h = 0;
  if (ummap_fb(env, &fb, &w, &h) < 0) {
    uprintf(env, "screenshot: no framebuffer\n");
    return 1;
  }
  Image img;
  img.width = w;
  img.height = h;
  img.pixels.assign(fb, fb + std::size_t(w) * h);
  UBurn(env, double(w) * h * 0.5);  // readback copy
  std::vector<std::uint8_t> bmp = BmpEncode(img);
  UBurn(env, double(bmp.size()) * 0.8);  // row padding + channel shuffle
  std::int64_t fd = uopen(env, path, kOWronly | kOCreate | kOTrunc);
  if (fd < 0) {
    uprintf(env, "screenshot: cannot create %s\n", path.c_str());
    return 1;
  }
  std::size_t off = 0;
  while (off < bmp.size()) {
    std::int64_t n = uwrite(env, static_cast<int>(fd), bmp.data() + off,
                            static_cast<std::uint32_t>(bmp.size() - off));
    if (n <= 0) {
      uprintf(env, "screenshot: write failed\n");
      uclose(env, static_cast<int>(fd));
      return 1;
    }
    off += static_cast<std::size_t>(n);
  }
  uclose(env, static_cast<int>(fd));
  uprintf(env, "screenshot: %ux%u -> %s (%u bytes)\n", w, h, path.c_str(),
          static_cast<unsigned>(bmp.size()));
  return 0;
}

// trace: export the kernel event ring. Default output is Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing); -r dumps the raw text form.
// An optional file argument redirects the output to disk.
int TraceMain(AppEnv& env) {
  bool raw = false;
  std::string out_path;
  for (std::size_t i = 1; i < env.argv.size(); ++i) {
    if (env.argv[i] == "-r") {
      raw = true;
    } else {
      out_path = env.argv[i];
    }
  }
  // Device nodes fstat as size 0, so uread_file() won't do: read until EOF.
  std::int64_t dev = uopen(env, "/dev/trace", kORdonly);
  if (dev < 0) {
    uprintf(env, "trace: cannot open /dev/trace\n");
    return 1;
  }
  std::string text;
  char chunk[1024];
  for (;;) {
    std::int64_t n = uread(env, static_cast<int>(dev), chunk, sizeof(chunk));
    if (n <= 0) {
      break;
    }
    text.append(chunk, static_cast<std::size_t>(n));
  }
  uclose(env, static_cast<int>(dev));
  std::string out;
  if (raw) {
    out = std::move(text);
  } else {
    std::vector<TraceRecord> recs;
    ParseTraceText(text, &recs);
    UBurn(env, double(recs.size()) * 40.0);  // JSON encode
    out = FormatChromeTrace(recs);
    out += "\n";
  }
  if (out_path.empty()) {
    uputs(env, out);
    return 0;
  }
  std::int64_t fd = uopen(env, out_path, kOWronly | kOCreate | kOTrunc);
  if (fd < 0) {
    uprintf(env, "trace: cannot create %s\n", out_path.c_str());
    return 1;
  }
  std::size_t off = 0;
  while (off < out.size()) {
    std::int64_t n = uwrite(env, static_cast<int>(fd), out.data() + off,
                            static_cast<std::uint32_t>(out.size() - off));
    if (n <= 0) {
      uprintf(env, "trace: write failed\n");
      uclose(env, static_cast<int>(fd));
      return 1;
    }
    off += static_cast<std::size_t>(n);
  }
  uclose(env, static_cast<int>(fd));
  uprintf(env, "trace: %u bytes -> %s\n", static_cast<unsigned>(out.size()), out_path.c_str());
  return 0;
}

// prof: drive the kernel sampling profiler via /proc/profile.
//   prof start|stop|reset          control sampling
//   prof dump [file]               folded-stack dump to stdout or a file
//   prof run <prog> [args...]      profile one program: start, exec, wait,
//                                  stop, dump (the flamegraph workflow)
// The dump is flamegraph-collapsed-adjacent: pipe through prof2flame.py.
int ProfMain(AppEnv& env) {
  auto command = [&env](const char* cmd) -> bool {
    std::int64_t fd = uopen(env, "/proc/profile", kOWronly);
    if (fd < 0) {
      return false;
    }
    std::int64_t len = static_cast<std::int64_t>(std::strlen(cmd));
    std::int64_t n = uwrite(env, static_cast<int>(fd), cmd, static_cast<std::uint32_t>(len));
    uclose(env, static_cast<int>(fd));
    return n == len;
  };
  auto dump = [&env](const std::string& out_path) -> int {
    std::vector<std::uint8_t> raw;
    if (uread_file(env, "/proc/profile", &raw) < 0) {
      uprintf(env, "prof: cannot read /proc/profile\n");
      return 1;
    }
    std::string out(raw.begin(), raw.end());
    if (out_path.empty()) {
      uputs(env, out);
      return 0;
    }
    std::int64_t fd = uopen(env, out_path, kOWronly | kOCreate | kOTrunc);
    if (fd < 0) {
      uprintf(env, "prof: cannot create %s\n", out_path.c_str());
      return 1;
    }
    std::size_t off = 0;
    while (off < out.size()) {
      std::int64_t n = uwrite(env, static_cast<int>(fd), out.data() + off,
                              static_cast<std::uint32_t>(out.size() - off));
      if (n <= 0) {
        uprintf(env, "prof: write failed\n");
        uclose(env, static_cast<int>(fd));
        return 1;
      }
      off += static_cast<std::size_t>(n);
    }
    uclose(env, static_cast<int>(fd));
    uprintf(env, "prof: %u bytes -> %s\n", static_cast<unsigned>(out.size()), out_path.c_str());
    return 0;
  };
  std::string verb = env.argv.size() > 1 ? env.argv[1] : "dump";
  if (verb == "start" || verb == "stop" || verb == "reset") {
    if (!command(verb.c_str())) {
      uprintf(env, "prof: %s failed\n", verb.c_str());
      return 1;
    }
    return 0;
  }
  if (verb == "dump") {
    return dump(env.argv.size() > 2 ? env.argv[2] : "");
  }
  if (verb == "run") {
    if (env.argv.size() < 3) {
      uprintf(env, "usage: prof run <prog> [args...]\n");
      return 1;
    }
    std::vector<std::string> child_argv(env.argv.begin() + 2, env.argv.end());
    if (!command("reset") || !command("start")) {
      uprintf(env, "prof: cannot start profiler\n");
      return 1;
    }
    std::int64_t pid = ufork(env, [&env, child_argv]() -> int {
      return static_cast<int>(uexec(env, child_argv[0], child_argv));
    });
    if (pid < 0) {
      command("stop");
      uprintf(env, "prof: fork failed\n");
      return 1;
    }
    int status = 0;
    uwait(env, &status);
    command("stop");
    return dump("");
  }
  uprintf(env, "usage: prof [start|stop|reset|dump [file]|run prog args...]\n");
  return 1;
}

int Md5sumMain(AppEnv& env) {
  if (env.argv.size() < 2) {
    uprintf(env, "usage: md5sum file...\n");
    return 1;
  }
  for (std::size_t i = 1; i < env.argv.size(); ++i) {
    std::vector<std::uint8_t> data;
    if (uread_file(env, env.argv[i], &data) < 0) {
      uprintf(env, "md5sum: cannot open %s\n", env.argv[i].c_str());
      return 1;
    }
    Md5Digest d = Md5::Hash(data.data(), data.size());
    // MD5 costs ~6.5 cycles/byte on the A53; the C library's quality shows
    // in the compute microbenchmarks (§6.2).
    UBurn(env, double(data.size()) * 6.5 + 4000);
    uprintf(env, "%s  %s\n", Md5::ToHex(d).c_str(), env.argv[i].c_str());
  }
  return 0;
}

AppRegistrar ls_app("ls", LsMain, 1900, 256 << 10);
AppRegistrar cat_app("cat", CatMain, 800, 256 << 10);
AppRegistrar echo_app("echo", EchoMain, 500, 64 << 10);
AppRegistrar wc_app("wc", WcMain, 1100, 256 << 10);
AppRegistrar grep_app("grep", GrepMain, 1500, 256 << 10);
AppRegistrar mkdir_app("mkdir", MkdirMain, 500, 64 << 10);
AppRegistrar rm_app("rm", RmMain, 500, 64 << 10);
AppRegistrar ln_app("ln", LnMain, 500, 64 << 10);
AppRegistrar kill_app("kill", KillMain, 500, 64 << 10);
AppRegistrar sync_app("sync", SyncMain, 500, 64 << 10);
AppRegistrar ps_app("ps", PsMain, 900, 256 << 10);
AppRegistrar free_app("free", FreeMain, 700, 256 << 10);
AppRegistrar uptime_app("uptime", UptimeMain, 500, 64 << 10);
AppRegistrar md5sum_app("md5sum", Md5sumMain, 1300, 1 << 20);
AppRegistrar fsck_app("fsck", FsckMain, 2100, 4 << 20);
AppRegistrar screenshot_app("screenshot", ScreenshotMain, 1600, 8 << 20);
AppRegistrar trace_app("trace", TraceMain, 1200, 1 << 20);
AppRegistrar prof_app("prof", ProfMain, 1400, 1 << 20);

}  // namespace
}  // namespace vos
