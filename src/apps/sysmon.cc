// sysmon (Table 1): a floating, semi-transparent window visualizing realtime
// CPU and memory usage — the app that shows off the WM's alpha compositing
// (§4.5, Figure 1(m)). Like procps on Linux, it does its own presentation of
// the kernel's numbers: per-core idle% and runqueue depth from
// /proc/schedstat, page counts from /proc/memstat, the p99 syscall latency
// from /proc/metrics, uptime from the uptime syscall, and a TOP-style task
// table sorted by CPU share from /proc/tasks.
#include <algorithm>
#include <string>
#include <vector>

#include "src/ulib/minisdl.h"
#include "src/ulib/pixel.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"

namespace vos {
namespace {

std::string ReadText(AppEnv& env, const char* path) {
  std::vector<std::uint8_t> raw;
  uread_file(env, path, &raw);
  return std::string(raw.begin(), raw.end());
}

struct CoreStat {
  std::uint64_t idle_pct = 0;
  std::uint64_t runq = 0;
};

int SysmonMain(AppEnv& env) {
  int iterations = env.argv.size() > 1 ? std::atoi(env.argv[1].c_str()) : 20;
  MiniSdl sdl(env);
  constexpr std::uint32_t kW = 180, kH = 196;
  if (!sdl.InitVideo(kW, kH, MiniSdl::VideoMode::kSurface, "sysmon", /*alpha=*/170,
                     /*x=*/440, /*y=*/16)) {
    uprintf(env, "sysmon: no window manager\n");
    return 1;
  }
  PixelBuffer bb = sdl.backbuffer();
  for (int it = 0; it < iterations; ++it) {
    const std::string sched_str = ReadText(env, "/proc/schedstat");
    const std::string mem_str = ReadText(env, "/proc/memstat");
    const std::string metrics_str = ReadText(env, "/proc/metrics");
    std::vector<TaskRow> ptasks;
    ParseTaskRows(ReadText(env, "/proc/tasks"), &ptasks);
    // One entry per core that /proc/schedstat lists; load = total runnable
    // backlog.
    std::vector<CoreStat> cores;
    std::uint64_t load = 0;
    for (;;) {
      const std::string pfx = "core" + std::to_string(cores.size()) + ".";
      CoreStat c;
      if (!ParseMetricValue(sched_str, pfx + "idle_pct", &c.idle_pct) ||
          !ParseMetricValue(sched_str, pfx + "runq_depth", &c.runq)) {
        break;
      }
      load += c.runq;
      cores.push_back(c);
    }
    std::uint64_t total_pages = 1, free_pages = 0;
    ParseMetricValue(mem_str, "total_pages", &total_pages);
    ParseMetricValue(mem_str, "free_pages", &free_pages);
    std::uint64_t p99_ns = 0;
    ParseMetricValue(metrics_str, "syscall.latency.p99", &p99_ns);
    const std::int64_t uptime_ms = uuptime_ms(env);
    UBurn(env, 25000);  // parsing + chart math

    FillRect(env, bb, 0, 0, kW, kH, Rgb(18, 22, 30));
    DrawText(env, bb, 6, 4, "SYSMON", Rgb(130, 220, 255), 1);
    char hdr[40];
    std::snprintf(hdr, sizeof(hdr), "UP %llus LOAD %llu",
                  static_cast<unsigned long long>(uptime_ms / 1000),
                  static_cast<unsigned long long>(load));
    DrawText(env, bb, 64, 4, hdr, Rgb(170, 180, 200), 1);
    // Per-core utilization bars.
    for (std::size_t c = 0; c < cores.size() && c < 4; ++c) {
      int busy_pct = 100 - static_cast<int>(std::min<std::uint64_t>(cores[c].idle_pct, 100));
      int bar_w = busy_pct * 120 / 100;
      char label[16];
      std::snprintf(label, sizeof(label), "C%zu", c);
      DrawText(env, bb, 6, 18 + static_cast<int>(c) * 14, label, Rgb(200, 200, 200), 1);
      FillRect(env, bb, 28, 18 + static_cast<int>(c) * 14, 120, 8, Rgb(40, 46, 60));
      FillRect(env, bb, 28, 18 + static_cast<int>(c) * 14, bar_w, 8, Rgb(90, 230, 120));
      // idle% since boot plus the runqueue depth for this core.
      char sw[24];
      std::snprintf(sw, sizeof(sw), "i%llu q%llu",
                    static_cast<unsigned long long>(cores[c].idle_pct),
                    static_cast<unsigned long long>(cores[c].runq));
      DrawText(env, bb, 152, 18 + static_cast<int>(c) * 14, sw, Rgb(140, 150, 170), 1);
    }
    // Memory bar.
    double used = total_pages > 0 ? 1.0 - double(free_pages) / double(total_pages) : 0;
    DrawText(env, bb, 6, 78, "MEM", Rgb(200, 200, 200), 1);
    FillRect(env, bb, 34, 78, 120, 10, Rgb(40, 46, 60));
    FillRect(env, bb, 34, 78, static_cast<int>(used * 120), 10, Rgb(250, 170, 90));
    char pct[24];
    std::snprintf(pct, sizeof(pct), "%d%%", static_cast<int>(used * 100));
    DrawText(env, bb, 6, 94, pct, Rgb(250, 170, 90), 1);
    // p99 syscall latency, from the kernel metrics registry.
    char lat[32];
    std::snprintf(lat, sizeof(lat), "SYS P99 %lluus",
                  static_cast<unsigned long long>(p99_ns / 1000));
    DrawText(env, bb, 6, 108, lat, Rgb(130, 220, 255), 1);
    // TOP-style task table: biggest CPU consumers first, share of total
    // accounted CPU time. utime vs stime split rides in the second column.
    std::stable_sort(ptasks.begin(), ptasks.end(),
                     [](const TaskRow& a, const TaskRow& b) { return a.cpu_ms > b.cpu_ms; });
    std::uint64_t total_cpu = 0;
    for (const TaskRow& t : ptasks) {
      total_cpu += t.cpu_ms;
    }
    DrawText(env, bb, 6, 122, "PID CPU% U/S NAME", Rgb(130, 220, 255), 1);
    for (std::size_t i = 0; i < ptasks.size() && i < 5; ++i) {
      const TaskRow& t = ptasks[i];
      int share = total_cpu > 0 ? static_cast<int>(t.cpu_ms * 100 / total_cpu) : 0;
      char row[40];
      std::snprintf(row, sizeof(row), "%-3d %2d%% %llu/%llu %.7s", t.pid, share,
                    static_cast<unsigned long long>(t.utime_ms),
                    static_cast<unsigned long long>(t.stime_ms), t.name.c_str());
      DrawText(env, bb, 6, 134 + static_cast<int>(i) * 12, row, Rgb(200, 200, 200), 1);
    }
    sdl.Present();
    sdl.Delay(250);
  }
  return 0;
}

AppRegistrar sysmon_app("sysmon", SysmonMain, 4800, 1 << 20);

}  // namespace
}  // namespace vos
