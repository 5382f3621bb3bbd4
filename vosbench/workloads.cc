// The four vosbench workloads. Each runs its in-sim code as registered apps
// (the benchmark's own ulib callers), records its operations' virtual-time
// latencies, checks every output, and brackets the measured window with
// registry snapshots.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/kernel/kernel.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "vosbench/vosbench.h"

namespace vosbench {

using vos::AppEnv;
using vos::Kernel;
using vos::Task;

namespace {

// Workload shape. At most 4 client tasks and 4 server workers on 4 virtual
// cores, matching the 4-CPU hosts the benchmark is tuned on.
constexpr int kClients = 4;
constexpr int kWorkers = 4;
constexpr std::uint16_t kPort = 80;
constexpr int kKeys = 64;

// kv_http: open-loop offered rate climbs in steps through the knee. A step
// passes when its p99 (timed from each request's due time) is within
// kLimitUs and the generator's lateness is not growing. The sweep stops at the
// first failing step, but never before the 7k req/s step: that is the fixed
// reference at about half capacity, and runs longer so its p99 rests on
// enough samples. Past the reference, steps climb 1k req/s at a time to 20k
// and 2k at a time to 60k.
constexpr double kLimitUs = 1000;
constexpr double kRefRate = 7000;
constexpr double kStepSeconds = 0.25;
std::vector<std::pair<double, double>> HttpSteps() {  // (req/s, virtual s)
  std::vector<std::pair<double, double>> steps = {
      {5000, 0.15}, {kRefRate, 0.5}, {10000, kStepSeconds}};
  for (double r = 12000; r <= 60000; r += r < 20000 ? 1000 : 2000) {
    steps.emplace_back(r, kStepSeconds);
  }
  return steps;
}
// kv_lossy: one fixed rate far below capacity over a 2%-loss link; with the
// default 50 ms RTO a lost segment stalls its client for a whole timeout.
constexpr double kLossyRate = 100;
constexpr double kLossySeconds = 30.0;
constexpr std::uint32_t kLossPpm = 20000;

// fs_mix: loops per task, file size, and mean user think time between ops.
// Each task cycles through a fixed set of file names, so the live set stays
// within the root image's 256 inodes however long the run.
constexpr int kFsLoops = 600;
constexpr std::size_t kFsFilesPerTask = 24;
constexpr std::uint32_t kFileBytes = 4096;
constexpr double kFsThinkNs = 20000;

// media_mix: warm-up before the window (plus a seeded 0-1 s) and the window.
constexpr Cycles kMediaWarmup = vos::Ms(1500);
constexpr Cycles kMediaWindow = vos::Ms(2500);
constexpr Cycles kMediaChunk = vos::Ms(250);

// Sleeps the calling task until virtual time `due`. The sleep syscall counts
// whole milliseconds, too coarse for an open-loop arrival schedule, so the
// generator arms the kernel's virtual timer directly — what SysSleep does,
// minus the simulated syscall cost the load generator should not add.
void SleepUntil(Kernel* k, Cycles due) {
  if (k->Now() >= due) {
    return;
  }
  Task* cur = k->CurrentTask();
  k->vtimers().AddAt(due, [k, cur] { k->sched().WakeTask(cur); });
  k->sched().Sleep(cur, cur);
}

// Opens (start) or closes the measured window. The window's host time starts
// before the opening snapshot, so that snapshot counts as benchmark overhead.
void MarkWindow(Ctx& c, Kernel& k, bool start) {
  if (start) {
    c.out.w0 = TakeSnapshot(k);
    c.out.harness_ns += HostNs() - c.out.w0.hnow;
  } else {
    c.out.w1 = TakeSnapshot(k);
  }
}

int AsInt(std::int64_t v) { return static_cast<int>(v); }

// --- kv ---------------------------------------------------------------------

struct KvStep {
  double rate = 0;
  std::vector<Cycles> offs;  // due offsets from the step start, ascending
  std::vector<int> keys;     // key index per request
};

struct KvStepResult {
  double rate = 0;
  std::vector<double> lat_us;   // completion - due
  std::vector<double> late_us;  // start - due
  std::uint64_t failed = 0;
  double p50 = 0, p99 = 0, late_tail = 0;
  bool pass = false;
};

struct KvRun {
  Ctx* c = nullptr;
  std::vector<std::string> vals;  // value per key
  std::vector<KvStep> steps;
  std::vector<KvStepResult> results;
  std::uint64_t next_op = 0;
  std::uint64_t attempted = 0, failed = 0;
};

KvRun* g_kv = nullptr;

// One full TCP lifecycle: socket, connect, send the request, recv to EOF,
// close. Every ulib call is its own span. Returns true on a clean EOF.
bool Request(AppEnv& me, SpanLog& log, int lane, std::uint64_t op, const std::string& req,
             std::string* resp) {
  Kernel* k = me.kernel;
  std::int64_t fd = log.Call(k, "ulib.socket", lane, op, [&] { return vos::usocket(me, 0); });
  if (fd < 0) {
    return false;
  }
  std::uint32_t ip = k->config().net_ip;
  std::int64_t r;
  do {
    r = log.Call(k, "ulib.connect", lane, op,
                 [&] { return vos::uconnect(me, AsInt(fd), ip, kPort); });
  } while (r == vos::kErrIntr);
  bool ok = r == 0;
  if (ok) {
    r = log.Call(k, "ulib.send", lane, op, [&] {
      return vos::usend_all(me, AsInt(fd), req.data(), static_cast<std::uint32_t>(req.size()));
    });
    ok = r == static_cast<std::int64_t>(req.size());
  }
  if (ok) {
    char buf[256];
    for (;;) {
      std::int64_t n = log.Call(k, "ulib.recv", lane, op,
                                [&] { return vos::urecv(me, AsInt(fd), buf, sizeof(buf)); });
      if (n == vos::kErrIntr) {
        continue;
      }
      if (n <= 0) {
        ok = n == 0;
        break;
      }
      resp->append(buf, static_cast<std::size_t>(n));
    }
  }
  ok = log.Call(k, "ulib.close", lane, op, [&] { return vos::uclose(me, AsInt(fd)); }) == 0 && ok;
  return ok;
}

// True when `resp` is a 200 response whose body is exactly `body`.
bool BodyIs(const std::string& resp, const std::string& body) {
  std::size_t hdr_end = resp.find("\r\n\r\n");
  return resp.compare(0, 12, "HTTP/1.0 200") == 0 && hdr_end != std::string::npos &&
         resp.compare(hdr_end + 4, std::string::npos, body) == 0;
}

// One client's share of a step: requests j = client, client + 4, ...
void KvClient(AppEnv& me, KvRun& run, const KvStep& step, Cycles t0, std::uint64_t op_base,
              KvStepResult& res, std::vector<char>& ok, int client) {
  Kernel* k = me.kernel;
  SpanLog& log = run.c->log;
  for (std::size_t j = static_cast<std::size_t>(client); j < step.offs.size(); j += kClients) {
    Cycles due = t0 + step.offs[j];
    SleepUntil(k, due);
    Cycles start = k->Now();
    std::uint64_t op = op_base + j;
    int key = step.keys[j];
    std::string resp;
    bool good = Request(me, log, client, op, "GET /k" + std::to_string(key) + "\r\n", &resp) &&
                BodyIs(resp, run.vals[static_cast<std::size_t>(key)]);
    Cycles end = k->Now();
    log.Add("gen.late", client, op, due, start, false);
    log.Add("kv.request", client, op, due, end, true);
    res.lat_us[j] = VirtUs(due, end);
    res.late_us[j] = VirtUs(due, start);
    ok[j] = good;
  }
}

void EvaluateStep(KvStepResult& res, const std::vector<char>& ok) {
  for (char g : ok) {
    res.failed += g ? 0 : 1;
  }
  res.p50 = Pct(res.lat_us, 50);
  res.p99 = Pct(res.lat_us, 99);
  // Lateness of the last tenth of the step (in due order): a generator that
  // falls further behind as the step goes on is over capacity.
  std::size_t n = res.late_us.size();
  std::size_t tail = std::max<std::size_t>(1, n / 10);
  double sum = 0;
  for (std::size_t j = n - std::min(n, tail); j < n; ++j) {
    sum += res.late_us[j];
  }
  res.late_tail = sum / static_cast<double>(tail);
  res.pass = res.failed == 0 && res.p99 <= kLimitUs && res.late_tail <= kLimitUs;
}

int KvMain(AppEnv& env) {
  KvRun& run = *g_kv;
  Ctx& c = *run.c;
  Kernel* k = env.kernel;
  // Store every key's value; each PUT must be acknowledged.
  for (int key = 0; key < kKeys; ++key) {
    std::string resp;
    std::string req =
        "PUT /k" + std::to_string(key) + " " + run.vals[static_cast<std::size_t>(key)] + "\r\n";
    std::uint64_t op = run.next_op++;
    Cycles v0 = k->Now();
    bool good = Request(env, c.log, 0, op, req, &resp) && BodyIs(resp, "stored\n");
    c.log.Add("kv.put", 0, op, v0, k->Now(), true);
    ++run.attempted;
    run.failed += good ? 0 : 1;
  }

  MarkWindow(c, *k, true);
  for (const KvStep& step : run.steps) {
    KvStepResult res;
    res.rate = step.rate;
    res.lat_us.assign(step.offs.size(), 0);
    res.late_us.assign(step.offs.size(), 0);
    std::vector<char> ok(step.offs.size(), 0);
    Cycles t0 = k->Now() + vos::Ms(1);
    std::uint64_t op_base = run.next_op;
    run.next_op += step.offs.size();
    for (int cl = 1; cl < kClients; ++cl) {
      vos::uclone(env, [&, cl]() -> int {
        AppEnv me = vos::ChildEnv(k);
        KvClient(me, run, step, t0, op_base, res, ok, cl);
        return 0;
      });
    }
    KvClient(env, run, step, t0, op_base, res, ok, 0);
    for (int cl = 1; cl < kClients; ++cl) {
      vos::uwait(env, nullptr);
    }
    std::int64_t h = HostNs();
    EvaluateStep(res, ok);
    run.attempted += step.offs.size();
    run.failed += res.failed;
    run.results.push_back(std::move(res));
    c.out.harness_ns += HostNs() - h;
    if (!run.results.back().pass && step.rate >= kRefRate) {
      break;
    }
  }
  MarkWindow(c, *k, false);
  return 0;
}

vos::AppRegistrar kv_app("vb_kv", KvMain, 4096, 8 << 20);

// A seeded Poisson arrival schedule at `rate` for `seconds`.
KvStep MakeStep(Rng& rng, double rate, double seconds) {
  KvStep s;
  s.rate = rate;
  double t = 0;
  const double end_ns = seconds * 1e9;
  for (;;) {
    t += rng.Exp(1e9 / rate);
    if (t >= end_ns) {
      break;
    }
    s.offs.push_back(static_cast<Cycles>(t));
    s.keys.push_back(static_cast<int>(rng.Below(kKeys)));
  }
  return s;
}

void InitKv(Ctx& c, KvRun& run) {
  run.c = &c;
  c.makes_calls = true;
  Rng rng(c.seed, 1);
  static const char kAlnum[] = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  for (int i = 0; i < kKeys; ++i) {
    std::string v(8 + rng.Below(33), 'x');
    for (char& ch : v) {
      ch = kAlnum[rng.Below(sizeof(kAlnum) - 1)];
    }
    run.vals.push_back(v);
  }
  g_kv = &run;
}

// Starts kvserver, runs vb_kv to completion, and fills the common kv checks.
void DriveKv(Ctx& c, KvRun& run) {
  vos::System& sys = *c.sys;
  Task* server = sys.Start("kvserver", {std::to_string(kPort), std::to_string(kWorkers), "0"});
  sys.Run(vos::Ms(5));  // let the listener come up
  Task* client = sys.Start("vb_kv");
  std::int64_t rc = sys.WaitProgram(client, vos::Sec(600));
  c.out.checks["kv.client_exit"] = rc == 0;
  c.out.checks["kv.server_alive"] = server->state != vos::TaskState::kZombie;
  c.out.attempted = run.attempted;
  c.out.failed = run.failed;
  c.out.checks["kv.responses"] = run.failed == 0;
  g_kv = nullptr;
}

// --- fs ---------------------------------------------------------------------

std::uint64_t Fnv(const std::uint8_t* p, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

struct FsFile {
  std::string path;
  std::uint64_t sum = 0;
  bool alive = true;
};

struct FsRun {
  Ctx* c = nullptr;
  std::uint64_t next_op = 0;
  int loops = 0;
  std::vector<double> write_us, read_us, unlink_us;
  std::uint64_t attempted = 0, failed = 0;
};

FsRun* g_fs = nullptr;

// Picks a live slot other than `skip`, or -1.
int PickAlive(Rng& rng, const std::vector<FsFile>& files, std::size_t skip) {
  std::vector<int> alive;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].alive && i != skip) {
      alive.push_back(static_cast<int>(i));
    }
  }
  return alive.empty() ? -1 : alive[rng.Below(alive.size())];
}

void FsTask(AppEnv& me, FsRun& run, int t) {
  Kernel* k = me.kernel;
  SpanLog& log = run.c->log;
  Rng rng(run.c->seed, 100 + static_cast<std::uint64_t>(t));
  // This task's shadow of what it wrote, one entry per file name it cycles
  // through.
  std::vector<FsFile> files(kFsFilesPerTask);
  for (std::size_t i = 0; i < files.size(); ++i) {
    files[i].path = "/vb/t" + std::to_string(t) + "/f" + std::to_string(i);
    files[i].alive = false;
  }
  std::vector<std::uint8_t> data(kFileBytes), buf(kFileBytes);
  auto think = [&] { vos::UBurn(me, rng.Exp(kFsThinkNs)); };
  auto finish = [&](std::vector<double>& lat, const char* name, std::uint64_t op, Cycles v0,
                    bool good) {
    Cycles v1 = k->Now();
    log.Add(name, t, op, v0, v1, true);
    lat.push_back(VirtUs(v0, v1));
    ++run.attempted;
    run.failed += good ? 0 : 1;
  };

  for (int n = 0; n < run.loops; ++n) {
    const std::size_t cur = static_cast<std::size_t>(n) % files.size();
    // Write op: create (or truncate), write 4 KB, fsync, close.
    {
      FsFile& f = files[cur];
      for (auto& b : data) {
        b = static_cast<std::uint8_t>(rng.Next());
      }
      std::uint64_t op = run.next_op++;
      Cycles v0 = k->Now();
      std::int64_t fd = log.Call(k, "ulib.open", t, op, [&] {
        return vos::uopen(me, f.path, vos::kOCreate | vos::kOWronly | vos::kOTrunc);
      });
      bool good = fd >= 0;
      if (good) {
        good = log.Call(k, "ulib.write", t, op, [&] {
                 return vos::uwrite(me, AsInt(fd), data.data(), kFileBytes);
               }) == kFileBytes;
        good = log.Call(k, "ulib.fsync", t, op, [&] { return vos::ufsync(me, AsInt(fd)); }) == 0 &&
               good;
        good = log.Call(k, "ulib.close", t, op, [&] { return vos::uclose(me, AsInt(fd)); }) == 0 &&
               good;
      }
      f.sum = Fnv(data.data(), data.size());
      f.alive = true;
      finish(run.write_us, "fs.write_op", op, v0, good);
    }
    think();
    // Read op: open an earlier file, read it to EOF, verify against the shadow.
    if (int pick = PickAlive(rng, files, cur); pick >= 0) {
      const FsFile& f = files[static_cast<std::size_t>(pick)];
      std::uint64_t op = run.next_op++;
      Cycles v0 = k->Now();
      std::int64_t fd =
          log.Call(k, "ulib.open", t, op, [&] { return vos::uopen(me, f.path, vos::kORdonly); });
      bool good = fd >= 0;
      if (good) {
        std::uint32_t got = 0;
        std::int64_t r = 1;
        while (got < kFileBytes && r > 0) {
          r = log.Call(k, "ulib.read", t, op, [&] {
            return vos::uread(me, AsInt(fd), buf.data() + got, kFileBytes - got);
          });
          got += r > 0 ? static_cast<std::uint32_t>(r) : 0;
        }
        // The file holds exactly what was written: one more read is EOF.
        char extra;
        r = log.Call(k, "ulib.read", t, op, [&] { return vos::uread(me, AsInt(fd), &extra, 1); });
        good = r == 0 && got == kFileBytes && Fnv(buf.data(), kFileBytes) == f.sum;
        good = log.Call(k, "ulib.close", t, op, [&] { return vos::uclose(me, AsInt(fd)); }) == 0 &&
               good;
      }
      finish(run.read_us, "fs.read_op", op, v0, good);
      think();
    }
    // Every 4th loop unlinks an earlier file.
    if (n % 4 == 3) {
      if (int pick = PickAlive(rng, files, cur); pick >= 0) {
        FsFile& f = files[static_cast<std::size_t>(pick)];
        std::uint64_t op = run.next_op++;
        Cycles v0 = k->Now();
        bool good =
            log.Call(k, "ulib.unlink", t, op, [&] { return vos::uunlink(me, f.path); }) == 0;
        f.alive = false;
        finish(run.unlink_us, "fs.unlink_op", op, v0, good);
        think();
      }
    }
  }
}

int FsMain(AppEnv& env) {
  FsRun& run = *g_fs;
  Ctx& c = *run.c;
  Kernel* k = env.kernel;
  bool dirs = vos::umkdir(env, "/vb") == 0;
  for (int t = 0; t < kClients; ++t) {
    dirs = vos::umkdir(env, "/vb/t" + std::to_string(t)) == 0 && dirs;
  }
  c.out.checks["fs.mkdir"] = dirs;
  MarkWindow(c, *k, true);
  for (int t = 1; t < kClients; ++t) {
    vos::uclone(env, [&, t]() -> int {
      AppEnv me = vos::ChildEnv(k);
      FsTask(me, run, t);
      return 0;
    });
  }
  FsTask(env, run, 0);
  for (int t = 1; t < kClients; ++t) {
    vos::uwait(env, nullptr);
  }
  MarkWindow(c, *k, false);
  return 0;
}

vos::AppRegistrar fs_app("vb_fs", FsMain, 4096, 8 << 20);

// --- media ------------------------------------------------------------------

struct MediaApp {
  const char* name;
  std::vector<std::string> args;
};

}  // namespace

double Rng::Exp(double mean) { return -mean * std::log(1.0 - Uniform()); }

vos::SystemOptions OptionsFor(const std::string& workload) {
  vos::SystemOptions opt = vos::OptionsForStage(vos::Stage::kProto5);
  if (workload == "kv_lossy") {
    opt.config_hook = [](vos::KernelConfig& cfg) { cfg.net_link_loss_ppm = kLossPpm; };
  } else if (workload == "media_mix") {
    opt.with_media_assets = true;
    opt.media_video_w = 640;  // the 480p clip
    opt.media_video_h = 480;
    opt.media_video_frames = 24;
    opt.dram_size = vos::MiB(128);
  }
  return opt;
}

void RunKvHttp(Ctx& c) {
  KvRun run;
  InitKv(c, run);
  Rng rng(c.seed, 2);
  for (const auto& [rate, seconds] : HttpSteps()) {
    run.steps.push_back(MakeStep(rng, rate, seconds * c.scale));
  }
  DriveKv(c, run);

  // Capacity: the highest offered rate whose step passes, interpolated on p99
  // between the last passing step and the first failing one. With no failing
  // step it is the last step's rate, a lower bound.
  const std::vector<KvStepResult>& rs = run.results;
  double cap = 0;
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (rs[i].pass) {
      cap = rs[i].rate;
      continue;
    }
    if (i > 0 && rs[i].p99 > kLimitUs && rs[i].late_tail <= kLimitUs) {
      double p0 = rs[i - 1].p99, p1 = rs[i].p99;
      cap += (rs[i].rate - rs[i - 1].rate) * (kLimitUs - p0) / (p1 - p0);
    }
    break;
  }
  std::vector<double> late;
  double ops = 0;
  for (const KvStepResult& r : rs) {
    late.insert(late.end(), r.late_us.begin(), r.late_us.end());
    ops += static_cast<double>(r.lat_us.size());
    if (r.rate == kRefRate) {
      c.out.virt["kv.p50_us"] = r.p50;
      c.out.virt["kv.p99_us"] = r.p99;
    }
  }
  c.out.virt["kv.capacity_rps"] = cap;
  c.out.virt["ops_per_s"] = cap;
  c.out.virt["op_p50_us"] = c.out.virt["kv.p50_us"];
  c.out.virt["op_p99_us"] = c.out.virt["kv.p99_us"];
  c.out.layers["gen.late_p99_us"] = Pct(late, 99);
  c.out.ops = ops;
}

void RunKvLossy(Ctx& c) {
  KvRun run;
  InitKv(c, run);
  Rng rng(c.seed, 3);
  run.steps.push_back(MakeStep(rng, kLossyRate, kLossySeconds * c.scale));
  DriveKv(c, run);
  const KvStepResult& r = run.results.at(0);
  double window_s = static_cast<double>(c.out.w1.vnow - c.out.w0.vnow) / 1e9;
  c.out.virt["kv.p50_us"] = r.p50;
  c.out.virt["kv.p99_us"] = r.p99;
  c.out.virt["ops_per_s"] = static_cast<double>(r.lat_us.size() - r.failed) / window_s;
  c.out.virt["op_p50_us"] = r.p50;
  c.out.virt["op_p99_us"] = r.p99;
  c.out.layers["gen.late_p99_us"] = Pct(r.late_us, 99);
  c.out.ops = static_cast<double>(r.lat_us.size());
}

void RunFsMix(Ctx& c) {
  FsRun run;
  run.c = &c;
  c.makes_calls = true;
  run.loops = std::max(4, static_cast<int>(kFsLoops * c.scale));
  g_fs = &run;
  Task* t = c.sys->Start("vb_fs");
  std::int64_t rc = c.sys->WaitProgram(t, vos::Sec(600));
  g_fs = nullptr;
  c.out.checks["fs.task_exit"] = rc == 0;
  c.out.checks["fs.ops"] = run.failed == 0;
  c.out.attempted = run.attempted;
  c.out.failed = run.failed;
  double ops = static_cast<double>(run.write_us.size() + run.read_us.size() + run.unlink_us.size());
  double window_s = static_cast<double>(c.out.w1.vnow - c.out.w0.vnow) / 1e9;
  c.out.virt["fs.ops_per_s"] = ops / window_s;
  c.out.virt["fs.write_p50_us"] = Pct(run.write_us, 50);
  c.out.virt["fs.write_p99_us"] = Pct(run.write_us, 99);
  c.out.virt["fs.read_p99_us"] = Pct(run.read_us, 99);
  c.out.virt["ops_per_s"] = c.out.virt["fs.ops_per_s"];
  c.out.virt["op_p50_us"] = c.out.virt["fs.write_p50_us"];
  c.out.virt["op_p99_us"] = c.out.virt["fs.write_p99_us"];
  c.out.ops = ops;
}

void RunMediaMix(Ctx& c) {
  vos::System& sys = *c.sys;
  Kernel& k = sys.kernel();
  const std::vector<std::string> kBench = {"--bench", "--frames", "1000000000"};
  std::vector<MediaApp> apps = {
      {"mario", kBench},    {"mario", kBench}, {"mario", kBench},
      {"mario", kBench},    {"doomlike", kBench},
      {"videoplayer", {"/d/videos/clip480.vmv", "--bench"}},
  };
  // The seed picks a stagger of up to 200 ms before each start, which sets the
  // apps' relative phase on shared cores. The start order stays fixed: it
  // decides which apps share a core.
  Rng rng(c.seed, 4);
  std::vector<vos::Pid> pids;
  for (const MediaApp& a : apps) {
    sys.Run(static_cast<Cycles>(rng.Uniform() * 200e6));
    pids.push_back(sys.Start(a.name, a.args)->pid());
  }
  // ... and where in the apps' runs the window falls.
  sys.Run(kMediaWarmup + static_cast<Cycles>(rng.Uniform() * 1e9));

  // Frame marks are read from the trace ring every chunk, before it wraps.
  std::map<vos::Pid, std::vector<Cycles>> frames;
  std::map<vos::Pid, Cycles> seen;
  auto collect = [&](Cycles from) {
    std::int64_t h = HostNs();
    for (const vos::TraceRecord& r : k.trace().DumpEvent(vos::TraceEvent::kUserMark)) {
      if (r.a == 1 && r.ts > from && frames.count(r.pid) != 0 && r.ts > seen[r.pid]) {
        frames[r.pid].push_back(r.ts);
      }
    }
    for (auto& [pid, ts] : frames) {
      std::sort(ts.begin(), ts.end());
      if (!ts.empty()) {
        seen[pid] = ts.back();
      }
    }
    c.out.harness_ns += HostNs() - h;
  };
  std::map<vos::Pid, std::array<Cycles, 3>> dom0;
  for (vos::Pid p : pids) {
    frames[p];
    Task* t = k.FindTask(p);
    dom0[p] = {t->time_by_domain[0], t->time_by_domain[1], t->time_by_domain[2]};
  }
  MarkWindow(c, k, true);
  const Cycles start = c.out.w0.vnow;
  for (Cycles done = 0; done < kMediaWindow; done += kMediaChunk) {
    sys.Run(kMediaChunk);
    collect(start);
  }
  MarkWindow(c, k, false);

  double total = 0, k_ns = 0, u_ns = 0, l_ns = 0;
  std::uint64_t dead = 0;
  std::vector<double> gaps_ms;
  for (vos::Pid p : pids) {
    const std::vector<Cycles>& ts = frames[p];
    Task* t = k.FindTask(p);
    bool ok = !ts.empty() && t != nullptr && t->state != vos::TaskState::kZombie;
    dead += ok ? 0 : 1;
    total += static_cast<double>(ts.size());
    for (std::size_t i = 1; i < ts.size(); ++i) {
      gaps_ms.push_back(static_cast<double>(ts[i] - ts[i - 1]) / 1e6);
    }
    if (t != nullptr) {
      k_ns += static_cast<double>(t->time_by_domain[0] - dom0[p][0]);
      u_ns += static_cast<double>(t->time_by_domain[1] - dom0[p][1]);
      l_ns += static_cast<double>(t->time_by_domain[2] - dom0[p][2]);
    }
  }
  c.out.checks["media.all_apps_rendering"] = dead == 0;
  c.out.attempted = static_cast<std::uint64_t>(total) + dead;
  c.out.failed = dead;
  double window_s = static_cast<double>(c.out.w1.vnow - c.out.w0.vnow) / 1e9;
  c.out.virt["media.fps"] = total / window_s;
  c.out.virt["media.frame_p99_ms"] = Pct(gaps_ms, 99);
  c.out.virt["ops_per_s"] = c.out.virt["media.fps"];
  c.out.virt["op_p50_us"] = Pct(gaps_ms, 50) * 1e3;
  c.out.virt["op_p99_us"] = c.out.virt["media.frame_p99_ms"] * 1e3;
  double f = std::max(total, 1.0) * 1e6;
  c.out.layers["media.k_ms_per_frame"] = k_ns / f;
  c.out.layers["media.u_ms_per_frame"] = u_ns / f;
  c.out.layers["media.l_ms_per_frame"] = l_ns / f;
  c.out.ops = total;

  // Stop and reap the apps so teardown starts from a quiet machine.
  for (vos::Pid p : pids) {
    k.KillFromHost(p);
  }
  sys.Run(vos::Ms(300));
  for (vos::Pid p : pids) {
    if (Task* t = k.FindTask(p); t != nullptr && t->state == vos::TaskState::kZombie) {
      k.ReapZombie(p);
    }
  }
}

}  // namespace vosbench
