// vosbench: builds one System for one workload, runs it, and prints a
// single JSON line with the workload's checks, its virtual-time results, its
// host-time costs, and the per-layer numbers read from registry snapshots
// (and, with --trace 1, from the benchmark's own ulib spans). run.py launches
// one process per iteration and aggregates; see README.md.
//
// usage: vosbench --workload <kv_http|kv_lossy|fs_mix|media_mix> --seed <n>
//                 [--trace 0|1] [--spans <file.json>] [--scale <x>]
#include "vosbench/vosbench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "src/kernel/kernel.h"
#include "src/kernel/racedet.h"

namespace vosbench {

std::int64_t HostNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double Pct(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  std::size_t lo = static_cast<std::size_t>(idx);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

namespace {

const char* const kHists[] = {
    "syscall.latency",  "syscall.accept.latency", "syscall.fsync.latency",
    "sched.runq_wait",  "sched.slice_len",        "irq.duration",
    "block.req_latency", "jrnl.commit_latency",
};
const char* const kValues[] = {
    "irq.count",          "net.nic.tx_frames",    "net.nic.rx_frames",
    "net.nic.irqs_raised", "net.tcp.retransmits",  "net.tcp.accept_drops",
    "net.tcp.resets_tx",  "jrnl.commits",         "jrnl.coalesced",
    "jrnl.txs",           "jrnl.backpressure_syncs", "pmm.page_allocs",
    "trace.emitted",      "trace.dropped",        "racedet.checks",
    "racedet.reports",
};
const char* const kBlockDevs[] = {"ramdisk", "sd"};
const char* const kBlockFields[] = {"hits", "misses", "writebacks", "blocks_written"};
const char* const kCoreFields[] = {"sched.core%u.ctx_switches", "sched.core%u.steals",
                                   "sched.core%u.migrations", "slab.core%u.hits",
                                   "slab.core%u.misses"};

// The ulib calls the workloads span, in report order.
const char* const kUlibCalls[] = {"connect", "send", "recv", "close", "write",
                                  "fsync",   "open", "read", "unlink"};

double HistPct(const Snapshot::Hist& a, const Snapshot::Hist& b, double p) {
  // Same estimate as Histogram::Percentile, over the window's bucket deltas.
  std::uint64_t n = b.count - a.count;
  if (n == 0) {
    return 0;
  }
  double target = std::max(1.0, p / 100.0 * static_cast<double>(n));
  double cum = 0;
  for (int i = 0; i < vos::Histogram::kNumBuckets; ++i) {
    double in = static_cast<double>(b.buckets[i] - a.buckets[i]);
    if (in > 0 && cum + in >= target) {
      double lo = static_cast<double>(vos::Histogram::BucketLow(i));
      double hi = static_cast<double>(vos::Histogram::BucketHigh(i));
      return lo + (target - cum) / in * (hi - lo);
    }
    cum += in;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Per-layer numbers over the window [w0, w1], per completed operation.
void RegistryLayers(const Outcome& o, unsigned cores, std::map<std::string, double>& L,
                    std::map<std::string, double>& H) {
  const Snapshot& a = o.w0;
  const Snapshot& b = o.w1;
  auto d = [&](const std::string& name) {
    auto ia = a.values.find(name);
    auto ib = b.values.find(name);
    if (ia == a.values.end() || ib == b.values.end()) {
      return 0.0;
    }
    return static_cast<double>(ib->second) - static_cast<double>(ia->second);
  };
  auto pct_us = [&](const char* h, double p) {
    return HistPct(a.hists.at(h), b.hists.at(h), p) / 1e3;
  };
  auto cores_sum = [&](const char* fmt) {
    double s = 0;
    char name[64];
    for (unsigned c = 0; c < cores; ++c) {
      std::snprintf(name, sizeof(name), fmt, c);
      s += d(name);
    }
    return s;
  };
  auto block_sum = [&](const char* field) {
    double s = 0;
    for (const char* dev : kBlockDevs) {
      s += d(std::string("block.") + dev + "." + field);
    }
    return s;
  };
  const double ops = std::max(o.ops, 1.0);
  const double vs = static_cast<double>(b.vnow - a.vnow) / 1e9;

  L["syscall.latency.p99_us"] = pct_us("syscall.latency", 99);
  L["syscall.accept.p99_us"] = pct_us("syscall.accept.latency", 99);
  L["syscall.fsync.p99_us"] = pct_us("syscall.fsync.latency", 99);
  L["sched.runq_wait.p50_us"] = pct_us("sched.runq_wait", 50);
  L["sched.runq_wait.p99_us"] = pct_us("sched.runq_wait", 99);
  L["sched.slice_len.p50_us"] = pct_us("sched.slice_len", 50);
  L["sched.idle_pct"] =
      100 * Ratio(static_cast<double>(b.idle - a.idle),
                  static_cast<double>((b.idle - a.idle) + (b.busy - a.busy)));
  const double activations = cores_sum("sched.core%u.ctx_switches");
  L["sched.ctx_switches"] = activations;
  L["sched.steals"] = cores_sum("sched.core%u.steals");
  L["sched.migrations"] = cores_sum("sched.core%u.migrations");
  L["irq.per_req"] = d("irq.count") / ops;
  L["irq.duration.p99_us"] = pct_us("irq.duration", 99);
  L["net.frames_per_req"] = d("net.nic.tx_frames") / ops;
  L["net.irq_coalesce_ratio"] = Ratio(d("net.nic.irqs_raised"), d("net.nic.rx_frames"));
  L["net.tcp.retransmits"] = d("net.tcp.retransmits");
  L["net.tcp.accept_drops"] = d("net.tcp.accept_drops");
  L["net.tcp.resets_tx"] = d("net.tcp.resets_tx");
  const double hits = block_sum("hits");
  L["bcache.hit_ratio"] = Ratio(hits, hits + block_sum("misses"));
  L["bcache.writebacks_per_op"] = block_sum("writebacks") / ops;
  L["block.req_latency.p50_us"] = pct_us("block.req_latency", 50);
  L["block.req_latency.p99_us"] = pct_us("block.req_latency", 99);
  L["block.blocks_written_per_op"] = block_sum("blocks_written") / ops;
  L["jrnl.commits_per_op"] = d("jrnl.commits") / ops;
  L["jrnl.coalesce_ratio"] = Ratio(d("jrnl.coalesced"), d("jrnl.txs"));
  L["jrnl.commit_latency.p99_us"] = pct_us("jrnl.commit_latency", 99);
  L["jrnl.backpressure_syncs"] = d("jrnl.backpressure_syncs");
  const double slab_hits = cores_sum("slab.core%u.hits");
  L["slab.hit_ratio"] = Ratio(slab_hits, slab_hits + cores_sum("slab.core%u.misses"));
  L["pmm.page_allocs_per_op"] = d("pmm.page_allocs") / ops;
  L["trace.emitted_per_op"] = d("trace.emitted") / ops;
  L["trace.dropped"] = d("trace.dropped");
  L["racedet.checks_per_op"] = d("racedet.checks") / ops;

  const double window_ns = static_cast<double>(b.hnow - a.hnow);
  H["host.activations_per_vs"] = Ratio(activations, vs);
  H["host.ns_per_activation"] = Ratio(static_cast<double>(b.cnow - a.cnow), activations);
  H["host.run_share"] = Ratio(window_ns - static_cast<double>(o.harness_ns), window_ns);
}

struct SpanStats {
  std::vector<double> v_us, h_us;
  double v_sum = 0, v_max = 0;
};

// Span-derived layers plus the reconciliation checks (traced runs only).
void SpanLayers(Ctx& c, std::map<std::string, double>& L, std::map<std::string, double>& H) {
  if (!c.makes_calls) {
    return;
  }
  vos::Kernel& k = c.sys->kernel();
  std::map<std::string, SpanStats> by_name;  // window spans, for percentiles
  std::map<std::string, SpanStats> whole;    // every span, for syscall bounds
  std::map<std::uint64_t, std::pair<double, double>> ops;  // parent, sum of children
  for (const Span& s : c.log.spans()) {
    double v = VirtUs(s.v0, s.v1);
    SpanStats& w = whole[s.name];
    w.v_sum += v;
    w.v_max = std::max(w.v_max, v);
    if (s.parent) {
      ops[s.op].first += v;
      continue;
    }
    ops[s.op].second += v;
    if (s.v0 >= c.out.w0.vnow && s.v1 <= c.out.w1.vnow) {
      SpanStats& st = by_name[s.name];
      st.v_us.push_back(v);
      st.h_us.push_back(static_cast<double>(s.h1 - s.h0) / 1e3);
    }
  }
  for (const char* call : kUlibCalls) {
    const SpanStats& st = by_name[std::string("ulib.") + call];
    L[std::string("ulib.") + call + ".p99_us"] = Pct(st.v_us, 99);
    H[std::string("ulib.") + call + ".p99_host_us"] = Pct(st.h_us, 99);
  }

  // Each op's call spans (plus generator lateness) sum to its latency.
  std::uint64_t bad = 0;
  for (const auto& [op, pc] : ops) {
    bad += std::abs(pc.first - pc.second) > 0.01 * std::abs(pc.first) + 1e-6 ? 1 : 0;
  }
  L["span.reconcile_failures"] = static_cast<double>(bad);
  c.out.checks["span.reconcile"] = bad == 0 && !ops.empty();

  // No syscall may outlast the ulib call that made it. Compared are only the
  // syscalls that the benchmark's own tasks alone make. open skips the total
  // test: the C runtime also opens the console, outside any span.
  struct Bound {
    const char* call;
    bool sum;
  };
  static const Bound kBounds[] = {{"connect", true}, {"fsync", true}, {"unlink", true},
                                  {"write", true},   {"read", true},  {"open", false}};
  bool within = true;
  for (const Bound& bnd : kBounds) {
    auto it = whole.find(std::string("ulib.") + bnd.call);
    const vos::Histogram* h =
        k.metrics().FindHist(std::string("syscall.") + bnd.call + ".latency");
    if (it == whole.end() || h == nullptr || h->count() == 0) {
      continue;
    }
    within = within && static_cast<double>(h->max()) / 1e3 <= it->second.v_max + 1e-9;
    if (bnd.sum) {
      within = within && static_cast<double>(h->sum()) / 1e3 <= it->second.v_sum + 1e-6;
    }
  }
  c.out.checks["span.syscall_within_ulib"] = within;
}

// Chrome trace-event JSON on the virtual timeline; Perfetto opens it directly.
void WriteSpans(const Ctx& c, const std::string& path) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : c.log.spans()) {
    char line[320];
    std::snprintf(line, sizeof(line),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%llu,\"host_us\":%.3f}}",
                  first ? "" : ",\n", s.name, s.lane, static_cast<double>(s.v0) / 1e3,
                  std::max(0.0, VirtUs(s.v0, s.v1)), static_cast<unsigned long long>(s.op),
                  static_cast<double>(s.h1 - s.h0) / 1e3);
    f << line;
    first = false;
  }
  f << "\n]}\n";
}

void PrintMap(const char* key, const std::map<std::string, double>& m, bool last = false) {
  std::printf("\"%s\":{", key);
  bool first = true;
  for (const auto& [name, v] : m) {
    std::printf("%s\"%s\":%.17g", first ? "" : ",", name.c_str(), std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}%s", last ? "" : ",");
}

int Main(int argc, char** argv) {
  std::string workload, spans_path;
  std::uint64_t seed = 1;
  bool trace = false;
  double scale = 1.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string val = argv[i + 1];
    if (flag == "--workload") {
      workload = val;
    } else if (flag == "--seed") {
      seed = std::stoull(val);
    } else if (flag == "--trace") {
      trace = val == "1";
    } else if (flag == "--spans") {
      spans_path = val;
    } else if (flag == "--scale") {
      scale = std::stod(val);
    } else {
      std::fprintf(stderr, "vosbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  void (*run)(Ctx&) = workload == "kv_http"     ? RunKvHttp
                      : workload == "kv_lossy"  ? RunKvLossy
                      : workload == "fs_mix"    ? RunFsMix
                      : workload == "media_mix" ? RunMediaMix
                                                : nullptr;
  if (run == nullptr || scale <= 0) {
    std::fprintf(stderr, "usage: vosbench --workload <kv_http|kv_lossy|fs_mix|media_mix> "
                         "--seed <n> [--trace 0|1] [--spans file] [--scale x]\n");
    return 2;
  }

  Ctx c;
  c.seed = seed;
  c.scale = scale;
  c.log = SpanLog(trace);
  std::int64_t cpu0 = CpuNs();
  vos::System sys(OptionsFor(workload));
  const double setup_s = static_cast<double>(CpuNs() - cpu0) / 1e9;
  c.sys = &sys;
  run(c);

  Outcome& o = c.out;
  std::map<std::string, double> layers = o.layers;
  std::map<std::string, double> host;
  RegistryLayers(o, sys.kernel().sched().ncores(), layers, host);
  if (trace) {
    SpanLayers(c, layers, host);
    if (!spans_path.empty()) {
      WriteSpans(c, spans_path);
    }
  }
  o.checks["racedet.no_reports"] =
      o.w1.values["racedet.reports"] == 0 && vos::Racedet::Instance().total_reports() == 0;
  o.checks["window.ops"] = o.ops > 0 && o.w1.vnow > o.w0.vnow;

  const double window_s = static_cast<double>(o.w1.hnow - o.w0.hnow) / 1e9;
  const double cpu_s = static_cast<double>(o.w1.cnow - o.w0.cnow) / 1e9;
  const double virtual_s = static_cast<double>(o.w1.vnow - o.w0.vnow) / 1e9;
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  host["setup_s"] = setup_s;
  host["window_s"] = window_s;
  host["cpu_s"] = cpu_s;
  host["virtual_s"] = virtual_s;
  host["sim_speed"] = Ratio(virtual_s, cpu_s);
  host["host_rss_mb"] = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%d,"
              "\"attempted\":%llu,\"failed\":%llu,",
              workload.c_str(), static_cast<unsigned long long>(seed), trace ? 1 : 0,
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed));
  std::printf("\"checks\":{");
  bool first = true;
  for (const auto& [name, ok] : o.checks) {
    std::printf("%s\"%s\":%s", first ? "" : ",", name.c_str(), ok ? "true" : "false");
    first = false;
  }
  std::printf("},");
  PrintMap("virt", o.virt);
  PrintMap("layers", layers);
  PrintMap("host", host, /*last=*/true);
  std::printf("}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace

Snapshot TakeSnapshot(vos::Kernel& k) {
  Snapshot s;
  s.hnow = HostNs();
  s.cnow = CpuNs();
  s.vnow = k.Now();
  const vos::Metrics& m = k.metrics();
  for (const char* h : kHists) {
    Snapshot::Hist& out = s.hists[h];
    if (const vos::Histogram* hist = m.FindHist(h)) {
      for (int i = 0; i < vos::Histogram::kNumBuckets; ++i) {
        out.buckets[static_cast<std::size_t>(i)] = hist->BucketCount(i);
      }
      out.count = hist->count();
      out.sum = hist->sum();
    }
  }
  auto read = [&](const std::string& name) {
    std::uint64_t v = 0;
    if (m.Value(name, &v)) {
      s.values[name] = v;
    }
  };
  for (const char* v : kValues) {
    read(v);
  }
  for (const char* dev : kBlockDevs) {
    for (const char* f : kBlockFields) {
      read(std::string("block.") + dev + "." + f);
    }
  }
  const unsigned cores = k.sched().ncores();
  char name[64];
  for (unsigned c = 0; c < cores; ++c) {
    for (const char* fmt : kCoreFields) {
      std::snprintf(name, sizeof(name), fmt, c);
      read(name);
    }
    s.busy += k.machine().busy_time(c);
    s.idle += k.machine().idle_time(c);
  }
  return s;
}

}  // namespace vosbench

int main(int argc, char** argv) {
  try {
    return vosbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vosbench: %s\n", e.what());
    return 3;
  }
}
