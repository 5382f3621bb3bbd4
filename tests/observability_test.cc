// Observability subsystem tests (PR 4): log2 histogram math, the lock-free
// per-core trace ring (no lockdep acquisitions on Emit, wrap counted as
// drops), trace text/JSON round-trips, the metrics registry's leaf-lock
// discipline, and a full Proto5 boot exercising /proc/metrics,
// /proc/schedstat, /dev/trace, and the `trace` coreutil end to end.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/app_registry.h"
#include "src/base/histogram.h"
#include "src/kernel/lockdep.h"
#include "src/kernel/metrics.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/trace.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

// --- Histogram ------------------------------------------------------------

TEST(HistogramTest, CountsSumsAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(1000);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 1006u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.mean(), 1006.0 / 4.0);
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(5), 3u);       // 4..7
  EXPECT_EQ(h.BucketCount(Histogram::BucketOf(5)), 1u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(HistogramTest, PercentilesLandInTheRightBucket) {
  Histogram h;
  // 90 fast ops (~100 ns) and 10 slow ones (~1 ms).
  for (int i = 0; i < 90; ++i) {
    h.Record(100);
  }
  for (int i = 0; i < 10; ++i) {
    h.Record(1'000'000);
  }
  // p50 must sit in the 100ns bucket [64, 128); p99 in the 1ms bucket.
  EXPECT_GE(h.Percentile(50.0), 64u);
  EXPECT_LT(h.Percentile(50.0), 128u);
  EXPECT_GE(h.Percentile(99.0), 524288u);  // 2^19, lower bound of 1e6's bucket
  EXPECT_LE(h.Percentile(99.0), 1u << 20);
  EXPECT_EQ(h.Percentile(100.0), h.max());
}

// --- Trace ring -----------------------------------------------------------

// The acceptance criterion for the lock-free rework: Emit performs zero lock
// acquisitions. Lockdep counts every SpinLock acquire per class, so the
// global acquisition count must not move across 10k emits.
TEST(TraceRingTest, EmitTakesNoLock) {
  Lockdep& dep = Lockdep::Instance();
  dep.Reset();
  dep.SetEnabled(true);
  TraceRing ring(/*per_core_capacity=*/1024);
  auto total_acquisitions = [&dep] {
    std::uint64_t t = 0;
    for (const LockClassInfo& c : dep.Classes()) {
      t += c.acquisitions;
    }
    return t;
  };
  const std::uint64_t before = total_acquisitions();
  for (int i = 0; i < 10'000; ++i) {
    ring.Emit(Cycles(i), i % 4, TraceEvent::kUserMark, 1, i, 0);
  }
  EXPECT_EQ(total_acquisitions(), before) << "TraceRing::Emit acquired a lock";
  EXPECT_EQ(ring.total_emitted(), 10'000u);
  dep.Reset();
}

TEST(TraceRingTest, WrapOverwritesOldestAndCountsDrops) {
  TraceRing ring(8);
  for (int i = 0; i < 20; ++i) {
    ring.Emit(Cycles(i), /*core=*/0, TraceEvent::kUserMark, 1, std::uint64_t(i), 0);
  }
  std::vector<TraceRecord> recs = ring.Dump();
  ASSERT_EQ(recs.size(), 8u);
  EXPECT_EQ(recs.front().a, 12u);  // oldest surviving record
  EXPECT_EQ(recs.back().a, 19u);   // newest
  EXPECT_EQ(ring.dropped(0), 12u);
  EXPECT_EQ(ring.dropped(1), 0u);
  EXPECT_EQ(ring.total_dropped(), 12u);
  ring.Clear();
  EXPECT_TRUE(ring.Dump().empty());
  EXPECT_EQ(ring.total_dropped(), 0u);
}

TEST(TraceRingTest, DumpMergesCoresInTimeOrder) {
  TraceRing ring(16);
  ring.Emit(Cycles(30), 1, TraceEvent::kWakeup, 2);
  ring.Emit(Cycles(10), 0, TraceEvent::kSleep, 1);
  ring.Emit(Cycles(20), 2, TraceEvent::kCtxSwitch, 3);
  std::vector<TraceRecord> recs = ring.Dump();
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].ts, Cycles(10));
  EXPECT_EQ(recs[1].ts, Cycles(20));
  EXPECT_EQ(recs[2].ts, Cycles(30));
}

// --- Text and JSON export -------------------------------------------------

TEST(TraceTextTest, RoundTrips) {
  std::vector<TraceRecord> recs = {
      {Cycles(100), 0, TraceEvent::kSyscallEnter, 3, 12, 0},
      {Cycles(250), 0, TraceEvent::kSyscallExit, 3, 12, 0},
      {Cycles(300), 1, TraceEvent::kIrqEnter, 0, 27, 0},
      {Cycles(400), 1, TraceEvent::kIrqExit, 0, 27, 0},
      {Cycles(500), 2, TraceEvent::kBlockWrite, 4, 8192, 16},
  };
  const std::string text = FormatTraceText(recs);
  std::vector<TraceRecord> parsed;
  ASSERT_TRUE(ParseTraceText(text, &parsed));
  ASSERT_EQ(parsed.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(parsed[i].ts, recs[i].ts);
    EXPECT_EQ(parsed[i].core, recs[i].core);
    EXPECT_EQ(parsed[i].event, recs[i].event);
    EXPECT_EQ(parsed[i].pid, recs[i].pid);
    EXPECT_EQ(parsed[i].a, recs[i].a);
    EXPECT_EQ(parsed[i].b, recs[i].b);
  }
}

TEST(TraceTextTest, ParseRejectsMalformedLines) {
  std::vector<TraceRecord> out;
  EXPECT_FALSE(ParseTraceText("not a trace line\n", &out));
  EXPECT_FALSE(ParseTraceText("100 0 no_such_event 1 0 0\n", &out));
  // Comments and blank lines are fine.
  out.clear();
  EXPECT_TRUE(ParseTraceText("# header\n\n100 0 sleep 1 0 0\n", &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].event, TraceEvent::kSleep);
}

TEST(ChromeTraceTest, PairsBracketsAndMarksInstants) {
  std::vector<TraceRecord> recs = {
      {Cycles(1000), 0, TraceEvent::kSyscallEnter, 3, 5, 0},
      {Cycles(2000), 0, TraceEvent::kSyscallExit, 3, 5, 0},
      {Cycles(3000), 1, TraceEvent::kWakeup, 2, 0, 0},
  };
  const std::string json = FormatChromeTrace(recs);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\"", 0), 0u) << json;
  EXPECT_NE(json.find("\"name\":\"syscall_5\",\"cat\":\"kernel\",\"ph\":\"B\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wakeup\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);  // instant scope
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
}

bool HavePython3() { return std::system("python3 --version > /dev/null 2>&1") == 0; }

// Validate the C++ JSON emitter with a real parser, and run the offline
// converter over the same dump: both must yield parseable trace-event JSON
// with the same event count.
TEST(ChromeTraceTest, PythonToolingAcceptsTheOutput) {
  if (!HavePython3()) {
    GTEST_SKIP() << "python3 not available";
  }
  std::vector<TraceRecord> recs = {
      {Cycles(1000), 0, TraceEvent::kSyscallEnter, 3, 5, 0},
      {Cycles(2000), 0, TraceEvent::kSyscallExit, 3, 5, 0},
      {Cycles(2500), 1, TraceEvent::kIrqEnter, 0, 27, 0},
      {Cycles(2600), 1, TraceEvent::kIrqExit, 0, 27, 0},
      {Cycles(3000), 1, TraceEvent::kPmmAlloc, 2, 4096, 1},
  };
  const std::filesystem::path tmp = ::testing::TempDir();
  const std::filesystem::path json_path = tmp / "vos_trace.json";
  const std::filesystem::path text_path = tmp / "vos_trace.txt";
  const std::filesystem::path tool_json = tmp / "vos_trace_tool.json";
  {
    std::ofstream(json_path) << FormatChromeTrace(recs);
    std::ofstream(text_path) << FormatTraceText(recs);
  }
  const std::filesystem::path tools =
      std::filesystem::path(__FILE__).parent_path().parent_path() / "tools";
  const std::string check =
      "python3 -c \"import json,sys; d=json.load(open(sys.argv[1])); "
      "assert d['displayTimeUnit']=='ns'; assert len(d['traceEvents'])==5; "
      "assert {e['ph'] for e in d['traceEvents']} == {'B','E','I'}\" ";
  EXPECT_EQ(std::system((check + json_path.string()).c_str()), 0)
      << "FormatChromeTrace output is not valid trace-event JSON";
  const std::string convert = "python3 " + (tools / "trace2perfetto.py").string() + " " +
                              text_path.string() + " " + tool_json.string() +
                              " > /dev/null 2>&1";
  ASSERT_EQ(std::system(convert.c_str()), 0) << "trace2perfetto.py failed";
  EXPECT_EQ(std::system((check + tool_json.string()).c_str()), 0)
      << "trace2perfetto.py output is not valid trace-event JSON";
}

// --- Metrics registry -----------------------------------------------------

TEST(MetricsTest, CountersGaugesAndHistogramsExport) {
  Metrics m;
  MetricCounter* c = m.Counter("test.ops");
  c->Inc();
  c->Inc(4);
  EXPECT_EQ(m.Counter("test.ops"), c);  // create-or-get returns the same cell
  m.Gauge("test.depth", [] { return std::uint64_t(7); });
  Histogram* h = m.Hist("test.lat");
  std::uint64_t v = 0;
  ASSERT_TRUE(m.Value("test.ops", &v));
  EXPECT_EQ(v, 5u);
  ASSERT_TRUE(m.Value("test.depth", &v));
  EXPECT_EQ(v, 7u);
  EXPECT_FALSE(m.Value("test.missing", &v));
  EXPECT_EQ(m.FindHist("test.lat"), h);
  EXPECT_EQ(m.FindHist("test.missing"), nullptr);

  // Zero-sample histograms are omitted; populated ones export percentiles.
  std::string text = m.ExportText();
  EXPECT_NE(text.find("test.ops 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.depth 7\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("test.lat"), std::string::npos) << text;
  h->Record(100);
  text = m.ExportText();
  EXPECT_NE(text.find("test.lat.count 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.lat.sum 100\n"), std::string::npos) << text;
  EXPECT_NE(text.find("test.lat.p99 "), std::string::npos) << text;
  EXPECT_NE(text.find("test.lat.max 100\n"), std::string::npos) << text;
}

// The registry lock must stay a lockdep leaf even though gauge callbacks
// take subsystem locks: callbacks run outside the metrics lock, so no
// metrics->X edge may ever appear.
TEST(MetricsTest, GaugeCallbacksRunOutsideTheMetricsLock) {
  Lockdep& dep = Lockdep::Instance();
  dep.Reset();
  dep.SetEnabled(true);
  {
    Metrics m;
    SpinLock subsystem("bcache");
    m.Gauge("test.locked", [&subsystem] {
      SpinGuard g(subsystem);
      return std::uint64_t(1);
    });
    std::uint64_t v = 0;
    EXPECT_TRUE(m.Value("test.locked", &v));
    EXPECT_EQ(m.ExportText().find("test.locked 1") == std::string::npos, false);
    EXPECT_FALSE(dep.HasPath("metrics", "bcache"))
        << "gauge callback evaluated under the metrics lock";
  }
  dep.Reset();
}

// --- Full-boot integration ------------------------------------------------

TEST(ObservabilityBootTest, ProcMetricsCountersAreMonotonic) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(RunInOs(sys, "obs_warm", [](AppEnv& env) -> int {
              for (int i = 0; i < 3; ++i) {
                usleep_ms(env, 5);
              }
              return 0;
            }),
            0);
  const std::string first = RunAndCapture(sys, "cat", {"/proc/metrics"});
  std::uint64_t sys_count1 = 0, irq1 = 0, ctx1 = 0;
  ASSERT_TRUE(ParseMetricValue(first, "syscall.latency.count", &sys_count1)) << first;
  ASSERT_TRUE(ParseMetricValue(first, "irq.count", &irq1)) << first;
  ASSERT_TRUE(ParseMetricValue(first, "sched.core0.ctx_switches", &ctx1)) << first;
  EXPECT_GT(sys_count1, 0u);
  EXPECT_GT(irq1, 0u);
  EXPECT_GT(ctx1, 0u);

  // More syscalls and more time: every counter moves forward, never back.
  EXPECT_EQ(RunInOs(sys, "obs_more", [](AppEnv& env) -> int {
              usleep_ms(env, 20);
              return 0;
            }),
            0);
  const std::string second = RunAndCapture(sys, "cat", {"/proc/metrics"});
  std::uint64_t sys_count2 = 0, irq2 = 0, ctx2 = 0;
  ASSERT_TRUE(ParseMetricValue(second, "syscall.latency.count", &sys_count2));
  ASSERT_TRUE(ParseMetricValue(second, "irq.count", &irq2));
  ASSERT_TRUE(ParseMetricValue(second, "sched.core0.ctx_switches", &ctx2));
  EXPECT_GT(sys_count2, sys_count1);
  EXPECT_GE(irq2, irq1);
  EXPECT_GE(ctx2, ctx1);

  // Boot plus the programs above exercised every instrumented layer.
  const Metrics& m = sys.kernel().metrics();
  for (const char* hist : {"irq.duration", "sched.runq_wait", "block.req_latency"}) {
    const Histogram* h = m.FindHist(hist);
    ASSERT_NE(h, nullptr) << hist;
    EXPECT_GT(h->count(), 0u) << hist;
  }
  std::uint64_t v = 0;
  EXPECT_TRUE(ParseMetricValue(first, "pmm.free_pages", &v));
  EXPECT_TRUE(ParseMetricValue(first, "block.ramdisk.reads", &v));
}

TEST(ObservabilityBootTest, SleepLatencyHistogramMatchesTheWorkload) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(RunInOs(sys, "obs_sleep", [](AppEnv& env) -> int {
              for (int i = 0; i < 8; ++i) {
                usleep_ms(env, 30);
              }
              return 0;
            }),
            0);
  const Histogram* h = sys.kernel().metrics().FindHist("syscall.sleep.latency");
  ASSERT_NE(h, nullptr);
  ASSERT_GE(h->count(), 8u);
  // A 30 ms sleep's syscall latency is ~30 ms; log2 buckets bound the
  // percentile to within a factor of two.
  EXPECT_GE(h->Percentile(50.0), Ms(8));
  EXPECT_LE(h->Percentile(50.0), Ms(80));
  EXPECT_GE(h->max(), Ms(25));
}

TEST(ObservabilityBootTest, ProcSchedstatReportsPerCoreLines) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(RunInOs(sys, "obs_spin", [](AppEnv& env) -> int {
              usleep_ms(env, 10);
              return 0;
            }),
            0);
  const std::string out = RunAndCapture(sys, "cat", {"/proc/schedstat"});
  std::uint64_t total_switches = 0;
  for (unsigned c = 0; c < sys.options().cores; ++c) {
    const std::string pfx = "core" + std::to_string(c) + ".";
    std::uint64_t switches = 0, idle_pct = 0, v = 0;
    ASSERT_TRUE(ParseMetricValue(out, pfx + "ctx_switches", &switches)) << out;
    ASSERT_TRUE(ParseMetricValue(out, pfx + "idle_pct", &idle_pct)) << out;
    EXPECT_TRUE(ParseMetricValue(out, pfx + "runq_depth", &v)) << out;
    EXPECT_TRUE(ParseMetricValue(out, pfx + "steals", &v)) << out;
    EXPECT_TRUE(ParseMetricValue(out, pfx + "migrations", &v)) << out;
    total_switches += switches;
    EXPECT_LE(idle_pct, 100u);
  }
  EXPECT_GT(total_switches, 0u);
  std::uint64_t v = 0;
  EXPECT_FALSE(ParseMetricValue(out, "core" + std::to_string(sys.options().cores) + ".idle_pct",
                                &v))
      << out;
  // The per-task rows live in /proc/tasks now.
  EXPECT_EQ(out.find("pid "), std::string::npos) << out;
}

TEST(ObservabilityBootTest, DevTraceAndTraceCoreutil) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  // A small ring keeps the serial dump manageable and forces wrap, so the
  // dropped accounting shows up under real traffic too.
  opt.config_hook = [](KernelConfig& cfg) { cfg.trace_ring_capacity = 256; };
  System sys(opt);
  sys.Run(Ms(100));

  const std::string raw = RunAndCapture(sys, "cat", {"/dev/trace"});
  std::vector<TraceRecord> recs;
  // The cat itself appends to the ring after the snapshot; the captured text
  // must still parse as trace records.
  ASSERT_TRUE(ParseTraceText(raw, &recs)) << raw.substr(0, 400);
  EXPECT_FALSE(recs.empty());
  EXPECT_GT(sys.kernel().trace().total_emitted(), 0u);

  // The coreutil converts the same dump to Chrome trace JSON in-OS.
  const std::string json = RunAndCapture(sys, "trace", {});
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos) << json.substr(0, 200);
  EXPECT_NE(json.find("\"cat\":\"kernel\""), std::string::npos);

  // Boot emits far more than 4*256 events, so the small ring must wrap.
  std::uint64_t dropped = 0;
  const std::string metrics = RunAndCapture(sys, "cat", {"/proc/metrics"});
  ASSERT_TRUE(ParseMetricValue(metrics, "trace.dropped", &dropped));
  EXPECT_GT(dropped, 0u);
  // The ring kept filling after the gauge was sampled, so the live count can
  // only have grown.
  EXPECT_LE(dropped, sys.kernel().trace().total_dropped());
}

TEST(ObservabilityBootTest, BlkstatAndMemstatStayCoherentWithMetrics) {
  System sys(OptionsForStage(Stage::kProto5));
  sys.Run(Ms(50));
  // /proc/blkstat, /proc/schedstat and netstat's counter lines are the
  // block.*, sched.* and net.* slices of the registry, and /proc/memstat the
  // pmm.* then slab.* slices: every line of them, with its prefix put back,
  // must appear verbatim in /proc/metrics. One task snapshots the files back
  // to back (procfs snapshots at open, and no block I/O, allocation, switch
  // or frame runs between the opens).
  const std::size_t before = sys.SerialOutput().size();
  ASSERT_EQ(RunInOs(sys, "blk_coherence", [](AppEnv& env) -> int {
              std::string out;
              for (const char* path : {"/proc/blkstat", "/proc/memstat", "/proc/schedstat",
                                       "/proc/netstat", "/proc/metrics"}) {
                std::vector<std::uint8_t> raw;
                if (uread_file(env, path, &raw) < 0) {
                  return 1;
                }
                out += std::string(raw.begin(), raw.end()) + "--\n";
              }
              uputs(env, out);
              return 0;
            }),
            0);
  const std::string out = sys.SerialOutput().substr(before);
  std::vector<std::string> files;
  for (std::size_t pos = 0, sep; (sep = out.find("--\n", pos)) != std::string::npos;
       pos = sep + 3) {
    files.push_back(out.substr(pos, sep - pos));
  }
  ASSERT_EQ(files.size(), 5u) << out;
  const std::string& blk = files[0];
  const std::string& mem = files[1];
  const std::string& sched = files[2];
  const std::string& net = files[3];
  // Every metrics line is "\n"-led.
  const std::string metrics = "\n" + files[4];
  // Counts the lines of `text`, each of which must appear in /proc/metrics
  // under `prefix`. netstat's address line and TCB rows are its own, not
  // registry lines.
  auto coherent_lines = [&](const std::string& text, const std::string& prefix) {
    std::istringstream lines(text);
    std::string line;
    int n = 0;
    while (std::getline(lines, line)) {
      if (line.rfind("ip ", 0) == 0 || line.rfind("tcb ", 0) == 0) {
        continue;
      }
      EXPECT_NE(metrics.find("\n" + prefix + line + "\n"), std::string::npos)
          << prefix << line;
      ++n;
    }
    return n;
  };
  EXPECT_GE(coherent_lines(blk, "block."), 13) << blk;  // the ramdisk's 13 per-device counters
  EXPECT_NE(blk.find("ramdisk.reads "), std::string::npos) << blk;
  // 5 gauges plus idle_pct per core, and the runq_wait/slice_len summaries.
  EXPECT_GE(coherent_lines(sched, "sched."), static_cast<int>(6 * sys.options().cores)) << sched;
  // The net.* slice: 19 stack counters, 9 NIC gauges, sockets and tcbs.
  EXPECT_EQ(net.rfind("ip ", 0), 0u) << net;
  EXPECT_GE(coherent_lines(net, "net."), 30) << net;
  std::istringstream mem_lines(mem);
  std::string line;
  int pmm_lines = 0;
  int slab_lines = 0;
  while (std::getline(mem_lines, line)) {
    if (metrics.find("\npmm." + line + "\n") != std::string::npos) {
      ++pmm_lines;
    } else if (metrics.find("\nslab." + line + "\n") != std::string::npos) {
      ++slab_lines;
    } else {
      ADD_FAILURE() << "memstat line not in /proc/metrics: " << line;
    }
  }
  EXPECT_GE(pmm_lines, 12) << mem;  // 11 totals and op counters, plus orders
  EXPECT_GE(slab_lines, 6) << mem;  // per-class, per-core and large-path gauges
}

}  // namespace
}  // namespace vos
