// vosbench: one measured iteration of one workload against a fresh vos
// System, driven only through the public System/Kernel API (see README.md).
//
// Two kinds of per-layer numbers are taken from outside the program:
//  - spans the benchmark records around each ulib call its own workload code
//    makes (traced runs only; recording costs no virtual time), and
//  - snapshots of the kernel metrics registry and machine busy/idle clocks
//    at the bounds of the measured window.
#ifndef VOSBENCH_VOSBENCH_H_
#define VOSBENCH_VOSBENCH_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/base/histogram.h"
#include "src/vos/system.h"

namespace vosbench {

using vos::Cycles;

// Host monotonic clock, ns.
std::int64_t HostNs();
// CPU time of the whole process (every simulator thread), ns. Host-time
// metrics use it: vos runs one host thread at a time, so it equals wall time
// on an idle CPU but ignores time other processes take from that CPU.
std::int64_t CpuNs();

// Virtual µs from `a` to `b`. Signed: a task woken by another core's timer
// can start slightly before its due time (the machine loop runs cores one
// after another over each event window).
inline double VirtUs(Cycles a, Cycles b) {
  return static_cast<double>(static_cast<std::int64_t>(b - a)) / 1e3;
}

// Exact percentile of a sample set (linear interpolation between ranks).
double Pct(std::vector<double> v, double p);

// splitmix64: seeds every generated input, so one --seed gives one input set.
// Each (seed, stream) pair starts from a hashed state, so neighbouring seeds
// do not give shifted copies of one sequence.
class Rng {
 public:
  Rng(std::uint64_t seed, std::uint64_t stream)
      : s_(Mix(seed ^ Mix(stream + 0x632BE59BD9B4E019ull))) {}
  std::uint64_t Next() { return Mix(s_ += 0x9E3779B97F4A7C15ull); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Exp(double mean);

 private:
  static std::uint64_t Mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t s_;
};

// One recorded span. `op` groups the spans of one request or file operation;
// a "parent" span (kv.request, fs.write_op, ...) covers its op end to end.
struct Span {
  const char* name;
  int lane;  // client task index
  std::uint64_t op;
  Cycles v0, v1;          // virtual ns (gen.late may end before it starts)
  std::int64_t h0, h1;    // host ns
  bool parent;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  // Runs one ulib call, recording a span around it when tracing is on.
  template <class F>
  std::int64_t Call(vos::Kernel* k, const char* name, int lane, std::uint64_t op, F&& f) {
    if (!on_) {
      return f();
    }
    Cycles v0 = k->Now();
    std::int64_t h0 = HostNs();
    std::int64_t r = f();
    spans_.push_back(Span{name, lane, op, v0, k->Now(), h0, HostNs(), false});
    return r;
  }
  // Records a span measured by the caller (parent spans, generator lateness).
  void Add(const char* name, int lane, std::uint64_t op, Cycles v0, Cycles v1, bool parent) {
    if (on_) {
      std::int64_t h = HostNs();
      spans_.push_back(Span{name, lane, op, v0, v1, h, h, parent});
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool on_;
  std::vector<Span> spans_;
};

// Registry + machine state at one instant.
struct Snapshot {
  struct Hist {
    std::array<std::uint64_t, vos::Histogram::kNumBuckets> buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
  };
  std::map<std::string, std::uint64_t> values;  // counters and gauges
  std::map<std::string, Hist> hists;
  Cycles busy = 0, idle = 0;  // summed over cores
  Cycles vnow = 0;
  std::int64_t hnow = 0;  // HostNs
  std::int64_t cnow = 0;  // CpuNs
};

// Snapshot of the registry names vosbench reads. Safe from the host thread
// or from a task fiber (gauges are evaluated as a /proc/metrics read does).
Snapshot TakeSnapshot(vos::Kernel& k);

// What one workload iteration produced.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, bool> checks;
  // Virtual-time results; identical for one seed on every run.
  std::map<std::string, double> virt;
  // Workload-specific per-layer results (virtual unless named *_host_*).
  std::map<std::string, double> layers;
  double ops = 0;  // operations completed in the window (per-op denominators)
  Snapshot w0, w1;  // the measured window
  std::int64_t harness_ns = 0;  // host time the benchmark spent on itself in the window
};

struct Ctx {
  vos::System* sys = nullptr;
  std::uint64_t seed = 1;
  double scale = 1.0;  // multiplies operation counts (tests run short)
  SpanLog log{false};
  bool makes_calls = false;  // the workload's own code calls ulib (spans expected)
  Outcome out;
};

vos::SystemOptions OptionsFor(const std::string& workload);
void RunKvHttp(Ctx& c);
void RunKvLossy(Ctx& c);
void RunFsMix(Ctx& c);
void RunMediaMix(Ctx& c);

}  // namespace vosbench

#endif  // VOSBENCH_VOSBENCH_H_
