#include "src/kernel/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "src/base/status.h"
#include "src/kernel/racedet.h"

namespace vos {

MetricCounter* Metrics::Counter(const std::string& name) {
  SpinGuard g(lock_);
  auto& slot = RD_WRITE(counters_)[name];
  if (slot == nullptr) {
    slot = std::make_unique<MetricCounter>();
  }
  return slot.get();
}

Histogram* Metrics::Hist(const std::string& name) {
  SpinGuard g(lock_);
  auto& slot = RD_WRITE(hists_)[name];
  if (slot == nullptr) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

void Metrics::Gauge(const std::string& name, GaugeFn fn) {
  SpinGuard g(lock_);
  RD_WRITE(gauges_)[name] = std::move(fn);
}

bool Metrics::Value(const std::string& name, std::uint64_t* out) const {
  GaugeFn fn;
  {
    SpinGuard g(lock_);
    auto c = RD_READ(counters_).find(name);
    if (c != RD_READ(counters_).end()) {
      *out = c->second->value();
      return true;
    }
    auto gi = RD_READ(gauges_).find(name);
    if (gi == RD_READ(gauges_).end()) {
      return false;
    }
    fn = gi->second;
  }
  // Evaluated outside the metrics lock: gauge callbacks take subsystem locks.
  *out = fn();
  return true;
}

const Histogram* Metrics::FindHist(const std::string& name) const {
  SpinGuard g(lock_);
  auto it = RD_READ(hists_).find(name);
  return it == RD_READ(hists_).end() ? nullptr : it->second.get();
}

namespace {
// Appends (name minus prefix, value) for every entry of a name-sorted map
// whose name starts with `prefix`.
template <typename Map, typename Out, typename Fn>
void CollectUnder(const Map& m, const std::string& prefix, Out* out, Fn value) {
  for (auto it = m.lower_bound(prefix); it != m.end() && it->first.starts_with(prefix); ++it) {
    out->emplace_back(it->first.substr(prefix.size()), value(it->second));
  }
}
}  // namespace

std::string Metrics::ExportText(const std::string& prefix) const {
  // Snapshot the maps under the lock, evaluate gauges after releasing it
  // (see the header comment: metrics must stay a lockdep leaf).
  std::vector<std::pair<std::string, const MetricCounter*>> counters;
  std::vector<std::pair<std::string, const Histogram*>> hists;
  std::vector<std::pair<std::string, GaugeFn>> gauges;
  {
    SpinGuard g(lock_);
    CollectUnder(RD_READ(counters_), prefix, &counters, [](const auto& c) { return c.get(); });
    CollectUnder(RD_READ(hists_), prefix, &hists, [](const auto& h) { return h.get(); });
    CollectUnder(RD_READ(gauges_), prefix, &gauges, [](const GaugeFn& fn) { return fn; });
  }
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  for (const auto& [name, c] : counters) {
    lines.emplace_back(name, c->value());
  }
  for (const auto& [name, fn] : gauges) {
    lines.emplace_back(name, fn());
  }
  for (const auto& [name, h] : hists) {
    if (h->count() == 0) {
      continue;
    }
    lines.emplace_back(name + ".count", h->count());
    lines.emplace_back(name + ".sum", h->sum());
    lines.emplace_back(name + ".p50", h->Percentile(50));
    lines.emplace_back(name + ".p95", h->Percentile(95));
    lines.emplace_back(name + ".p99", h->Percentile(99));
    lines.emplace_back(name + ".max", h->max());
    if (buckets_.load(std::memory_order_relaxed)) {
      // Sparse raw buckets: only occupied ones, so the file stays readable.
      for (int i = 0; i < Histogram::kNumBuckets; ++i) {
        std::uint64_t n = h->BucketCount(i);
        if (n != 0) {
          lines.emplace_back(name + ".bucket" + std::to_string(i), n);
        }
      }
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  char buf[160];
  for (const auto& [name, v] : lines) {
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 "\n", name.c_str(), v);
    out += buf;
  }
  return out;
}

std::int64_t Metrics::Command(const std::string& text) {
  // Strip trailing whitespace/newline from echo-style writers.
  std::string cmd = text;
  while (!cmd.empty() && (cmd.back() == '\n' || cmd.back() == ' ')) {
    cmd.pop_back();
  }
  if (cmd == "buckets on") {
    buckets_.store(true, std::memory_order_relaxed);
    return 0;
  }
  if (cmd == "buckets off") {
    buckets_.store(false, std::memory_order_relaxed);
    return 0;
  }
  return kErrInval;
}

}  // namespace vos
