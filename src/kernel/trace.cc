#include "src/kernel/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace vos {

namespace {
// Seqlock payload accesses. Each field of a slot is an atomic access of its
// own: release stores on the writer side order the odd seq before every
// payload word, and acquire loads on the reader side order every payload
// word before the seq re-check. That is the whole seqlock protocol in the
// language's memory model, with no standalone fence (Boehm, "Can seqlocks
// get along with programming language memory models?", MSPC '12). On x86
// both compile to plain moves.
template <typename T>
void StorePayload(T& field, T v) {
  std::atomic_ref<T>(field).store(v, std::memory_order_release);
}

template <typename T>
T LoadPayload(const T& field) {
  return std::atomic_ref<T>(const_cast<T&>(field)).load(std::memory_order_acquire);
}

void StoreRecord(TraceRecord& dst, const TraceRecord& src) {
  StorePayload(dst.ts, src.ts);
  StorePayload(dst.core, src.core);
  StorePayload(dst.event, src.event);
  StorePayload(dst.pid, src.pid);
  StorePayload(dst.a, src.a);
  StorePayload(dst.b, src.b);
}

TraceRecord LoadRecord(const TraceRecord& src) {
  TraceRecord r;
  r.ts = LoadPayload(src.ts);
  r.core = LoadPayload(src.core);
  r.event = LoadPayload(src.event);
  r.pid = LoadPayload(src.pid);
  r.a = LoadPayload(src.a);
  r.b = LoadPayload(src.b);
  return r;
}
}  // namespace

TraceRing::TraceRing(std::size_t per_core_capacity)
    : cap_(per_core_capacity == 0 ? 1 : per_core_capacity) {
  for (auto& r : rings_) {
    r.slots.resize(cap_);
  }
}

void TraceRing::Emit(Cycles ts, unsigned core, TraceEvent ev, std::int32_t pid, std::uint64_t a,
                     std::uint64_t b) {
  if (core >= kMaxCores) {
    return;
  }
  CoreRing& r = rings_[core];
  // Seqlock write side: odd while the slot is torn. Single producer per core,
  // so every cursor update is a plain load+store — no RMW, no CAS, no lock.
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  const std::uint64_t s = r.seq.load(std::memory_order_relaxed);
  r.seq.store(s + 1, std::memory_order_relaxed);
  // The odd seq must be visible before the slot is torn: each payload store
  // is a release, so none of them can move above the seq store (the job the
  // Linux seqlock gives smp_wmb). next_slot tracks head % cap_ without the
  // division (producer-only state).
  StoreRecord(r.slots[r.next_slot],
              TraceRecord{ts, static_cast<std::uint16_t>(core), ev, pid, a, b});
  r.next_slot = r.next_slot + 1 == cap_ ? 0 : r.next_slot + 1;
  // Both release stores: the slot contents precede the new head and the
  // even seq that publishes them.
  r.head.store(h + 1, std::memory_order_release);
  r.seq.store(s + 2, std::memory_order_release);
}

std::vector<TraceRecord> TraceRing::Dump() const {
  std::vector<TraceRecord> out;
  std::vector<TraceRecord> tmp;
  for (const CoreRing& r : rings_) {
    for (;;) {
      std::uint64_t s0 = r.seq.load(std::memory_order_acquire);
      if (s0 & 1) {
        dump_retries_.fetch_add(1, std::memory_order_relaxed);
        continue;  // writer mid-record; retry
      }
      std::uint64_t h = r.head.load(std::memory_order_acquire);
      std::uint64_t n = std::min<std::uint64_t>(h, cap_);
      tmp.clear();
      // Acquire loads: no payload read can drift below the seq re-check.
      for (std::uint64_t i = 0; i < n; ++i) {
        tmp.push_back(LoadRecord(r.slots[(h - n + i) % cap_]));
      }
      // Unchanged seq == nothing was overwritten under us; keep the snapshot.
      if (r.seq.load(std::memory_order_relaxed) == s0) {
        out.insert(out.end(), tmp.begin(), tmp.end());
        break;
      }
      dump_retries_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceRecord& a, const TraceRecord& b) { return a.ts < b.ts; });
  return out;
}

std::vector<TraceRecord> TraceRing::DumpEvent(TraceEvent ev) const {
  std::vector<TraceRecord> all = Dump();
  std::vector<TraceRecord> out;
  for (const TraceRecord& r : all) {
    if (r.event == ev) {
      out.push_back(r);
    }
  }
  return out;
}

void TraceRing::Clear() {
  for (auto& r : rings_) {
    r.seq.fetch_add(1, std::memory_order_acq_rel);
    r.head.store(0, std::memory_order_relaxed);
    r.next_slot = 0;
    r.seq.fetch_add(1, std::memory_order_release);
  }
}

std::uint64_t TraceRing::total_emitted() const {
  std::uint64_t t = 0;
  for (const CoreRing& r : rings_) {
    t += r.head.load(std::memory_order_relaxed);
  }
  return t;
}

std::uint64_t TraceRing::dropped(unsigned core) const {
  if (core >= kMaxCores) {
    return 0;
  }
  const std::uint64_t h = rings_[core].head.load(std::memory_order_relaxed);
  return h > cap_ ? h - cap_ : 0;
}

std::uint64_t TraceRing::total_dropped() const {
  std::uint64_t t = 0;
  for (unsigned c = 0; c < kMaxCores; ++c) {
    t += dropped(c);
  }
  return t;
}

std::string TraceRing::EventName(TraceEvent ev) {
  switch (ev) {
    case TraceEvent::kSyscallEnter:
      return "syscall_enter";
    case TraceEvent::kSyscallExit:
      return "syscall_exit";
    case TraceEvent::kCtxSwitch:
      return "ctx_switch";
    case TraceEvent::kIrqEnter:
      return "irq_enter";
    case TraceEvent::kIrqExit:
      return "irq_exit";
    case TraceEvent::kSleep:
      return "sleep";
    case TraceEvent::kWakeup:
      return "wakeup";
    case TraceEvent::kUserMark:
      return "user_mark";
    case TraceEvent::kKeyEvent:
      return "key_event";
    case TraceEvent::kWmComposite:
      return "wm_composite";
    case TraceEvent::kPageFault:
      return "page_fault";
    case TraceEvent::kBlockRead:
      return "block_read";
    case TraceEvent::kBlockWrite:
      return "block_write";
    case TraceEvent::kBlockFlush:
      return "block_flush";
    case TraceEvent::kPmmAlloc:
      return "pmm_alloc";
    case TraceEvent::kPmmFree:
      return "pmm_free";
    case TraceEvent::kPmmOom:
      return "pmm_oom";
    case TraceEvent::kSlabRefill:
      return "slab_refill";
    case TraceEvent::kBlockError:
      return "block_error";
    case TraceEvent::kRaceReport:
      return "race_report";
    case TraceEvent::kJrnlCommit:
      return "jrnl_commit";
    case TraceEvent::kJrnlCheckpoint:
      return "jrnl_checkpoint";
    case TraceEvent::kProfSample:
      return "prof_sample";
    case TraceEvent::kWatchdogBark:
      return "watchdog_bark";
    case TraceEvent::kNetRx:
      return "net_rx";
    case TraceEvent::kNetTx:
      return "net_tx";
  }
  return "?";
}

namespace {
// Every enumerator, for name->event lookup. tools/lint_trace_events.py keeps
// the enum, the EventName switch, and this table in lockstep.
constexpr TraceEvent kAllTraceEvents[] = {
    TraceEvent::kSyscallEnter, TraceEvent::kSyscallExit, TraceEvent::kCtxSwitch,
    TraceEvent::kIrqEnter,     TraceEvent::kIrqExit,     TraceEvent::kSleep,
    TraceEvent::kWakeup,       TraceEvent::kUserMark,    TraceEvent::kKeyEvent,
    TraceEvent::kWmComposite,  TraceEvent::kPageFault,   TraceEvent::kBlockRead,
    TraceEvent::kBlockWrite,   TraceEvent::kBlockFlush,  TraceEvent::kPmmAlloc,
    TraceEvent::kPmmFree,      TraceEvent::kPmmOom,      TraceEvent::kSlabRefill,
    TraceEvent::kBlockError,   TraceEvent::kRaceReport,  TraceEvent::kJrnlCommit,
    TraceEvent::kJrnlCheckpoint, TraceEvent::kProfSample, TraceEvent::kWatchdogBark,
    TraceEvent::kNetRx,        TraceEvent::kNetTx,
};
}  // namespace

bool TraceRing::EventFromName(const std::string& name, TraceEvent* out) {
  for (TraceEvent ev : kAllTraceEvents) {
    if (EventName(ev) == name) {
      *out = ev;
      return true;
    }
  }
  return false;
}

std::string FormatTraceText(const std::vector<TraceRecord>& recs) {
  std::string out;
  char line[160];
  for (const TraceRecord& r : recs) {
    std::snprintf(line, sizeof(line), "%" PRIu64 " %u %s %d %" PRIu64 " %" PRIu64 "\n",
                  static_cast<std::uint64_t>(r.ts), r.core, TraceRing::EventName(r.event).c_str(),
                  r.pid, r.a, r.b);
    out += line;
  }
  return out;
}

bool ParseTraceText(const std::string& text, std::vector<TraceRecord>* out) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::uint64_t ts = 0, a = 0, b = 0;
    unsigned core = 0;
    int pid = 0;
    char name[64] = {0};
    if (std::sscanf(line.c_str(), "%" SCNu64 " %u %63s %d %" SCNu64 " %" SCNu64, &ts, &core, name,
                    &pid, &a, &b) != 6) {
      return false;
    }
    TraceEvent ev;
    if (!TraceRing::EventFromName(name, &ev)) {
      return false;
    }
    out->push_back(TraceRecord{ts, static_cast<std::uint16_t>(core), ev, pid, a, b});
  }
  return true;
}

std::string FormatChromeTrace(const std::vector<TraceRecord>& recs) {
  std::string out = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const TraceRecord& r : recs) {
    // Syscall and IRQ brackets become duration events so Perfetto renders
    // spans; the rest are instant events. A wrapped ring can lose one half of
    // a pair — viewers tolerate unmatched B/E, and the JSON stays valid.
    std::string name;
    char ph = 'I';
    if (r.event == TraceEvent::kSyscallEnter || r.event == TraceEvent::kSyscallExit) {
      name = "syscall_" + std::to_string(r.a);
      ph = r.event == TraceEvent::kSyscallEnter ? 'B' : 'E';
    } else if (r.event == TraceEvent::kIrqEnter || r.event == TraceEvent::kIrqExit) {
      name = "irq_" + std::to_string(r.a);
      ph = r.event == TraceEvent::kIrqEnter ? 'B' : 'E';
    } else {
      name = TraceRing::EventName(r.event);
    }
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"kernel\",\"ph\":\"%c\",\"ts\":%.3f,"
                  "\"pid\":%d,\"tid\":%u%s,\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64 "}}",
                  first ? "" : ",", name.c_str(), ph,
                  static_cast<double>(r.ts) / 1000.0, r.pid, r.core,
                  ph == 'I' ? ",\"s\":\"t\"" : "", r.a, r.b);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

}  // namespace vos
