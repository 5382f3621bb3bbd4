// Event tracing (§5.1): an ftrace-inspired per-core ring of timestamped
// events with negligible overhead, dumped on demand. Fig 11's latency
// breakdowns are computed from these records.
//
// Emit is lock-free: each core owns a single-producer ring (the simulator's
// token serialization guarantees one producer per core; the bench drives one
// host thread per core, which is the same contract). A per-core seqlock lets
// Dump take a consistent snapshot without ever stalling a producer; when the
// ring wraps, the overwritten records are counted in a per-core `dropped`
// counter so readers know the window is partial.
#ifndef VOS_SRC_KERNEL_TRACE_H_
#define VOS_SRC_KERNEL_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/units.h"
#include "src/hw/intc.h"

namespace vos {

enum class TraceEvent : std::uint16_t {
  kSyscallEnter = 1,
  kSyscallExit,
  kCtxSwitch,
  kIrqEnter,
  kIrqExit,
  kSleep,
  kWakeup,
  kUserMark,     // app-defined markers (frame start/end, input seen...)
  kKeyEvent,     // input pipeline stamps
  kWmComposite,
  kPageFault,
  kBlockRead,    // block layer: device read (a=lba, b=count)
  kBlockWrite,   // block layer: device write (a=lba, b=count)
  kBlockFlush,   // block layer: dirty write-back flushed (a=lba, b=count)
  kPmmAlloc,     // buddy allocator: pages handed out (a=pa, b=npages)
  kPmmFree,      // buddy allocator: pages returned (a=pa, b=npages)
  kPmmOom,       // allocation failed (a=npages requested, b=pages still free)
  kSlabRefill,   // per-core cache refilled from the depot (a=class size, b=objs)
  kBlockError,   // block layer: request failed after retries (a=lba, b=status)
  kRaceReport,   // racedet: lockset went empty (a=shadow addr, b=report index)
  kJrnlCommit,     // journal: commit record durable (a=seq, b=data blocks)
  kJrnlCheckpoint, // journal: batches drained to home (a=first seq, b=blocks)
  kProfSample,     // profiler: stack sample folded (a=stack hash, b=weight)
  kWatchdogBark,   // watchdog: hung task / stalled core (a=stalled-for cycles,
                   // b=core) — pid is the offender (-1 = core-level stall)
  kNetRx,          // net: frame drained from the NIC RX ring (a=frame bytes)
  kNetTx,          // net: frame posted to the NIC TX ring (a=frame bytes)
};

struct TraceRecord {
  Cycles ts = 0;
  std::uint16_t core = 0;
  TraceEvent event = TraceEvent::kUserMark;
  std::int32_t pid = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

class TraceRing {
 public:
  explicit TraceRing(std::size_t per_core_capacity = 16384);

  // Lock-free hot path: one producer per core (token-serialized in the
  // simulator). Safe to call from IRQ context and inside any spinlock.
  void Emit(Cycles ts, unsigned core, TraceEvent ev, std::int32_t pid, std::uint64_t a = 0,
            std::uint64_t b = 0);

  // Merged, time-ordered dump of all cores' rings (seqlock snapshot).
  std::vector<TraceRecord> Dump() const;

  // Filtered dump.
  std::vector<TraceRecord> DumpEvent(TraceEvent ev) const;

  void Clear();
  std::size_t capacity() const { return cap_; }
  std::uint64_t total_emitted() const;
  // Records overwritten by ring wrap since the last Clear().
  std::uint64_t dropped(unsigned core) const;
  std::uint64_t total_dropped() const;
  // Seqlock snapshot retries Dump() has performed (reader observed a torn or
  // superseded window and re-read). The seqlock torture test asserts this
  // goes positive while a writer races the reader.
  std::uint64_t dump_retries() const {
    return dump_retries_.load(std::memory_order_relaxed);
  }

  static std::string EventName(TraceEvent ev);
  static bool EventFromName(const std::string& name, TraceEvent* out);

 private:
  // One cache line of cursors per core so producers never share a line.
  // The head cursor counts every record written since Clear, so the derived
  // stats cost nothing on the hot path: emitted == head, and dropped ==
  // max(0, head - capacity) — once the ring is full, every write evicts one.
  //
  // racedet policy: these fields are deliberately NOT in the shared set. The
  // ring is the canonical intentionally-lock-free structure (seqlock writer,
  // wrapping reader); a lockset checker has nothing true to say about it, and
  // RD_* calls on the Emit hot path would also recurse through the racedet
  // trace hook. The seqlock torture test covers it dynamically; its payload
  // words are atomic accesses, so TSan checks it with no suppression.
  struct alignas(64) CoreRing {
    std::atomic<std::uint64_t> head{0};  // total records written since Clear
    std::atomic<std::uint64_t> seq{0};   // seqlock: odd while a write is in flight
    std::uint64_t next_slot = 0;         // producer-only: head % capacity
    std::vector<TraceRecord> slots;
  };

  std::size_t cap_;
  // Dump() is logically const; retry accounting is observability metadata.
  mutable std::atomic<std::uint64_t> dump_retries_{0};
  std::array<CoreRing, kMaxCores> rings_;
};

// Text dump format: one record per line, "ts core event pid a b" (event by
// name). This is what /dev/trace serves and tools/trace2perfetto.py reads.
std::string FormatTraceText(const std::vector<TraceRecord>& recs);
bool ParseTraceText(const std::string& text, std::vector<TraceRecord>* out);

// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing):
// syscall and IRQ enter/exit pairs become duration (B/E) events, everything
// else instant events; tid = core, ts in microseconds.
std::string FormatChromeTrace(const std::vector<TraceRecord>& recs);

}  // namespace vos

#endif  // VOS_SRC_KERNEL_TRACE_H_
