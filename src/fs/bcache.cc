#include "src/fs/bcache.h"

#include <algorithm>
#include <bit>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/metrics.h"
#include "src/kernel/racedet.h"

namespace vos {

int Bcache::AddDevice(BlockDevice* dev, const std::string& name) {
  int id;
  {
    SpinGuard g(lock_);
    queues_.emplace_back(dev);
    queues_.back().SetLatencyHist(latency_hist_);
    pending_error_.push_back(0);
    dirty_count_.push_back(0);
    pinned_count_.push_back(0);
    BlockDevStats st;
    st.name = name.empty() ? "dev" + std::to_string(queues_.size() - 1) : name;
    stats_.push_back(std::move(st));
    id = static_cast<int>(queues_.size()) - 1;
  }
  if (metrics_ != nullptr) {
    RegisterDevMetrics(id);
  }
  return id;
}

void Bcache::RegisterMetrics(Metrics& m) {
  VOS_CHECK_MSG(queues_.empty(), "bcache metrics are registered before the first device");
  metrics_ = &m;
  latency_hist_ = m.Hist("block.req_latency");
}

void Bcache::RegisterDevMetrics(int dev) {
  // Gauges are sampled outside the metrics lock, so stats(dev) taking the
  // bcache lock in the callback keeps "metrics" a lockdep leaf. Registration
  // itself runs outside the bcache lock for the same reason.
  Metrics& m = *metrics_;
  std::string pfx = "block." + stats(dev).name + ".";
  m.Gauge(pfx + "reads", [this, dev] { return stats(dev).reads; });
  m.Gauge(pfx + "writes", [this, dev] { return stats(dev).writes; });
  m.Gauge(pfx + "blocks_read", [this, dev] { return stats(dev).blocks_read; });
  m.Gauge(pfx + "blocks_written", [this, dev] { return stats(dev).blocks_written; });
  m.Gauge(pfx + "hits", [this, dev] { return stats(dev).hits; });
  m.Gauge(pfx + "misses", [this, dev] { return stats(dev).misses; });
  m.Gauge(pfx + "writebacks", [this, dev] { return stats(dev).writebacks; });
  m.Gauge(pfx + "merged", [this, dev] { return stats(dev).merged; });
  m.Gauge(pfx + "queue_depth_hw",
          [this, dev] { return static_cast<std::uint64_t>(stats(dev).queue_depth_hw); });
  m.Gauge(pfx + "dirty", [this, dev] { return static_cast<std::uint64_t>(DirtyCount(dev)); });
  m.Gauge(pfx + "io_retries", [this, dev] { return stats(dev).io_retries; });
  m.Gauge(pfx + "io_errors", [this, dev] { return stats(dev).io_errors; });
  m.Gauge(pfx + "io_timeouts", [this, dev] { return stats(dev).io_timeouts; });
}

void Bcache::Touch(Buf* b) {
  if (b->lru_hook.linked()) {
    lru_.Remove(b);
  }
  lru_.PushFront(b);
}

namespace {
// Home slot of (dev, lba) in an index of 2^bits slots.
std::size_t IndexSlot(int dev, std::uint64_t lba, int bits) {
  const std::uint64_t key = lba ^ (static_cast<std::uint64_t>(dev) << 56);
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> (64 - bits));
}

// Moves `bit` into or out of `set`; reports whether membership changed.
bool SetBit(std::uint64_t& set, std::uint64_t bit, bool in) {
  if (((set & bit) != 0) == in) {
    return false;
  }
  set ^= bit;
  return true;
}
}  // namespace

Buf* Bcache::Lookup(int dev, std::uint64_t lba) const {
  constexpr std::size_t kMask = (1 << kIndexBits) - 1;
  for (std::size_t i = IndexSlot(dev, lba, kIndexBits);; i = (i + 1) & kMask) {
    Buf* b = index_[i];
    if (b == nullptr || (b->dev == dev && b->lba == lba)) {
      return b;
    }
  }
}

void Bcache::IndexInsert(Buf* b) {
  constexpr std::size_t kMask = (1 << kIndexBits) - 1;
  std::size_t i = IndexSlot(b->dev, b->lba, kIndexBits);
  while (index_[i] != nullptr) {
    i = (i + 1) & kMask;
  }
  index_[i] = b;
}

void Bcache::IndexErase(Buf* b) {
  constexpr std::size_t kMask = (1 << kIndexBits) - 1;
  std::size_t hole = IndexSlot(b->dev, b->lba, kIndexBits);
  while (index_[hole] != b) {
    hole = (hole + 1) & kMask;
  }
  // Backward-shift deletion: pull each later entry of the probe run into the
  // hole unless its home slot lies cyclically in (hole, j].
  for (std::size_t j = (hole + 1) & kMask; index_[j] != nullptr; j = (j + 1) & kMask) {
    const std::size_t home = IndexSlot(index_[j]->dev, index_[j]->lba, kIndexBits);
    if (((j - home) & kMask) >= ((j - hole) & kMask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = nullptr;
}

void Bcache::Sync(Buf* b) {
  const std::uint64_t bit = std::uint64_t{1} << (b - bufs_.data());
  if (SetBit(indexed_, bit, b->valid)) {
    if (b->valid) {
      IndexInsert(b);
    } else {
      IndexErase(b);
    }
  }
  SetBit(free_, bit, !b->valid && b->refcnt == 0);
  // Counted under b->dev: a set bit implies valid, and dev is fixed while valid.
  const bool in_dirty_set = b->valid && b->dirty && !b->jpinned;  // racedet: ok (bookkeeping mirror; callers hold lock_)
  if (SetBit(dirty_, bit, in_dirty_set)) {
    std::uint32_t& n = dirty_count_[static_cast<std::size_t>(b->dev)];
    n = in_dirty_set ? n + 1 : n - 1;
  }
  const bool in_pinned_set = b->valid && b->jpinned;  // racedet: ok (bookkeeping mirror; callers hold lock_)
  if (SetBit(pinned_, bit, in_pinned_set)) {
    std::uint32_t& n = pinned_count_[static_cast<std::size_t>(b->dev)];
    n = in_pinned_set ? n + 1 : n - 1;
  }
}

Cycles Bcache::FlushBufs(int dev, std::vector<Buf*>& bufs) {
  RD_ASSERT_HELD(lock_);
  if (bufs.empty()) {
    return 0;
  }
  auto& q = queues_[static_cast<std::size_t>(dev)];
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  std::vector<BlockRequest> reqs(bufs.size());
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    VOS_CHECK_MSG(bufs[i]->valid && RD_READ(bufs[i]->dirty) && bufs[i]->dev == dev,
                  "flushing a buffer that is not dirty on this device");
    VOS_CHECK_MSG(!RD_READ(bufs[i]->jpinned),
                  "flushing a journal-pinned buffer bypasses the log ordering");
    reqs[i].op = BlockOp::kWrite;
    reqs[i].lba = bufs[i]->lba;
    reqs[i].count = 1;
    reqs[i].buf = bufs[i]->data.data();
    q.Submit(&reqs[i]);
  }
  Cycles dev_time = q.CompleteAll();
  std::size_t flushed = 0;
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    Buf* b = bufs[i];
    // Either way the buffer leaves the dirty set: a block the device refuses
    // after retries must not be silently re-flushed forever. On failure the
    // data is dropped, io_failed marks the buffer, and the error latches in
    // the device's pending error so the next sync/fsync reports kErrIo.
    RD_WRITE(b->dirty) = false;
    Sync(b);
    if (reqs[i].status == BlockStatus::kOk) {
      b->io_failed = false;
      ++flushed;
      Trace(TraceEvent::kBlockFlush, b->lba, 1);
    } else {
      b->io_failed = true;
      pending_error_[static_cast<std::size_t>(dev)] = kErrIo;
      Trace(TraceEvent::kBlockError, b->lba,
            static_cast<std::uint64_t>(reqs[i].status));
    }
  }
  st.writebacks += flushed;
  st.writes += flushed;
  st.blocks_written += flushed;
  return dev_time + Cycles(bufs.size()) * cfg_.cost.bcache_flush_work;
}

Buf* Bcache::FindOrRecycle(int dev, std::uint64_t lba, Cycles* burn) {
  if (Buf* hit = Lookup(dev, lba)) {
    return hit;
  }
  // An unused slot first, lowest index first (never-cached buffers live
  // outside the LRU list).
  if (free_ != 0) {
    Buf* b = &bufs_[static_cast<std::size_t>(std::countr_zero(free_))];
    b->dev = dev;
    b->lba = lba;
    return b;
  }
  // Recycle, preferring a clean unreferenced buffer (LRU order) so hot dirty
  // data survives; fall back to evicting the LRU dirty one, which must be
  // written back first — a dirty buffer is never recycled without a flush.
  // Journal-pinned buffers are not candidates at all: recycling one would
  // resurrect stale home contents on the next read.
  Buf* victim = nullptr;
  for (Buf* b = lru_.Back(); b != nullptr; b = lru_.Prev(b)) {
    if (b->refcnt != 0 || RD_READ(b->jpinned)) {
      continue;
    }
    if (!RD_READ(b->dirty)) {
      victim = b;
      break;
    }
    if (victim == nullptr) {
      victim = b;  // LRU-est dirty candidate, kept in case no clean one exists
    }
  }
  if (victim == nullptr) {
    // Every buffer is referenced (pathological pin pressure). This used to
    // be a kernel panic; now the caller sees a failed lookup and maps it to
    // kErrIo / retries.
    return nullptr;
  }
  if (RD_READ(victim->dirty)) {
    std::vector<Buf*> one{victim};
    *burn += FlushBufs(victim->dev, one);
  }
  VOS_CHECK_MSG(!RD_READ(victim->dirty), "recycling a dirty buffer without a flush");
  victim->valid = false;
  Sync(victim);  // leaves the index under its old key
  victim->io_failed = false;
  victim->dev = dev;
  victim->lba = lba;
  return victim;
}

Buf* Bcache::Read(int dev, std::uint64_t lba, Cycles* burn) {
  SpinGuard g(lock_);
  return ReadLocked(dev, lba, burn);
}

Buf* Bcache::ReadLocked(int dev, std::uint64_t lba, Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  *burn = cfg_.cost.bcache_lookup;
  Buf* b = FindOrRecycle(dev, lba, burn);
  if (b == nullptr) {
    return nullptr;  // all buffers referenced
  }
  ++b->refcnt;
  Sync(b);
  Touch(b);
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  if (b->valid) {
    ++st.hits;
    return b;
  }
  ++st.misses;
  BlockRequest req;
  req.op = BlockOp::kRead;
  req.lba = lba;
  req.count = 1;
  req.buf = b->data.data();
  *burn += queues_[static_cast<std::size_t>(dev)].SubmitAndWait(&req);
  if (req.status != BlockStatus::kOk) {
    // Failed read: report synchronously (no sticky error — the caller gets
    // kErrIo right now) and leave the slot recyclable.
    --b->refcnt;
    b->valid = false;
    Sync(b);
    Trace(TraceEvent::kBlockError, lba, static_cast<std::uint64_t>(req.status));
    return nullptr;
  }
  ++st.reads;
  ++st.blocks_read;
  Trace(TraceEvent::kBlockRead, lba, 1);
  b->valid = true;
  RD_WRITE(b->dirty) = false;
  Sync(b);
  b->io_failed = false;
  return b;
}

Cycles Bcache::ThrottleIfNeeded(int dev) {
  if (double(DirtyCount(dev)) < cfg_.bcache_dirty_ratio * kNumBufs) {
    return 0;
  }
  // Foreground throttling: the writer that pushed the pool over the dirty
  // ratio pays for draining it (the Linux balance_dirty_pages idea).
  // Callers already hold lock_ (this runs under WriteLocked).
  return FlushDevLocked(dev);
}

std::int64_t Bcache::Write(Buf* b, Cycles* burn) {
  SpinGuard g(lock_);
  return WriteLocked(b, burn);
}

std::int64_t Bcache::WriteLocked(Buf* b, Cycles* burn) {
  RD_ASSERT_HELD(lock_);
  VOS_CHECK_MSG(b->refcnt > 0, "bwrite on unreferenced buffer");
  BlockDevStats& st = stats_[static_cast<std::size_t>(b->dev)];
  if (!cfg_.opt_writeback_cache) {
    // xv6 semantics: synchronous write-through.
    BlockRequest req;
    req.op = BlockOp::kWrite;
    req.lba = b->lba;
    req.count = 1;
    req.buf = b->data.data();
    *burn = queues_[static_cast<std::size_t>(b->dev)].SubmitAndWait(&req);
    if (req.status != BlockStatus::kOk) {
      // Cache and device now disagree; drop the cached copy so nothing
      // serves data the device never accepted.
      b->valid = false;
      RD_WRITE(b->dirty) = false;
      Sync(b);
      Trace(TraceEvent::kBlockError, b->lba, static_cast<std::uint64_t>(req.status));
      return kErrIo;
    }
    ++st.writes;
    ++st.blocks_written;
    Trace(TraceEvent::kBlockWrite, b->lba, 1);
    RD_WRITE(b->dirty) = false;
    Sync(b);
    return 0;
  }
  *burn = cfg_.cost.bcache_lookup;
  if (RD_READ(b->jpinned)) {
    // Direct write to a journal-pinned buffer: ownership transfers back to
    // the normal dirty set, and the pending checkpoint will skip this block
    // (the unpinned, newer copy supersedes the committed image). Unreachable
    // from xv6fs, whose writes all route through the journal; kept so a
    // foreign writer cannot wedge a pin forever.
    RD_WRITE(b->jpinned) = false;
  }
  if (!RD_READ(b->dirty)) {
    RD_WRITE(b->dirty) = true;
    RD_WRITE(b->dirtied_at) = NowStamp();
  }
  Sync(b);
  b->io_failed = false;  // fresh data supersedes an earlier failed write-back
  *burn += ThrottleIfNeeded(b->dev);
  return 0;
}

void Bcache::Release(Buf* b) {
  SpinGuard g(lock_);
  ReleaseLocked(b);
}

void Bcache::ReleaseLocked(Buf* b) {
  RD_ASSERT_HELD(lock_);
  VOS_CHECK_MSG(b->refcnt > 0, "brelse on unreferenced buffer");
  --b->refcnt;
  Sync(b);
}

std::int64_t Bcache::ReadRange(int dev, std::uint64_t lba, std::uint32_t count,
                               std::uint8_t* out, Cycles* burn) {
  SpinGuard g(lock_);
  if (!cfg_.opt_bcache_bypass) {
    // Un-optimized path: go through the single-block cache, block by block —
    // what xv6's layering forces, and what Fig 9's file benchmarks measure
    // for the xv6 profile.
    for (std::uint32_t i = 0; i < count; ++i) {
      Cycles c = 0;
      Buf* b = ReadLocked(dev, lba + i, &c);
      *burn += c;
      if (b == nullptr) {
        return kErrIo;
      }
      std::copy(b->data.begin(), b->data.end(), out + std::size_t(i) * kBlockSize);
      ReleaseLocked(b);
    }
    return 0;
  }
  // Bypass: stream from the device. With write-back, the cache may hold data
  // the device has not seen yet — flush overlapping dirty buffers first, or
  // the range read silently returns stale bytes.
  // Journal-pinned overlaps are excluded: flushing one would write
  // possibly-uncommitted data over its home block. No caller range-reads a
  // journaled region (the log region is never pinned and xv6fs does
  // single-block I/O), so the device copy the pinned buffer shadows is
  // stale-but-committed, which is the correct pre-checkpoint disk state.
  std::vector<Buf*> overlap;
  for (Buf& b : bufs_) {
    if (b.valid && RD_READ(b.dirty) && !RD_READ(b.jpinned) && b.dev == dev && b.lba >= lba &&
        b.lba < lba + count) {
      overlap.push_back(&b);
    }
  }
  *burn += FlushBufs(dev, overlap);
  for (Buf* b : overlap) {
    if (b->io_failed) {
      return kErrIo;  // the device copy is not current; the range read lies
    }
  }
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  BlockRequest req;
  req.op = BlockOp::kRead;
  req.lba = lba;
  req.count = count;
  req.buf = out;
  *burn += queues_[static_cast<std::size_t>(dev)].SubmitAndWait(&req);
  if (req.status != BlockStatus::kOk) {
    Trace(TraceEvent::kBlockError, lba, static_cast<std::uint64_t>(req.status));
    return kErrIo;
  }
  ++st.reads;
  st.blocks_read += count;
  Trace(TraceEvent::kBlockRead, lba, count);
  return 0;
}

std::int64_t Bcache::WriteRange(int dev, std::uint64_t lba, std::uint32_t count,
                                const std::uint8_t* in, Cycles* burn) {
  SpinGuard g(lock_);
  if (!cfg_.opt_bcache_bypass) {
    for (std::uint32_t i = 0; i < count; ++i) {
      Cycles c = 0;
      Buf* b = ReadLocked(dev, lba + i, &c);
      *burn += c;
      if (b == nullptr) {
        return kErrIo;
      }
      std::copy(in + std::size_t(i) * kBlockSize, in + std::size_t(i + 1) * kBlockSize,
                b->data.begin());
      Cycles w = 0;
      std::int64_t err = WriteLocked(b, &w);
      ReleaseLocked(b);
      *burn += w;
      if (err < 0) {
        return err;
      }
    }
    return 0;
  }
  // Invalidate overlapping cached blocks so later cached reads see new data.
  // Dirty overlaps are superseded wholesale by the incoming range, so they
  // drop their dirty bit rather than flushing stale bytes over fresh ones.
  for (Buf& b : bufs_) {
    if (b.valid && b.dev == dev && b.lba >= lba && b.lba < lba + count) {
      VOS_CHECK_MSG(b.refcnt == 0, "range write overlaps referenced buffer");
      b.valid = false;
      RD_WRITE(b.dirty) = false;
      // The incoming range supersedes a pinned image too (recovery replay is
      // the one caller that writes ranges over journaled home blocks).
      RD_WRITE(b.jpinned) = false;
      Sync(&b);
    }
  }
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  BlockRequest req;
  req.op = BlockOp::kWrite;
  req.lba = lba;
  req.count = count;
  req.buf = const_cast<std::uint8_t*>(in);
  *burn += queues_[static_cast<std::size_t>(dev)].SubmitAndWait(&req);
  if (req.status != BlockStatus::kOk) {
    Trace(TraceEvent::kBlockError, lba, static_cast<std::uint64_t>(req.status));
    return kErrIo;
  }
  ++st.writes;
  st.blocks_written += count;
  Trace(TraceEvent::kBlockWrite, lba, count);
  return 0;
}

Cycles Bcache::FlushAll() {
  SpinGuard g(lock_);
  Cycles total = 0;
  for (int dev = 0; dev < device_count(); ++dev) {
    total += FlushDevLocked(dev);
  }
  return total;
}

Cycles Bcache::FlushDev(int dev) {
  SpinGuard g(lock_);
  return FlushDevLocked(dev);
}

Cycles Bcache::FlushDevLocked(int dev) {
  RD_ASSERT_HELD(lock_);
  std::vector<Buf*> dirty_bufs;
  for (Buf& b : bufs_) {
    if (b.valid && RD_READ(b.dirty) && !RD_READ(b.jpinned) && b.dev == dev) {
      dirty_bufs.push_back(&b);
    }
  }
  return FlushBufs(dev, dirty_bufs);
}

Cycles Bcache::FlushAged(Cycles now, Cycles min_age) {
  SpinGuard g(lock_);
  Cycles total = 0;
  for (int dev = 0; dev < device_count(); ++dev) {
    std::vector<Buf*> aged;
    for (Buf& b : bufs_) {
      if (b.valid && RD_READ(b.dirty) && !RD_READ(b.jpinned) && b.dev == dev &&
          now - RD_READ(b.dirtied_at) >= min_age) {
        aged.push_back(&b);
      }
    }
    total += FlushBufs(dev, aged);
  }
  return total;
}

std::int64_t Bcache::TakeError(int dev) {
  SpinGuard g(lock_);
  std::int64_t e = pending_error_[static_cast<std::size_t>(dev)];
  pending_error_[static_cast<std::size_t>(dev)] = 0;
  return e;
}

std::int64_t Bcache::TakeAnyError() {
  SpinGuard g(lock_);
  std::int64_t e = 0;
  for (std::int64_t& p : pending_error_) {
    if (p != 0 && e == 0) {
      e = p;
    }
    p = 0;
  }
  return e;
}

std::size_t Bcache::DirtyCount(int dev) const {
  // Callable without lock_ (procfs gauges, tests): a stale count only skews
  // a gauge or the throttle heuristic, never correctness.
  return dev < 0 ? static_cast<std::size_t>(std::popcount(dirty_))
                 : dirty_count_[static_cast<std::size_t>(dev)];
}

std::size_t Bcache::PinnedCount(int dev) const {
  // Same contract as DirtyCount: lock-free snapshot for gauges and the
  // journal's backpressure heuristic; staleness never breaks correctness.
  return dev < 0 ? static_cast<std::size_t>(std::popcount(pinned_))
                 : pinned_count_[static_cast<std::size_t>(dev)];
}

void Bcache::MarkJournaled(Buf* b, std::uint64_t seq) {
  SpinGuard g(lock_);
  VOS_CHECK_MSG(b->refcnt > 0, "MarkJournaled on unreferenced buffer");
  if (!RD_READ(b->dirty)) {
    RD_WRITE(b->dirty) = true;
    RD_WRITE(b->dirtied_at) = NowStamp();
  }
  RD_WRITE(b->jpinned) = true;
  RD_WRITE(b->jseq) = seq;
  Sync(b);
  b->io_failed = false;
}

Cycles Bcache::CheckpointBlocks(int dev, const std::vector<CheckpointWrite>& writes,
                                std::int64_t* err) {
  SpinGuard g(lock_);
  *err = 0;
  if (writes.empty()) {
    return 0;
  }
  auto& q = queues_[static_cast<std::size_t>(dev)];
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  // Select the blocks this pass owns. An *unpinned* cached buffer means
  // ownership was transferred back to the normal dirty set (direct write or
  // range invalidate) and its copy is at least as new as the committed
  // image; an uncached block can only mean the same transfer followed by
  // eviction — pins block recycling. Skip those. A buffer pinned by a
  // *later* batch still gets this pass's home write (the committed image
  // must land before the head advances past its record — the newer image
  // may never commit), but keeps its pin for the later pass.
  std::vector<const CheckpointWrite*> sel;
  std::vector<Buf*> pinned;
  sel.reserve(writes.size());
  pinned.reserve(writes.size());
  for (const CheckpointWrite& w : writes) {
    Buf* cached = Lookup(dev, w.lba);
    if (cached == nullptr || !RD_READ(cached->jpinned)) {
      continue;
    }
    sel.push_back(&w);
    pinned.push_back(cached);
  }
  if (sel.empty()) {
    return 0;
  }
  std::vector<BlockRequest> reqs(sel.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    reqs[i].op = BlockOp::kWrite;
    reqs[i].lba = sel[i]->lba;
    reqs[i].count = 1;
    reqs[i].buf = const_cast<std::uint8_t*>(sel[i]->data);
    q.Submit(&reqs[i]);
  }
  Cycles dev_time = q.CompleteAll();
  std::size_t flushed = 0;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    Buf* b = pinned[i];
    if (reqs[i].status == BlockStatus::kOk) {
      // Home now holds this pass's committed image: the deferred write-back
      // promised at LogWrite time has happened, so it counts (and traces) as
      // one. Unpin only if no later batch re-logged the block meanwhile.
      if (RD_READ(b->jseq) <= sel[i]->seq) {
        RD_WRITE(b->jpinned) = false;
        RD_WRITE(b->dirty) = false;
        Sync(b);
        b->io_failed = false;
      }
      ++flushed;
      Trace(TraceEvent::kBlockFlush, b->lba, 1);
    } else {
      // Keep the pin: the record stays live in the log and a retry (or
      // recovery after a crash) still has the committed image. The latched
      // error makes the failure visible at the next sync point.
      b->io_failed = true;
      pending_error_[static_cast<std::size_t>(dev)] = kErrIo;
      *err = kErrIo;
      Trace(TraceEvent::kBlockError, b->lba,
            static_cast<std::uint64_t>(reqs[i].status));
    }
  }
  st.writebacks += flushed;
  st.writes += flushed;
  st.blocks_written += flushed;
  return dev_time + Cycles(sel.size()) * cfg_.cost.bcache_flush_work;
}

const BlockDevStats& Bcache::stats(int dev) {
  SpinGuard g(lock_);
  BlockDevStats& st = stats_[static_cast<std::size_t>(dev)];
  const auto& q = queues_[static_cast<std::size_t>(dev)];
  st.merged = q.merged_requests();
  st.queue_depth_hw = q.queue_depth_high_water();
  st.io_retries = q.io_retries();
  st.io_errors = q.io_errors();
  st.io_timeouts = q.io_timeouts();
  return st;
}

std::uint64_t Bcache::hits() const {
  std::uint64_t n = 0;
  for (const BlockDevStats& st : stats_) {
    n += st.hits;
  }
  return n;
}

std::uint64_t Bcache::misses() const {
  std::uint64_t n = 0;
  for (const BlockDevStats& st : stats_) {
    n += st.misses;
  }
  return n;
}

}  // namespace vos
