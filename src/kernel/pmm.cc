#include "src/kernel/pmm.h"

#include <algorithm>
#include <string>

#include "src/base/assert.h"
#include "src/kernel/metrics.h"

namespace vos {

namespace {

int FloorLog2(std::uint64_t v) { return 63 - __builtin_clzll(v); }

int CeilLog2(std::uint64_t v) { return v <= 1 ? 0 : FloorLog2(v - 1) + 1; }

}  // namespace

Pmm::Pmm(PhysMem& mem, PhysAddr start, PhysAddr end) : mem_(mem), start_(start) {
  VOS_CHECK_MSG(start % kPageSize == 0 && end % kPageSize == 0, "pmm range must be page aligned");
  VOS_CHECK_MSG(start >= kPageSize, "frame 0 is reserved: physical address 0 is the failure sentinel");
  VOS_CHECK(end > start && end <= mem.size());
  nframes_ = (end - start) / kPageSize;
  norders_ = FloorLog2(nframes_) + 1;
  used_.assign(nframes_, false);
  next_.assign(nframes_, kNone);
  prev_.assign(nframes_, kNone);
  border_.assign(nframes_, kNoOrder);
  free_heads_.assign(static_cast<std::size_t>(norders_), kNone);
  free_blocks_.assign(static_cast<std::size_t>(norders_), 0);
  free_count_ = nframes_;
  // Seed the free lists with maximal aligned blocks covering [0, nframes).
  std::uint64_t f = 0;
  while (f < nframes_) {
    int o = f == 0 ? norders_ - 1 : std::min(__builtin_ctzll(f), norders_ - 1);
    o = std::min(o, FloorLog2(nframes_ - f));
    PushBlock(f, o);
    f += 1ull << o;
  }
}

std::uint64_t Pmm::FrameOf(PhysAddr pa) const {
  VOS_CHECK_MSG(pa >= start_ && pa < end() && pa % kPageSize == 0, "bad frame address");
  return (pa - start_) / kPageSize;
}

void Pmm::Unlink(std::uint64_t f, int k) {
  std::uint64_t n = next_[f], p = prev_[f];
  if (p == kNone) {
    free_heads_[static_cast<std::size_t>(k)] = n;
  } else {
    next_[p] = n;
  }
  if (n != kNone) {
    prev_[n] = p;
  }
  border_[f] = kNoOrder;
  --free_blocks_[static_cast<std::size_t>(k)];
}

void Pmm::PushBlock(std::uint64_t f, int k) {
  std::uint64_t h = free_heads_[static_cast<std::size_t>(k)];
  next_[f] = h;
  prev_[f] = kNone;
  if (h != kNone) {
    prev_[h] = f;
  }
  free_heads_[static_cast<std::size_t>(k)] = f;
  border_[f] = static_cast<std::uint8_t>(k);
  ++free_blocks_[static_cast<std::size_t>(k)];
}

void Pmm::InsertAndCoalesce(std::uint64_t f, int k) {
  while (k + 1 < norders_) {
    std::uint64_t buddy = f ^ (1ull << k);
    if (buddy + (1ull << k) > nframes_ || border_[buddy] != k) {
      break;  // buddy truncated by the region end, allocated, or split
    }
    Unlink(buddy, k);
    f = std::min(f, buddy);
    ++k;
    ++stats_.merges;
  }
  PushBlock(f, k);
}

std::uint64_t Pmm::PopBlock(int k) {
  int j = k;
  while (j < norders_ && free_heads_[static_cast<std::size_t>(j)] == kNone) {
    ++j;
  }
  if (j >= norders_) {
    return kNone;
  }
  std::uint64_t f = free_heads_[static_cast<std::size_t>(j)];
  Unlink(f, j);
  while (j > k) {
    --j;
    PushBlock(f + (1ull << j), j);  // give the upper half back
    ++stats_.splits;
  }
  return f;
}

void Pmm::EmitOom(std::uint64_t npages) {
  ++stats_.oom_events;
  if (trace_) {
    trace_(TraceEvent::kPmmOom, npages, free_count_);
  }
}

PhysAddr Pmm::AllocPage() {
  SpinGuard g(lock_);
  std::uint64_t f = PopBlock(0);
  if (f == kNone) {
    EmitOom(1);
    return 0;
  }
  used_[f] = true;
  --free_count_;
  ++stats_.page_allocs;
  PhysAddr pa = start_ + f * kPageSize;
  if (trace_) {
    trace_(TraceEvent::kPmmAlloc, pa, 1);
  }
  return pa;
}

void Pmm::FreePage(PhysAddr pa) {
  SpinGuard g(lock_);
  std::uint64_t f = FrameOf(pa);
  VOS_CHECK_MSG(used_[f], "double free of physical page");
  used_[f] = false;
  ++free_count_;
  InsertAndCoalesce(f, 0);
  ++stats_.page_frees;
  if (trace_) {
    trace_(TraceEvent::kPmmFree, pa, 1);
  }
}

PhysAddr Pmm::AllocRange(std::uint64_t npages) {
  VOS_CHECK(npages > 0);
  SpinGuard g(lock_);
  int k = CeilLog2(npages);
  std::uint64_t f = npages > free_count_ || k >= norders_ ? kNone : PopBlock(k);
  if (f == kNone) {
    EmitOom(npages);
    return 0;
  }
  for (std::uint64_t i = 0; i < npages; ++i) {
    used_[f + i] = true;
  }
  free_count_ -= npages;
  // The block rounded npages up to 2^k; hand the tail straight back.
  std::uint64_t t = f + npages;
  std::uint64_t rem = (1ull << k) - npages;
  while (rem > 0) {
    int o = std::min(t == 0 ? norders_ - 1 : __builtin_ctzll(t), FloorLog2(rem));
    InsertAndCoalesce(t, o);
    t += 1ull << o;
    rem -= 1ull << o;
  }
  ++stats_.range_allocs;
  PhysAddr pa = start_ + f * kPageSize;
  if (trace_) {
    trace_(TraceEvent::kPmmAlloc, pa, npages);
  }
  return pa;
}

void Pmm::FreeRange(PhysAddr pa, std::uint64_t npages) {
  SpinGuard g(lock_);
  for (std::uint64_t i = 0; i < npages; ++i) {
    std::uint64_t f = FrameOf(pa + i * kPageSize);
    VOS_CHECK_MSG(used_[f], "double free of physical page");
    used_[f] = false;
    ++free_count_;
    InsertAndCoalesce(f, 0);
  }
  ++stats_.range_frees;
  if (trace_) {
    trace_(TraceEvent::kPmmFree, pa, npages);
  }
}

bool Pmm::IsFree(PhysAddr pa) const { return !used_[FrameOf(pa)]; }

std::uint64_t Pmm::FreeBlocksOfOrder(int order) const {
  return order >= 0 && order < norders_ ? free_blocks_[static_cast<std::size_t>(order)] : 0;
}

std::uint64_t Pmm::LargestFreeBlockPages() const {
  for (int o = norders_ - 1; o >= 0; --o) {
    if (free_blocks_[static_cast<std::size_t>(o)] != 0) {
      return 1ull << o;
    }
  }
  return 0;
}

void Pmm::RegisterMetrics(Metrics& m) {
  m.Gauge("pmm.total_pages", [this] { return total_pages(); });
  m.Gauge("pmm.free_pages", [this] { return free_pages(); });
  m.Gauge("pmm.largest_block_pages", [this] { return LargestFreeBlockPages(); });
  m.Gauge("pmm.frag_pct", [this] { return static_cast<std::uint64_t>(FragmentationPct()); });
  m.Gauge("pmm.page_allocs", [this] { return stats_.page_allocs; });
  m.Gauge("pmm.page_frees", [this] { return stats_.page_frees; });
  m.Gauge("pmm.range_allocs", [this] { return stats_.range_allocs; });
  m.Gauge("pmm.range_frees", [this] { return stats_.range_frees; });
  m.Gauge("pmm.splits", [this] { return stats_.splits; });
  m.Gauge("pmm.merges", [this] { return stats_.merges; });
  m.Gauge("pmm.oom_events", [this] { return stats_.oom_events; });
  for (int o = 0; o < norders_; ++o) {
    m.Gauge("pmm.order" + std::to_string(o) + ".free_blocks",
            [this, o] { return FreeBlocksOfOrder(o); });
  }
}

double Pmm::FragmentationPct() const {
  if (free_count_ == 0) {
    return 0.0;
  }
  // The best a buddy system can do with free_count pages is one block of
  // 2^floor(log2(free_count)); measure the shortfall against that, so a
  // fully free (non-power-of-two) region reads 0 % fragmented.
  std::uint64_t ideal = 1ull << std::min(FloorLog2(free_count_), norders_ - 1);
  return 100.0 * (1.0 - static_cast<double>(LargestFreeBlockPages()) /
                            static_cast<double>(ideal));
}

}  // namespace vos
