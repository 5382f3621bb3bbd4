// Simulated DRAM. The kernel's physical page allocator hands out frames from
// here; user heaps, ramdisk images, DMA buffers and page tables all live in
// this array, addressed by physical address.
#ifndef VOS_SRC_HW_PHYS_MEM_H_
#define VOS_SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/base/assert.h"
#include "src/base/byte_store.h"
#include "src/base/units.h"

namespace vos {

using PhysAddr = std::uint64_t;

class PhysMem {
 public:
  // Zero-backed: pages nobody touches cost the host nothing.
  explicit PhysMem(std::uint64_t size) : mem_(size) {}

  std::uint64_t size() const { return mem_.size(); }

  // Raw host pointer into simulated DRAM. The range must be in bounds; used by
  // fast bulk paths after MMU translation. Every access goes through here, so
  // this is where a scrambled page gets its junk, the first time any byte of
  // it is reached.
  std::uint8_t* Ptr(PhysAddr pa, std::uint64_t len) {
    CheckRange(pa, len);
    Materialize(pa, len);
    return mem_.data() + pa;
  }
  const std::uint8_t* Ptr(PhysAddr pa, std::uint64_t len) const {
    CheckRange(pa, len);
    Materialize(pa, len);
    return mem_.data() + pa;
  }

  void Read(PhysAddr pa, void* out, std::uint64_t len) const {
    std::memcpy(out, Ptr(pa, len), len);
  }
  void Write(PhysAddr pa, const void* in, std::uint64_t len) {
    std::memcpy(Ptr(pa, len), in, len);
  }

  template <typename T>
  T Load(PhysAddr pa) const {
    T v;
    Read(pa, &v, sizeof(T));
    return v;
  }
  template <typename T>
  void Store(PhysAddr pa, T v) {
    Write(pa, &v, sizeof(T));
  }

  void Fill(PhysAddr pa, std::uint8_t value, std::uint64_t len) {
    std::memset(Ptr(pa, len), value, len);
  }

  // Makes all of DRAM read as a junk pattern: real hardware does not boot with
  // zeroed memory (paper §5.1, "uninitialized memory"). Called by the board
  // when simulating hardware rather than an emulator. The bytes are those of
  // one Rng(seed) word per 8 bytes, in address order, with any tail past the
  // last whole word left as it was; but each 4 KiB page gets its words only
  // when first accessed, so pages nobody touches still cost the host nothing.
  void Scramble(std::uint64_t seed);

 private:
  static constexpr unsigned kPageShift = 12;
  static constexpr std::uint64_t kPageBytes = std::uint64_t(1) << kPageShift;

  void CheckRange(PhysAddr pa, std::uint64_t len) const {
    VOS_CHECK_MSG(pa + len <= mem_.size() && pa + len >= pa, "physical access out of DRAM");
  }
  // Gives every still-pending page in [pa, pa + len) its junk.
  void Materialize(PhysAddr pa, std::uint64_t len) const {
    if (len == 0 || junk_.empty()) {
      return;
    }
    for (std::uint64_t p = pa >> kPageShift, last = (pa + len - 1) >> kPageShift; p <= last; ++p) {
      if (junk_[p] != 0) {
        FillJunk(p);
      }
    }
  }
  void FillJunk(std::uint64_t page) const;

  ByteStore mem_;
  // Per page, after Scramble: the Rng state its first word comes from, or 0
  // once the page holds its bytes (a state is never 0). Filled in by
  // accessors, const ones included; the kernel's token, which lets one task
  // thread run at a time, orders those writes.
  mutable std::vector<std::uint64_t> junk_;
};

}  // namespace vos

#endif  // VOS_SRC_HW_PHYS_MEM_H_
