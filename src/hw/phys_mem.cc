#include "src/hw/phys_mem.h"

#include <algorithm>

#include "src/base/random.h"

namespace vos {

namespace {
constexpr std::uint64_t kWord = sizeof(std::uint64_t);
}  // namespace

void PhysMem::Scramble(std::uint64_t seed) {
  const std::uint64_t pages = (mem_.size() + kPageBytes - 1) / kPageBytes;
  const RngJump next_page(kPageBytes / kWord);
  junk_.assign(pages, 0);
  std::uint64_t state = Rng(seed).state();
  for (std::uint64_t& start : junk_) {
    start = state;
    state = next_page(state);
  }
}

void PhysMem::FillJunk(std::uint64_t page) const {
  // Whole words only, as one sequential pass over all of DRAM would write.
  const std::uint64_t lo = page * kPageBytes;
  const std::uint64_t hi = std::min(lo + kPageBytes, mem_.size() / kWord * kWord);
  Rng rng(junk_[page]);
  // Logically const: to a reader the page already held these bytes.
  auto* p = const_cast<std::uint8_t*>(mem_.data());
  for (std::uint64_t a = lo; a < hi; a += kWord) {
    const std::uint64_t w = rng.Next();
    std::memcpy(p + a, &w, kWord);
  }
  junk_[page] = 0;
}

}  // namespace vos
