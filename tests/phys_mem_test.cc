// Junk DRAM on first touch: a scrambled PhysMem must read, byte for byte, as
// if one sequential pass of Rng(seed) words had been written over all of it,
// whatever order its pages are first reached in and by whichever accessor.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/base/random.h"
#include "src/hw/phys_mem.h"

namespace vos {
namespace {

constexpr std::uint64_t kPage = 4096;

// What the eager scramble wrote: one word per 8 bytes, tail bytes zero.
std::vector<std::uint8_t> EagerScramble(std::uint64_t size, std::uint64_t seed) {
  std::vector<std::uint8_t> ref(size, 0);
  Rng rng(seed);
  for (std::uint64_t a = 0; a + 8 <= size; a += 8) {
    std::uint64_t w = rng.Next();
    std::memcpy(ref.data() + a, &w, 8);
  }
  return ref;
}

TEST(RngJump, MatchesStepping) {
  for (std::uint64_t seed : {0ull, 1ull, 0x9e3779b97f4a7c15ull, 0xffffffffffffffffull}) {
    Rng stepped(seed);
    std::uint64_t calls = 0;
    for (std::uint64_t target : {0ull, 1ull, 2ull, 63ull, 512ull, 1000ull, 4097ull}) {
      for (; calls < target; ++calls) {
        stepped.Next();
      }
      EXPECT_EQ(RngJump(target)(Rng(seed).state()), stepped.state())
          << "seed " << seed << " calls " << target;
    }
  }
}

// One seeded round of random accesses to a freshly scrambled `size`-byte
// PhysMem, each checked against (or applied to) the eager reference.
void RandomRound(std::uint64_t size, std::uint64_t seed, int ops) {
  SCOPED_TRACE(testing::Message() << "seed " << seed);
  const std::uint64_t pages = (size + kPage - 1) / kPage;
  PhysMem mem(size);
  mem.Scramble(seed);
  std::vector<std::uint8_t> ref = EagerScramble(size, seed);
  const PhysMem& cmem = mem;

  Rng rng(seed);
  auto below = [&rng](std::uint64_t n) { return rng.NextBelow(n); };
  for (int op = 0; op < ops; ++op) {
    switch (below(8)) {
      case 0: {  // Load
        std::uint64_t pa = below(size - 7);
        std::uint64_t want;
        std::memcpy(&want, ref.data() + pa, 8);
        ASSERT_EQ(cmem.Load<std::uint64_t>(pa), want) << "op " << op << " pa " << pa;
        break;
      }
      case 1: {  // Store
        std::uint64_t pa = below(size - 3);
        auto v = static_cast<std::uint32_t>(rng.Next());
        mem.Store<std::uint32_t>(pa, v);
        std::memcpy(ref.data() + pa, &v, 4);
        break;
      }
      case 2: {  // partial-page Write
        std::uint64_t pa = below(size - 1);
        std::uint64_t len = 1 + below(std::min<std::uint64_t>(kPage - 1, size - pa));
        std::vector<std::uint8_t> in(len, static_cast<std::uint8_t>(op));
        mem.Write(pa, in.data(), len);
        std::copy(in.begin(), in.end(), ref.begin() + static_cast<std::ptrdiff_t>(pa));
        break;
      }
      case 3: {  // whole-page Write or Fill, up to the end of DRAM at times
        std::uint64_t first = below(pages);
        std::uint64_t pa = first * kPage;
        std::uint64_t len = std::min((1 + below(3)) * kPage, size - pa);
        auto value = static_cast<std::uint8_t>(rng.Next());
        if (below(2) == 0) {
          std::vector<std::uint8_t> in(len, value);
          mem.Write(pa, in.data(), len);
        } else {
          mem.Fill(pa, value, len);
        }
        std::fill_n(ref.begin() + static_cast<std::ptrdiff_t>(pa), len, value);
        break;
      }
      case 4: {  // partial Fill, possibly spanning pages
        std::uint64_t pa = below(size - 1);
        std::uint64_t len = 1 + below(std::min<std::uint64_t>(2 * kPage, size - pa));
        mem.Fill(pa, 0xee, len);
        std::fill_n(ref.begin() + static_cast<std::ptrdiff_t>(pa), len, 0xee);
        break;
      }
      case 5: {  // const Ptr range across a page boundary
        std::uint64_t boundary = (1 + below(pages - 1)) * kPage;
        std::uint64_t pa = boundary - 1 - below(64);
        std::uint64_t len = std::min<std::uint64_t>(boundary - pa + below(kPage), size - pa);
        ASSERT_EQ(std::memcmp(cmem.Ptr(pa, len), ref.data() + pa, len), 0)
            << "op " << op << " pa " << pa << " len " << len;
        break;
      }
      case 6: {  // mutable Ptr range across a boundary, written through
        std::uint64_t boundary = (1 + below(pages - 1)) * kPage;
        std::uint64_t pa = boundary - 8;
        std::uint8_t* p = mem.Ptr(pa, 16);
        ASSERT_EQ(std::memcmp(p, ref.data() + pa, 16), 0) << "op " << op;
        p[below(16)] ^= 0x5a;
        std::memcpy(ref.data() + pa, p, 16);
        break;
      }
      default: {  // Ptr range reaching the last partial page
        std::uint64_t pa = size - 1 - below(kPage + 2000);
        ASSERT_EQ(std::memcmp(cmem.Ptr(pa, size - pa), ref.data() + pa, size - pa), 0)
            << "op " << op << " pa " << pa;
        break;
      }
    }
  }
  EXPECT_EQ(std::memcmp(cmem.Ptr(0, size), ref.data(), size), 0);
}

TEST(PhysMemScramble, FirstTouchInRandomOrderMatchesEagerScramble) {
  // 37 whole pages plus a last partial page whose last 5 bytes are no word.
  // Short rounds on fresh memories, so that most accesses are first touches.
  for (std::uint64_t seed = 1; seed <= 200 && !testing::Test::HasFatalFailure(); ++seed) {
    RandomRound(37 * kPage + 1237, seed, 40);
  }
}

TEST(PhysMemScramble, UntouchedScrambleReadsWholeAsEager) {
  const std::uint64_t size = 5 * kPage + 3;
  PhysMem mem(size);
  mem.Scramble(99);
  std::vector<std::uint8_t> ref = EagerScramble(size, 99);
  EXPECT_EQ(std::memcmp(mem.Ptr(0, size), ref.data(), size), 0);
}

TEST(PhysMemScramble, WholePageOverwriteLeavesNoJunk) {
  PhysMem mem(4 * kPage);
  mem.Scramble(3);
  mem.Fill(kPage, 0, 2 * kPage);
  std::vector<std::uint8_t> zero(2 * kPage, 0);
  EXPECT_EQ(std::memcmp(mem.Ptr(kPage, 2 * kPage), zero.data(), zero.size()), 0);
  // Its neighbours still read as junk.
  std::vector<std::uint8_t> ref = EagerScramble(4 * kPage, 3);
  EXPECT_EQ(std::memcmp(mem.Ptr(0, kPage), ref.data(), kPage), 0);
  EXPECT_EQ(std::memcmp(mem.Ptr(3 * kPage, kPage), ref.data() + 3 * kPage, kPage), 0);
}

}  // namespace
}  // namespace vos
