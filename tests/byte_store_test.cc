// ByteStore and the zero-backed simulated media built on it: untouched pages
// stay off the host's RAM, and provisioning in place produces byte-for-byte
// the same SD card and DRAM as the copy-based image builders did.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/base/byte_store.h"
#include "src/base/crc32.h"
#include "src/base/random.h"
#include "src/fs/fsimage.h"
#include "src/hw/phys_mem.h"
#include "src/hw/sd_card.h"
#include "src/vos/system.h"

namespace vos {
namespace {

// Host-resident bytes among the pages lying wholly inside [p, p + len).
std::size_t ResidentBytes(const std::uint8_t* p, std::size_t len) {
  const std::uintptr_t page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  const std::uintptr_t first = (reinterpret_cast<std::uintptr_t>(p) + page - 1) / page * page;
  const std::uintptr_t last = (reinterpret_cast<std::uintptr_t>(p) + len) / page * page;
  if (last <= first) {
    return 0;
  }
  std::vector<unsigned char> vec((last - first) / page);
  EXPECT_EQ(mincore(reinterpret_cast<void*>(first), last - first, vec.data()), 0);
  std::size_t resident = 0;
  for (unsigned char v : vec) {
    resident += (v & 1) != 0 ? page : 0;
  }
  return resident;
}

std::uint32_t Crc(const ByteStore& s) { return Crc32(s.data(), s.size()); }

std::uint32_t DramCrc(System& sys) {
  PhysMem& mem = sys.board().mem();
  return Crc32(mem.Ptr(0, mem.size()), mem.size());
}

std::vector<std::uint8_t> Pattern(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> v(n);
  Rng rng(seed);
  for (std::uint8_t& b : v) {
    b = static_cast<std::uint8_t>(rng.Next());
  }
  return v;
}

TEST(ByteStore, StartsZeroedAndMovesOwnership) {
  ByteStore a(10000);
  ASSERT_EQ(a.size(), 10000u);
  for (std::uint8_t b : a) {
    ASSERT_EQ(b, 0);
  }
  a[9999] = 7;
  const std::uint8_t* bytes = a.data();
  ByteStore b(std::move(a));
  EXPECT_EQ(b.data(), bytes);  // moved, not copied
  EXPECT_EQ(b[9999], 7);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): checking the moved-from state
  EXPECT_EQ(a.data(), nullptr);
}

TEST(ByteStore, CopiesFromASpan) {
  std::vector<std::uint8_t> src = Pattern(513, 1);
  ByteStore copy(src);
  ASSERT_EQ(copy.size(), src.size());
  EXPECT_TRUE(std::equal(copy.begin(), copy.end(), src.begin()));
  EXPECT_TRUE(ByteStore(std::span<const std::uint8_t>()).empty());
}

TEST(Residency, UnscrambledDramHasNoResidentPagesUntilWritten) {
  PhysMem mem(MiB(64));
  std::uint8_t* base = mem.Ptr(0, mem.size());
  EXPECT_EQ(ResidentBytes(base, mem.size()), 0u);
  mem.Store<std::uint32_t>(MiB(40), 0xdeadbeef);
  std::size_t resident = ResidentBytes(base, mem.size());
  EXPECT_GT(resident, 0u);
  EXPECT_LE(resident, MiB(2));  // one page, or one huge page
}

TEST(Residency, ScrambledDramGetsJunkPageByPageOnFirstTouch) {
  PhysMem mem(MiB(64));
  mem.Scramble(42);
  // A zero-length range reaches no page, so this pointer touches nothing.
  const std::uint8_t* base = std::as_const(mem).Ptr(0, 0);
  const std::size_t before = ResidentBytes(base, mem.size());
  EXPECT_LT(before, MiB(2));
  EXPECT_NE(mem.Load<std::uint64_t>(MiB(40)), 0u);
  const std::size_t after = ResidentBytes(base, mem.size());
  EXPECT_GT(after, before);
  EXPECT_LE(after - before, MiB(2));  // one page, or one huge page
}

TEST(Residency, EmptyProvisionedSdCardStaysMostlyUnbacked) {
  SdCard sd(MiB(32));
  ProvisionSdCard(sd, FsSpec{});
  EXPECT_LT(ResidentBytes(sd.disk().data(), sd.disk().size()), MiB(2));
  // Still a partitioned card.
  EXPECT_EQ(sd.disk()[510], 0x55);
  EXPECT_EQ(sd.disk()[511], 0xaa);
}

// Golden contents of a freshly booted default Prototype 5 system, measured
// with the copy-based image builders that preceded in-place provisioning.
TEST(GoldenContent, DefaultProto5SdCardAndDram) {
  System sys;
  EXPECT_EQ(Crc(sys.board().sd().disk()), 0xac98b4b7u);
  EXPECT_EQ(DramCrc(sys), 0x4d41bcbdu);
}

// The same, with nested directories and multi-cluster files on the SD card
// and the USB stick (and a nested root-image file, so that builder runs too).
TEST(GoldenContent, NestedDirsAndMultiClusterFiles) {
  SystemOptions opt;
  opt.extra_fat.dirs = {"/a/b/c", "/music"};
  opt.extra_fat.files.push_back(FsEntry{"/a/b/c/deep.bin", Pattern(20000, 1)});
  opt.extra_fat.files.push_back(FsEntry{"/music/a long track name.raw", Pattern(70000, 2)});
  opt.extra_fat.files.push_back(FsEntry{"/a/readme.txt", Pattern(100, 3)});
  opt.usb_storage = true;
  opt.usb_stick.dirs = {"/photos/2024"};
  opt.usb_stick.files.push_back(FsEntry{"/photos/2024/img0001.raw", Pattern(50000, 4)});
  opt.extra_root.files.push_back(FsEntry{"/etc/deep/nested/conf", Pattern(3000, 5)});
  System sys(opt);
  EXPECT_EQ(Crc(sys.board().sd().disk()), 0x9297ad91u);
  ASSERT_NE(sys.board().usb_storage(), nullptr);
  EXPECT_EQ(Crc(sys.board().usb_storage()->disk()), 0x16b3e816u);
  EXPECT_EQ(DramCrc(sys), 0x4d41bcbdu);
}

}  // namespace
}  // namespace vos
