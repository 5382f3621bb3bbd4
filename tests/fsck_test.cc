// fsck tests: a healthy filesystem is clean; planted corruptions (shared
// blocks, wrong nlink, bitmap lies, dangling dirents, leaks) are detected.
#include <gtest/gtest.h>

#include "src/fs/fsck.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

class FsckTest : public ::testing::Test {
 protected:
  FsckTest()
      : image_(Xv6Fs::Mkfs(1024, 64)),
        disk_(image_),
        bc_(cfg_),
        fs_(bc_, bc_.AddDevice(&disk_), cfg_) {
    Cycles burn = 0;
    EXPECT_EQ(fs_.Mount(&burn), 0);
  }

  // Builds some content: /a (dir), /a/f1, /f2, a hard link /f2link.
  void Populate() {
    Cycles burn = 0;
    std::int64_t err = 0;
    fs_.Create("/a", kXv6TDir, 0, 0, &err, &burn);
    auto f1 = fs_.Create("/a/f1", kXv6TFile, 0, 0, &err, &burn);
    std::vector<std::uint8_t> data(20 * kFsBlockSize, 0x11);
    fs_.Writei(*f1, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    auto f2 = fs_.Create("/f2", kXv6TFile, 0, 0, &err, &burn);
    fs_.Writei(*f2, data.data(), 0, 100, &burn);
    fs_.Link("/f2", "/f2link", &burn);
    // Write-back cache: settle the image before tests poke raw disk bytes.
    bc_.FlushAll();
  }

  // Raw dinode access for corruption planting.
  Xv6Dinode ReadDinode(std::uint32_t inum) {
    Xv6Dinode d;
    std::size_t off = std::size_t(fs_.sb().inodestart) * kFsBlockSize +
                      std::size_t(inum) * sizeof(Xv6Dinode);
    std::memcpy(&d, disk_.data().data() + off, sizeof(d));
    return d;
  }
  void WriteDinode(std::uint32_t inum, const Xv6Dinode& d) {
    std::size_t off = std::size_t(fs_.sb().inodestart) * kFsBlockSize +
                      std::size_t(inum) * sizeof(Xv6Dinode);
    std::memcpy(disk_.data().data() + off, &d, sizeof(d));
  }

  // Re-mounts from raw bytes so planted corruption bypasses the caches.
  FsckReport CheckFresh() {
    bc_.FlushAll();  // no-op when a test already flushed before planting
    Bcache bc(cfg_);
    Xv6Fs fresh(bc, bc.AddDevice(&disk_), cfg_);
    Cycles burn = 0;
    EXPECT_EQ(fresh.Mount(&burn), 0);
    return FsckXv6(fresh, &burn);
  }

  KernelConfig cfg_;
  ByteStore image_;
  RamDisk disk_;
  Bcache bc_;
  Xv6Fs fs_;
};

TEST_F(FsckTest, FreshAndPopulatedFsAreClean) {
  Cycles burn = 0;
  FsckReport r = FsckXv6(fs_, &burn);
  EXPECT_TRUE(r.clean) << r.Summary();
  Populate();
  r = CheckFresh();
  EXPECT_TRUE(r.clean) << r.Summary();
  EXPECT_GE(r.inodes_checked, 4u);
  EXPECT_GT(r.blocks_referenced, 20u);
}

TEST_F(FsckTest, SurvivesChurnClean) {
  Cycles burn = 0;
  std::int64_t err = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 8; ++i) {
      auto ip = fs_.Create("/t" + std::to_string(i), kXv6TFile, 0, 0, &err, &burn);
      std::vector<std::uint8_t> data((std::size_t(i) + 1) * 3000, 0x22);
      fs_.Writei(*ip, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    }
    for (int i = 0; i < 8; i += 2) {
      fs_.Unlink("/t" + std::to_string(i), &burn);
    }
  }
  FsckReport r = CheckFresh();
  EXPECT_TRUE(r.clean) << r.Summary();
}

TEST_F(FsckTest, DetectsDoublyReferencedBlock) {
  Populate();
  // Point /f2's first block at /a/f1's first block.
  Cycles burn = 0;
  auto f1 = fs_.NameI("/a/f1", &burn);
  auto f2 = fs_.NameI("/f2", &burn);
  Xv6Dinode d2 = ReadDinode(f2->inum);
  d2.addrs[0] = f1->addrs[0];
  WriteDinode(f2->inum, d2);
  FsckReport r = CheckFresh();
  EXPECT_FALSE(r.clean);
  bool found = false;
  for (const auto& e : r.errors) {
    found |= e.find("referenced more than once") != std::string::npos;
  }
  EXPECT_TRUE(found) << r.Summary();
}

TEST_F(FsckTest, DetectsWrongNlink) {
  Populate();
  Cycles burn = 0;
  auto f2 = fs_.NameI("/f2", &burn);
  Xv6Dinode d = ReadDinode(f2->inum);
  d.nlink = 7;  // actually referenced twice (/f2 and /f2link)
  WriteDinode(f2->inum, d);
  FsckReport r = CheckFresh();
  EXPECT_FALSE(r.clean);
  bool found = false;
  for (const auto& e : r.errors) {
    found |= e.find("directory references") != std::string::npos;
  }
  EXPECT_TRUE(found) << r.Summary();
}

TEST_F(FsckTest, DetectsBlockMarkedFreeButUsed) {
  Populate();
  Cycles burn = 0;
  auto f1 = fs_.NameI("/a/f1", &burn);
  std::uint32_t b = f1->addrs[0];
  // Clear its bitmap bit behind the filesystem's back.
  std::size_t bm_off = std::size_t(fs_.sb().bmapstart) * kFsBlockSize + b / 8;
  disk_.data()[bm_off] &= static_cast<std::uint8_t>(~(1u << (b % 8)));
  FsckReport r = CheckFresh();
  EXPECT_FALSE(r.clean);
  bool found = false;
  for (const auto& e : r.errors) {
    found |= e.find("in use but marked free") != std::string::npos;
  }
  EXPECT_TRUE(found) << r.Summary();
}

TEST_F(FsckTest, DetectsLeakedBlocks) {
  Populate();
  // Set a bitmap bit for a block nobody references.
  std::uint32_t b = fs_.sb().size - 2;
  std::size_t bm_off = std::size_t(fs_.sb().bmapstart) * kFsBlockSize + b / 8;
  disk_.data()[bm_off] |= static_cast<std::uint8_t>(1u << (b % 8));
  FsckReport r = CheckFresh();
  EXPECT_FALSE(r.clean);
  EXPECT_EQ(r.leaked_blocks, 1u);
}

TEST_F(FsckTest, DetectsBadBlockPointer) {
  Populate();
  Cycles burn = 0;
  auto f2 = fs_.NameI("/f2", &burn);
  Xv6Dinode d = ReadDinode(f2->inum);
  d.addrs[1] = fs_.sb().size + 100;  // beyond the device
  WriteDinode(f2->inum, d);
  FsckReport r = CheckFresh();
  EXPECT_FALSE(r.clean);
  bool found = false;
  for (const auto& e : r.errors) {
    found |= e.find("outside the data region") != std::string::npos;
  }
  EXPECT_TRUE(found) << r.Summary();
}

TEST_F(FsckTest, CheckModeReportsStructuredCounts) {
  Populate();
  Cycles burn = 0;
  auto f2 = fs_.NameI("/f2", &burn);
  Xv6Dinode d = ReadDinode(f2->inum);
  d.nlink = 7;
  WriteDinode(f2->inum, d);
  FsckReport r = CheckFresh();
  ASSERT_FALSE(r.clean);
  // Read-only mode: everything found is "unrecoverable" by definition.
  EXPECT_EQ(r.errors_found, r.errors.size());
  EXPECT_EQ(r.unrecoverable, r.errors.size());
  EXPECT_EQ(r.repaired, 0u);
}

// --- Repair mode -------------------------------------------------------------

class FsckRepairTest : public FsckTest {
 protected:
  // Remounts fresh, repairs, flushes the repairs to the raw disk, and returns
  // the repair report (whose embedded verify already ran).
  FsckReport RepairFresh() {
    bc_.FlushAll();
    Bcache bc(cfg_);
    Xv6Fs fresh(bc, bc.AddDevice(&disk_), cfg_);
    Cycles burn = 0;
    EXPECT_EQ(fresh.Mount(&burn), 0);
    FsckReport r = FsckRepairXv6(fresh, &burn);
    bc.FlushAll();
    return r;
  }
};

TEST_F(FsckRepairTest, RepairsDoublyReferencedBlock) {
  Populate();
  Cycles burn = 0;
  auto f1 = fs_.NameI("/a/f1", &burn);
  auto f2 = fs_.NameI("/f2", &burn);
  Xv6Dinode d2 = ReadDinode(f2->inum);
  d2.addrs[0] = f1->addrs[0];
  WriteDinode(f2->inum, d2);
  FsckReport r = RepairFresh();
  EXPECT_GT(r.repaired, 0u);
  EXPECT_EQ(r.unrecoverable, 0u) << r.Summary();
  // The keep-first rule: the original owner keeps the block, the duplicate
  // claim is severed, and the image checks clean afterwards.
  FsckReport verify = CheckFresh();
  EXPECT_TRUE(verify.clean) << verify.Summary();
  Bcache bc(cfg_);
  Xv6Fs fresh(bc, bc.AddDevice(&disk_), cfg_);
  ASSERT_EQ(fresh.Mount(&burn), 0);
  auto kept = fresh.NameI("/a/f1", &burn);
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(kept->addrs[0], f1->addrs[0]);
}

TEST_F(FsckRepairTest, RepairsWrongNlink) {
  Populate();
  Cycles burn = 0;
  auto f2 = fs_.NameI("/f2", &burn);
  Xv6Dinode d = ReadDinode(f2->inum);
  d.nlink = 7;  // really 2: /f2 and /f2link
  WriteDinode(f2->inum, d);
  FsckReport r = RepairFresh();
  EXPECT_GT(r.repaired, 0u);
  EXPECT_EQ(r.unrecoverable, 0u) << r.Summary();
  EXPECT_EQ(ReadDinode(f2->inum).nlink, 2);
  EXPECT_TRUE(CheckFresh().clean);
}

TEST_F(FsckRepairTest, RepairsDirentsNamingAFreedInode) {
  Populate();
  Cycles burn = 0;
  auto f2 = fs_.NameI("/f2", &burn);
  std::uint32_t inum = f2->inum;
  // Zap the inode behind the filesystem's back: /f2 and /f2link now dangle,
  // and the file's data blocks leak in the bitmap.
  Xv6Dinode d = ReadDinode(inum);
  d.type = 0;
  WriteDinode(inum, d);
  FsckReport r = RepairFresh();
  EXPECT_GT(r.repaired, 0u);
  EXPECT_EQ(r.unrecoverable, 0u) << r.Summary();
  EXPECT_TRUE(CheckFresh().clean);
  Bcache bc(cfg_);
  Xv6Fs fresh(bc, bc.AddDevice(&disk_), cfg_);
  ASSERT_EQ(fresh.Mount(&burn), 0);
  EXPECT_EQ(fresh.NameI("/f2", &burn), nullptr);
  EXPECT_EQ(fresh.NameI("/f2link", &burn), nullptr);
  EXPECT_NE(fresh.NameI("/a/f1", &burn), nullptr) << "repair damaged a healthy file";
}

TEST_F(FsckRepairTest, RepairsBadPointerAndLeakedBlocks) {
  Populate();
  Cycles burn = 0;
  auto f2 = fs_.NameI("/f2", &burn);
  Xv6Dinode d = ReadDinode(f2->inum);
  d.addrs[1] = fs_.sb().size + 100;  // beyond the device
  WriteDinode(f2->inum, d);
  std::uint32_t leak = fs_.sb().size - 2;
  std::size_t bm_off = std::size_t(fs_.sb().bmapstart) * kFsBlockSize + leak / 8;
  disk_.data()[bm_off] |= static_cast<std::uint8_t>(1u << (leak % 8));
  FsckReport r = RepairFresh();
  EXPECT_GT(r.repaired, 0u);
  EXPECT_EQ(r.unrecoverable, 0u) << r.Summary();
  FsckReport verify = CheckFresh();
  EXPECT_TRUE(verify.clean) << verify.Summary();
  EXPECT_EQ(verify.leaked_blocks, 0u);
}

TEST_F(FsckRepairTest, RepairOnACleanImageIsANoOp) {
  Populate();
  FsckReport r = RepairFresh();
  EXPECT_EQ(r.repaired, 0u);
  EXPECT_EQ(r.unrecoverable, 0u);
  EXPECT_TRUE(r.clean) << r.Summary();
}

TEST(FsckUtility, RunsInsideTheOs) {
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(sys.RunProgram("fsck"), 0);
  EXPECT_NE(sys.SerialOutput().find("fsck /: CLEAN"), std::string::npos);
}

TEST(FsckUtility, RepairFlagOnACleanRootExitsZero) {
  // Exit-code contract: 0 clean, 1 repaired something, 2 unrecoverable.
  System sys(OptionsForStage(Stage::kProto5));
  EXPECT_EQ(sys.RunProgram("fsck", {"-r"}), 0);
  EXPECT_NE(sys.SerialOutput().find("fsck /: CLEAN"), std::string::npos);
}

}  // namespace
}  // namespace vos
