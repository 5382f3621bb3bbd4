#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/status.h"
#include "src/fs/fat32.h"

namespace vos {
namespace {

class Fat32Test : public ::testing::Test {
 protected:
  Fat32Test()
      : disk_(MiB(8)), bc_(cfg_), fat_(bc_, bc_.AddDevice(&disk_), cfg_) {
    FatVolume::Mkfs(disk_.data());
    Cycles burn = 0;
    EXPECT_EQ(fat_.Mount(&burn), 0);
  }

  FatNode MustCreate(const std::string& path, bool is_dir = false) {
    FatNode node;
    Cycles burn = 0;
    EXPECT_EQ(fat_.Create(path, is_dir, &node, &burn), 0) << path;
    return node;
  }

  std::vector<std::uint8_t> ReadAll(const FatNode& f) {
    std::vector<std::uint8_t> out(f.size);
    Cycles burn = 0;
    EXPECT_EQ(fat_.Read(f, out.data(), 0, f.size, &burn), static_cast<std::int64_t>(f.size));
    return out;
  }

  std::vector<FatDirEntryInfo> ListDir(const FatNode& dir) {
    std::vector<FatDirEntryInfo> out;
    Cycles burn = 0;
    EXPECT_EQ(fat_.ReadDir(dir, &out, &burn), 0);
    return out;
  }

  KernelConfig cfg_;
  RamDisk disk_;
  Bcache bc_;
  FatVolume fat_;
};

TEST_F(Fat32Test, MountParsesBpb) {
  EXPECT_TRUE(fat_.mounted());
  EXPECT_GT(fat_.total_clusters(), 1000u);
  EXPECT_EQ(fat_.cluster_bytes(), 8u * 512);
}

TEST_F(Fat32Test, CreateWriteReadRoundTrip) {
  FatNode f = MustCreate("/hello.txt");
  std::string data = "fat32 says hi";
  Cycles burn = 0;
  EXPECT_EQ(fat_.Write(f, reinterpret_cast<const std::uint8_t*>(data.data()), 0,
                       static_cast<std::uint32_t>(data.size()), &burn),
            static_cast<std::int64_t>(data.size()));
  auto got = ReadAll(f);
  EXPECT_EQ(std::string(got.begin(), got.end()), data);
  // Visible via lookup too.
  auto found = fat_.Lookup("/hello.txt", &burn);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->size, data.size());
}

TEST_F(Fat32Test, LongFileNamesStoredAndFound) {
  const std::string name = "/A long name with spaces and MixedCase.tar.gz";
  MustCreate(name);
  Cycles burn = 0;
  auto found = fat_.Lookup(name, &burn);
  ASSERT_TRUE(found.has_value());
  // Case-insensitive, as FAT is.
  EXPECT_TRUE(fat_.Lookup("/a long NAME with spaces and mixedcase.TAR.GZ", &burn).has_value());
  // The directory listing shows the long name.
  auto entries = ListDir(fat_.Root());
  bool seen = false;
  for (const auto& e : entries) {
    seen |= e.name == "A long name with spaces and MixedCase.tar.gz";
  }
  EXPECT_TRUE(seen);
}

TEST_F(Fat32Test, ShortNamesStayShort) {
  MustCreate("/README.TXT");
  auto entries = ListDir(fat_.Root());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "README.TXT");
}

TEST_F(Fat32Test, MultiClusterFilesAndChains) {
  FatNode f = MustCreate("/big.bin");
  std::vector<std::uint8_t> data(fat_.cluster_bytes() * 5 + 123);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 13);
  }
  Cycles burn = 0;
  EXPECT_EQ(fat_.Write(f, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn),
            static_cast<std::int64_t>(data.size()));
  EXPECT_EQ(ReadAll(f), data);
  // Partial reads at arbitrary offsets.
  std::vector<std::uint8_t> part(1000);
  EXPECT_EQ(fat_.Read(f, part.data(), 8111, 1000, &burn), 1000);
  EXPECT_TRUE(std::equal(part.begin(), part.end(), data.begin() + 8111));
}

TEST_F(Fat32Test, ExtendAndOverwrite) {
  FatNode f = MustCreate("/grow");
  Cycles burn = 0;
  std::vector<std::uint8_t> a(100, 'a');
  fat_.Write(f, a.data(), 0, 100, &burn);
  std::vector<std::uint8_t> b(100, 'b');
  fat_.Write(f, b.data(), 50, 100, &burn);  // overlaps and extends
  EXPECT_EQ(f.size, 150u);
  auto got = ReadAll(f);
  EXPECT_EQ(got[49], 'a');
  EXPECT_EQ(got[50], 'b');
  EXPECT_EQ(got[149], 'b');
  // Writes beyond EOF (holes) are refused.
  EXPECT_EQ(fat_.Write(f, a.data(), 500, 10, &burn), kErrInval);
}

TEST_F(Fat32Test, SubdirectoriesNest) {
  MustCreate("/photos", true);
  MustCreate("/photos/2025", true);
  MustCreate("/photos/2025/trip.bmp");
  Cycles burn = 0;
  EXPECT_TRUE(fat_.Lookup("/photos/2025/trip.bmp", &burn).has_value());
  auto lst = ListDir(*fat_.Lookup("/photos", &burn));
  ASSERT_EQ(lst.size(), 1u);
  EXPECT_TRUE(lst[0].is_dir);
}

TEST_F(Fat32Test, UnlinkFreesClusters) {
  Cycles burn = 0;
  std::uint32_t free_before = fat_.FreeClusters(&burn);
  FatNode f = MustCreate("/temp.bin");
  std::vector<std::uint8_t> data(fat_.cluster_bytes() * 3, 1);
  fat_.Write(f, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
  EXPECT_EQ(fat_.FreeClusters(&burn), free_before - 3);
  EXPECT_EQ(fat_.Unlink("/temp.bin", &burn), 0);
  EXPECT_EQ(fat_.FreeClusters(&burn), free_before);
  EXPECT_FALSE(fat_.Lookup("/temp.bin", &burn).has_value());
}

TEST_F(Fat32Test, UnlinkReclaimsLfnSlots) {
  Cycles burn = 0;
  // Create and delete long-named files repeatedly; the directory must not
  // leak entry slots (it stays within its first cluster).
  for (int i = 0; i < 40; ++i) {
    std::string name = "/a rather long temporary file name " + std::to_string(i) + ".dat";
    MustCreate(name);
    EXPECT_EQ(fat_.Unlink(name, &burn), 0);
  }
  auto entries = ListDir(fat_.Root());
  EXPECT_TRUE(entries.empty());
}

TEST_F(Fat32Test, TruncateResetsFile) {
  FatNode f = MustCreate("/t.bin");
  Cycles burn = 0;
  std::vector<std::uint8_t> data(10000, 5);
  fat_.Write(f, data.data(), 0, 10000, &burn);
  std::uint32_t free_mid = fat_.FreeClusters(&burn);
  EXPECT_EQ(fat_.Truncate(f, &burn), 0);
  EXPECT_EQ(f.size, 0u);
  EXPECT_GT(fat_.FreeClusters(&burn), free_mid);
  // Write again after truncate.
  EXPECT_EQ(fat_.Write(f, data.data(), 0, 100, &burn), 100);
}

TEST_F(Fat32Test, Alias83Generation) {
  EXPECT_TRUE(FatNameFits83("README.TXT"));
  EXPECT_FALSE(FatNameFits83("lowercase.txt"));
  EXPECT_FALSE(FatNameFits83("a name with spaces.txt"));
  EXPECT_FALSE(FatNameFits83("waytoolongbasename.txt"));
  std::string alias = FatMake83("My Vacation Photos.jpeg", 1);
  EXPECT_EQ(alias.size(), 11u);
  EXPECT_EQ(alias.substr(8, 3), "JPE");
  EXPECT_NE(alias.find('~'), std::string::npos);
}

TEST_F(Fat32Test, LfnChecksumMatchesSpecExample) {
  // Checksum of "FOO     BAR" per the Microsoft algorithm.
  const std::uint8_t name[11] = {'F', 'O', 'O', ' ', ' ', ' ', ' ', ' ', 'B', 'A', 'R'};
  std::uint8_t sum = FatLfnChecksum(name);
  // Self-consistency: same input, same checksum; different input differs.
  const std::uint8_t other[11] = {'F', 'O', 'O', ' ', ' ', ' ', ' ', ' ', 'B', 'A', 'Z'};
  EXPECT_EQ(sum, FatLfnChecksum(name));
  EXPECT_NE(sum, FatLfnChecksum(other));
}

TEST_F(Fat32Test, DirectoryGrowsBeyondOneCluster) {
  Cycles burn = 0;
  // 8 sectors/cluster * 16 entries/sector = 128 slots; long names use ~4
  // slots each, so 60 files force an extension.
  for (int i = 0; i < 60; ++i) {
    MustCreate("/some quite long file name number " + std::to_string(i) + ".txt");
  }
  auto entries = ListDir(fat_.Root());
  EXPECT_EQ(entries.size(), 60u);
  for (int i = 0; i < 60; ++i) {
    EXPECT_TRUE(fat_.Lookup("/some quite long file name number " + std::to_string(i) + ".txt",
                            &burn)
                    .has_value())
        << i;
  }
}

TEST_F(Fat32Test, RangeIoFasterThanBlockByBlock) {
  FatNode f = MustCreate("/speed.bin");
  std::vector<std::uint8_t> data(256 * 1024);
  Cycles burn = 0;
  fat_.Write(f, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
  // Read with the bypass on vs off (the §5.2 ablation at fs level). The
  // ramdisk has little per-command overhead, so compare via a config copy
  // with bypass disabled: more bcache traffic, same data.
  KernelConfig no_bypass = cfg_;
  no_bypass.opt_bcache_bypass = false;
  bc_.FlushAll();  // write-back cache: settle the image before copying it
  Bcache bc2(no_bypass);
  RamDisk disk2(disk_.data());
  FatVolume fat2(bc2, bc2.AddDevice(&disk2), no_bypass);
  Cycles b2 = 0;
  EXPECT_EQ(fat2.Mount(&b2), 0);
  auto f2 = fat2.Lookup("/speed.bin", &b2);
  ASSERT_TRUE(f2.has_value());
  Cycles fast = 0, slow = 0;
  std::vector<std::uint8_t> out(data.size());
  EXPECT_GT(fat_.Read(f, out.data(), 0, static_cast<std::uint32_t>(out.size()), &fast), 0);
  EXPECT_GT(fat2.Read(*f2, out.data(), 0, static_cast<std::uint32_t>(out.size()), &slow), 0);
  EXPECT_LT(fast, slow);
}

TEST_F(Fat32Test, RandomOpsMatchReferenceModel) {
  Rng rng(7777);
  std::map<std::string, std::vector<std::uint8_t>> model;
  std::map<std::string, FatNode> nodes;
  Cycles burn = 0;
  for (int step = 0; step < 300; ++step) {
    int op = static_cast<int>(rng.NextBelow(10));
    std::string name = "/file with space " + std::to_string(rng.NextBelow(10)) + ".bin";
    if (op < 4) {  // create/append-or-overwrite
      if (!nodes.count(name)) {
        FatNode node;
        if (fat_.Create(name, false, &node, &burn) != 0) {
          continue;
        }
        nodes[name] = node;
        model[name] = {};
      }
      FatNode& node = nodes[name];
      auto& ref = model[name];
      std::uint32_t off = static_cast<std::uint32_t>(rng.NextBelow(ref.size() + 1));
      std::vector<std::uint8_t> data(rng.NextBelow(9000) + 1);
      for (auto& d : data) {
        d = static_cast<std::uint8_t>(rng.Next());
      }
      std::int64_t w =
          fat_.Write(node, data.data(), off, static_cast<std::uint32_t>(data.size()), &burn);
      if (w > 0) {
        if (ref.size() < off + static_cast<std::uint64_t>(w)) {
          ref.resize(off + static_cast<std::uint64_t>(w));
        }
        std::copy(data.begin(), data.begin() + w, ref.begin() + off);
      }
    } else if (op < 5) {  // unlink
      bool in_model = model.erase(name) == 1;
      nodes.erase(name);
      EXPECT_EQ(fat_.Unlink(name, &burn) == 0, in_model) << name;
    } else {  // verify
      auto it = model.find(name);
      auto found = fat_.Lookup(name, &burn);
      ASSERT_EQ(found.has_value(), it != model.end()) << name;
      if (found) {
        ASSERT_EQ(found->size, it->second.size()) << name;
        std::vector<std::uint8_t> got(found->size);
        fat_.Read(*found, got.data(), 0, found->size, &burn);
        EXPECT_EQ(got, it->second) << name;
      }
    }
  }
}

// Mount must reject a BPB that describes no data area, a volume larger than
// its device, or a root directory outside the cluster range. A hostile or
// torn image used to mount anyway, with the cluster count underflowed.
class FatBadBpbTest : public ::testing::Test {
 protected:
  FatBadBpbTest() : disk_(MiB(8)) { FatVolume::Mkfs(disk_.data()); }

  std::uint32_t Bpb32(std::size_t off) const {
    const std::uint8_t* p = disk_.data().data() + off;
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) | (std::uint32_t(p[2]) << 16) |
           (std::uint32_t(p[3]) << 24);
  }
  void SetBpb32(std::size_t off, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      disk_.data()[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }
  // Reserved sectors + both FATs.
  std::uint32_t DataStart() const {
    return (Bpb32(14) & 0xffff) + disk_.data()[16] * Bpb32(36);
  }
  std::uint32_t Clusters() const { return (Bpb32(32) - DataStart()) / disk_.data()[13]; }

  std::int64_t Mount() {
    KernelConfig cfg;
    Bcache bc(cfg);
    FatVolume fat(bc, bc.AddDevice(&disk_), cfg);
    Cycles burn = 0;
    return fat.Mount(&burn);
  }

  RamDisk disk_;
};

TEST_F(FatBadBpbTest, FormattedBpbMounts) {
  EXPECT_EQ(Mount(), 0);
  SetBpb32(44, Clusters() + 1);  // the last cluster is still a valid root
  EXPECT_EQ(Mount(), 0);
}

TEST_F(FatBadBpbTest, RejectsTotalSectorsWithinMetadata) {
  const std::uint32_t data_start = DataStart();
  SetBpb32(32, data_start);  // no data area at all
  EXPECT_EQ(Mount(), kErrIo);
  SetBpb32(32, data_start - 1);  // the old cluster count underflowed here
  EXPECT_EQ(Mount(), kErrIo);
}

TEST_F(FatBadBpbTest, RejectsVolumeLargerThanDevice) {
  SetBpb32(32, static_cast<std::uint32_t>(disk_.block_count() + 1));
  EXPECT_EQ(Mount(), kErrIo);
}

TEST_F(FatBadBpbTest, RejectsRootClusterOutsideVolume) {
  SetBpb32(44, Clusters() + 2);  // one past the last cluster
  EXPECT_EQ(Mount(), kErrIo);
  SetBpb32(44, 0x0ffffff0);
  EXPECT_EQ(Mount(), kErrIo);
}

// A cluster number outside [2, cluster_count + 2) is corrupt on-disk state,
// whether it comes from a dirent or from a FAT link. Reads and directory walks
// that reach one return kErrIo; they used to panic on "cluster out of range".
class FatCorruptChainTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kFiles = 130;  // more dirents than one cluster holds

  FatCorruptChainTest() : disk_(MiB(8)) {
    FatVolume::Mkfs(disk_.data());
    Remount();
    Cycles burn = 0;
    FatNode big;
    EXPECT_EQ(fat_->Create("/big.bin", false, &big, &burn), 0);
    std::vector<std::uint8_t> data(3 * fat_->cluster_bytes(), 0x5a);
    EXPECT_EQ(fat_->Write(big, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn),
              static_cast<std::int64_t>(data.size()));
    EXPECT_EQ(fat_->Create("/d", true, nullptr, &burn), 0);
    for (std::uint32_t i = 0; i < kFiles; ++i) {
      EXPECT_EQ(fat_->Create("/d/F" + std::to_string(i), false, nullptr, &burn), 0);
    }
    bc_->FlushAll();
  }

  // Drops every cached sector, so the volume sees what is on the disk now.
  void Remount() {
    fat_.reset();
    bc_ = std::make_unique<Bcache>(cfg_);
    fat_ = std::make_unique<FatVolume>(*bc_, bc_->AddDevice(&disk_), cfg_);
    Cycles burn = 0;
    ASSERT_EQ(fat_->Mount(&burn), 0);
  }

  FatNode MustLookup(const std::string& path) {
    Cycles burn = 0;
    std::optional<FatNode> node = fat_->Lookup(path, &burn);
    EXPECT_TRUE(node.has_value()) << path;
    return node.value_or(FatNode{});
  }

  void Poke16(std::uint64_t off, std::uint16_t v) {
    disk_.data()[off] = static_cast<std::uint8_t>(v);
    disk_.data()[off + 1] = static_cast<std::uint8_t>(v >> 8);
  }
  void SetFirstCluster(const FatNode& f, std::uint32_t cluster) {
    std::uint64_t e = f.dirent_sector * kBlockSize + f.dirent_offset;
    Poke16(e + 20, static_cast<std::uint16_t>(cluster >> 16));
    Poke16(e + 26, static_cast<std::uint16_t>(cluster));
  }
  // Points `cluster`'s link in both FAT copies at `next`.
  void SetFatLink(std::uint32_t cluster, std::uint32_t next) {
    const std::uint8_t* bpb = disk_.data().data();
    std::uint64_t reserved = bpb[14] | (std::uint32_t(bpb[15]) << 8);
    std::uint64_t fat_sectors = bpb[36] | (std::uint32_t(bpb[37]) << 8) |
                                (std::uint32_t(bpb[38]) << 16) | (std::uint32_t(bpb[39]) << 24);
    for (std::uint64_t fat = 0; fat < bpb[16]; ++fat) {
      std::uint64_t off = (reserved + fat * fat_sectors) * kBlockSize + std::uint64_t(cluster) * 4;
      Poke16(off, static_cast<std::uint16_t>(next));
      Poke16(off + 2, static_cast<std::uint16_t>(next >> 16));
    }
  }

  std::int64_t ReadAt(const FatNode& f, std::uint32_t off) {
    std::vector<std::uint8_t> out(f.size);
    Cycles burn = 0;
    return fat_->Read(f, out.data(), off, f.size - off, &burn);
  }
  std::int64_t WalkDir(const FatNode& dir) {
    std::vector<FatDirEntryInfo> entries;
    Cycles burn = 0;
    return fat_->ReadDir(dir, &entries, &burn);
  }

  KernelConfig cfg_;
  RamDisk disk_;
  std::unique_ptr<Bcache> bc_;
  std::unique_ptr<FatVolume> fat_;
};

TEST_F(FatCorruptChainTest, IntactVolumeReadsAndWalks) {
  Remount();
  FatNode big = MustLookup("/big.bin");
  EXPECT_EQ(ReadAt(big, 0), static_cast<std::int64_t>(big.size));
  std::vector<FatDirEntryInfo> entries;
  Cycles burn = 0;
  EXPECT_EQ(fat_->ReadDir(MustLookup("/d"), &entries, &burn), 0);
  EXPECT_EQ(entries.size(), kFiles);
}

TEST_F(FatCorruptChainTest, DirentFirstClusterOutOfRangeIsIoError) {
  SetFirstCluster(MustLookup("/big.bin"), 0x0ffffff0);
  SetFirstCluster(MustLookup("/d"), 0x0ffffff0);
  Remount();
  FatNode big = MustLookup("/big.bin");
  FatNode dir = MustLookup("/d");
  EXPECT_EQ(ReadAt(big, 0), kErrIo);
  EXPECT_EQ(ReadAt(big, fat_->cluster_bytes()), kErrIo);
  EXPECT_EQ(WalkDir(dir), kErrIo);
  // Nor may writes, lookups below or removal of the directory panic.
  Cycles burn = 0;
  std::uint8_t byte = 1;
  EXPECT_EQ(fat_->Write(big, &byte, 0, 1, &burn), kErrIo);
  EXPECT_FALSE(fat_->Lookup("/d/F1", &burn).has_value());
  EXPECT_EQ(fat_->Create("/d/new", false, nullptr, &burn), kErrIo);
  EXPECT_EQ(fat_->Unlink("/d", &burn), kErrIo);
}

TEST_F(FatCorruptChainTest, FatLinkOutOfRangeIsIoError) {
  FatNode big = MustLookup("/big.bin");
  FatNode dir = MustLookup("/d");
  const std::uint32_t past_end = fat_->total_clusters() + 2;
  SetFatLink(big.first_cluster, past_end);
  SetFatLink(dir.first_cluster, past_end);
  Remount();
  const std::uint32_t cb = fat_->cluster_bytes();
  // The first cluster is still readable; the link after it is not.
  EXPECT_EQ(ReadAt(big, 0), static_cast<std::int64_t>(cb));
  EXPECT_EQ(ReadAt(big, cb), kErrIo);
  EXPECT_EQ(WalkDir(dir), kErrIo);
  Cycles burn = 0;
  std::uint8_t byte = 1;
  EXPECT_EQ(fat_->Write(big, &byte, big.size, 1, &burn), kErrIo);
  EXPECT_EQ(fat_->Unlink("/d", &burn), kErrIo);
}

}  // namespace
}  // namespace vos
