// xv6fs: the ext2-like filesystem ported from xv6 (§4.4), run on the ramdisk
// as the root filesystem. On-disk format (1 KB filesystem blocks over the
// 512 B block device):
//
//   [ boot | superblock | inodes ... | free bitmap ... | data ... ]
//
// Inodes have 12 direct + 1 singly-indirect block pointers, capping files at
// (12+256) KB ~ 268 KB — the "270 KB" limit the paper cites as a Prototype 5
// motivation for FAT32. There is no journal; instead of declaring crash
// consistency out of scope (the seed's stance, after §5.4), this layer
// propagates kErrIo from the error-aware block layer and relies on
// FsckRepairXv6 (fsck.h) to bring the metadata back to a consistent state
// after a crash or torn write — the discipline the torture harness
// (tests/crash_torture_test.cc) enforces.
#ifndef VOS_SRC_FS_XV6FS_H_
#define VOS_SRC_FS_XV6FS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/byte_store.h"
#include "src/base/units.h"
#include "src/fs/bcache.h"

namespace vos {

constexpr std::uint32_t kXv6Magic = 0x10203040;
constexpr std::uint32_t kFsBlockSize = 1024;             // fs block
constexpr std::uint32_t kDevPerFs = kFsBlockSize / kBlockSize;  // 2 device blocks
constexpr std::uint32_t kNDirect = 12;
constexpr std::uint32_t kNIndirect = kFsBlockSize / 4;   // 256
constexpr std::uint32_t kMaxFileBlocks = kNDirect + kNIndirect;
constexpr std::uint32_t kDirNameLen = 14;

// Inode types.
constexpr std::int16_t kXv6TDir = 1;
constexpr std::int16_t kXv6TFile = 2;
constexpr std::int16_t kXv6TDev = 3;

constexpr std::uint32_t kRootInum = 1;

// Default journal size Mkfs reserves (journal superblock + 31 record slots);
// the protocol constants live in src/fs/journal.h.
constexpr std::uint32_t kJrnlDefaultLogBlocks = 32;

#pragma pack(push, 1)
struct Xv6Superblock {
  std::uint32_t magic;
  std::uint32_t size;        // total fs blocks
  std::uint32_t nblocks;     // data blocks
  std::uint32_t ninodes;
  std::uint32_t inodestart;  // first inode block
  std::uint32_t bmapstart;   // first bitmap block
  // Write-ahead log region (src/fs/journal.h): nlog fs blocks starting at
  // logstart (journal superblock + record slots). nlog == 0 means an
  // unjournaled image. The log lives inside the metadata area (nmeta =
  // size - nblocks covers it), so fsck's data-block accounting needs no
  // special cases for it.
  std::uint32_t logstart;
  std::uint32_t nlog;
};

struct Xv6Dinode {
  std::int16_t type;   // 0 = free
  std::int16_t major;
  std::int16_t minor;
  std::int16_t nlink;
  std::uint32_t size;
  std::uint32_t addrs[kNDirect + 1];
};

struct Xv6Dirent {
  std::uint16_t inum;  // 0 = free slot
  char name[kDirNameLen];
};
#pragma pack(pop)

static_assert(sizeof(Xv6Dinode) == 64, "dinode must pack to 64 bytes");
static_assert(sizeof(Xv6Dirent) == 16, "dirent must pack to 16 bytes");

constexpr std::uint32_t kInodesPerBlock = kFsBlockSize / sizeof(Xv6Dinode);

struct Xv6Inode {
  std::uint32_t inum = 0;
  std::int16_t type = 0;
  std::int16_t major = 0;
  std::int16_t minor = 0;
  std::int16_t nlink = 0;
  std::uint32_t size = 0;
  std::uint32_t addrs[kNDirect + 1] = {};
};

using Xv6InodePtr = std::shared_ptr<Xv6Inode>;

struct Xv6DirEntryInfo {
  std::string name;
  std::uint32_t inum;
  std::int16_t type;
  std::uint32_t size;
};

class Journal;

class Xv6Fs {
 public:
  Xv6Fs(Bcache& bc, int dev, const KernelConfig& cfg) : bc_(bc), dev_(dev), cfg_(cfg) {}

  // Reads and validates the superblock. Returns 0 or kErrIo. `burn` (here and
  // below) accumulates the virtual time of the operation.
  std::int64_t Mount(Cycles* burn);
  const Xv6Superblock& sb() const { return sb_; }

  // Inode access (iget semantics; the cache write-backs on Update).
  // GetInode returns nullptr on an unreadable inode block or an out-of-range
  // inum (possible on damaged filesystems).
  Xv6InodePtr GetInode(std::uint32_t inum, Cycles* burn);
  std::int64_t UpdateInode(const Xv6Inode& ip, Cycles* burn);  // iupdate; 0 or kErrIo

  // Path resolution; absolute paths only (the VFS resolves cwd).
  Xv6InodePtr NameI(const std::string& path, Cycles* burn);
  Xv6InodePtr NameIParent(const std::string& path, std::string* last, Cycles* burn);

  // File data.
  std::int64_t Readi(Xv6Inode& ip, std::uint8_t* dst, std::uint32_t off, std::uint32_t n,
                     Cycles* burn);
  std::int64_t Writei(Xv6Inode& ip, const std::uint8_t* src, std::uint32_t off, std::uint32_t n,
                      Cycles* burn);

  // Namespace ops. All return 0/positive or a negative Err.
  Xv6InodePtr Create(const std::string& path, std::int16_t type, std::int16_t major,
                     std::int16_t minor, std::int64_t* err, Cycles* burn);
  std::int64_t Unlink(const std::string& path, Cycles* burn);
  std::int64_t Link(const std::string& oldp, const std::string& newp, Cycles* burn);

  std::vector<Xv6DirEntryInfo> ReadDir(Xv6Inode& dir, Cycles* burn);

  // Frees all data blocks (truncate to zero).
  void Truncate(Xv6Inode& ip, Cycles* burn);

  std::uint32_t FreeDataBlocks(Cycles* burn);

  // Introspection/repair hooks for fsck: bitmap state of one fs block, raw
  // fs-block I/O through the same cache path, bitmap bit surgery, and inode
  // cache eviction (fsck rewrites inodes on disk behind the cache's back).
  bool BlockInUse(std::uint32_t b, Cycles* burn);
  std::int64_t SetBlockInUse(std::uint32_t b, bool used, Cycles* burn);  // 0 or kErrIo
  std::int64_t ReadFsBlock(std::uint32_t fsb, std::uint8_t* out, Cycles* burn);
  std::int64_t WriteFsBlock(std::uint32_t fsb, const std::uint8_t* in, Cycles* burn);
  void EvictInode(std::uint32_t inum) { icache_.erase(inum); }
  Bcache& bcache() { return bc_; }
  int dev() const { return dev_; }

  // Write-ahead journaling (src/fs/journal.h). When attached, every
  // metadata/data write funnels through the journal as a transaction;
  // detached (or an unjournaled image), writes go straight to the write-back
  // cache as before. Mount() runs recovery-by-replay either way when the
  // image carries a log.
  void AttachJournal(Journal* j) { jrnl_ = j; }
  Journal* journal() const { return jrnl_; }
  // fsync semantics: make everything logged so far durable (group commit of
  // the open batch). Does NOT wait for the checkpoint pipeline.
  std::int64_t SyncJournal(Cycles* burn);
  // sync semantics: commit, then drain every committed batch to home.
  std::int64_t DrainJournal(Cycles* burn);
  // Mount-time recovery outcome (zeroed when the image has no log).
  std::uint32_t recovered_records() const { return recovered_records_; }
  std::uint32_t recovered_blocks() const { return recovered_blocks_; }

  // Formats an image: fs of `fsblocks` 1 KB blocks with `ninodes` inodes and
  // an `nlog`-block journal region (0 = unjournaled), containing only the
  // root directory. Image size = fsblocks KB.
  static ByteStore Mkfs(std::uint32_t fsblocks, std::uint32_t ninodes,
                        std::uint32_t nlog = kJrnlDefaultLogBlocks);

 private:
  // 0 with *out = fresh zeroed block, kErrNoSpace on disk full, kErrIo.
  std::int64_t BAlloc(std::uint32_t* out, Cycles* burn);
  void BFree(std::uint32_t b, Cycles* burn);  // best-effort, tolerant of damage
  // Maps file block index -> disk block, allocating when `alloc`. Returns 0
  // with *out = block (0 = hole when !alloc, disk full when alloc), or kErrIo.
  std::int64_t BMap(Xv6Inode& ip, std::uint32_t bn, bool alloc, std::uint32_t* out,
                    Cycles* burn);
  // Returns the new inum, or 0 with *err = kErrNoSpace/kErrIo.
  std::uint32_t IAlloc(std::int16_t type, std::int64_t* err, Cycles* burn);
  std::int64_t DirLookup(Xv6Inode& dir, const std::string& name, Cycles* burn);  // inum or err
  std::int64_t DirLink(Xv6Inode& dir, const std::string& name, std::uint32_t inum, Cycles* burn);
  bool DirIsEmpty(Xv6Inode& dir, Cycles* burn);

  Bcache& bc_;
  int dev_;
  const KernelConfig& cfg_;
  Xv6Superblock sb_{};
  Journal* jrnl_ = nullptr;
  std::uint32_t recovered_records_ = 0;
  std::uint32_t recovered_blocks_ = 0;
  std::unordered_map<std::uint32_t, Xv6InodePtr> icache_;
};

// Splits "/a/b/c" into components; rejects empty or non-absolute paths.
std::vector<std::string> SplitPath(const std::string& path);

}  // namespace vos

#endif  // VOS_SRC_FS_XV6FS_H_
