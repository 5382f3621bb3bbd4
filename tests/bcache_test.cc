// Buffer-cache tests for the request-based write-back block layer:
// hit/miss accounting, LRU recycling under pressure, dirty write-back in
// elevator order with adjacent-request merging, range-I/O vs dirty-buffer
// coherence, fsync durability, the /proc/blkstat + sync/fsync surface, and a
// seeded shadow-model run against the original list-and-scan cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <list>
#include <memory>
#include <tuple>
#include <vector>

#include "src/base/status.h"
#include "src/fs/bcache.h"
#include "src/fs/fault_inject.h"
#include "src/fs/fsck.h"
#include "src/fs/procfs.h"
#include "src/fs/xv6fs.h"
#include "src/kernel/velf.h"
#include "src/ulib/usys.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

// Wraps a device and logs every transfer that actually reaches it — the
// probe the elevator/merging assertions look at.
class RecordingDevice : public BlockDevice {
 public:
  struct Entry {
    BlockOp op;
    std::uint64_t lba;
    std::uint32_t count;
  };

  explicit RecordingDevice(BlockDevice* inner) : inner_(inner) {}
  std::uint64_t block_count() const override { return inner_->block_count(); }
  BlockResult Read(std::uint64_t lba, std::uint32_t count, std::uint8_t* out) override {
    log.push_back(Entry{BlockOp::kRead, lba, count});
    return inner_->Read(lba, count, out);
  }
  BlockResult Write(std::uint64_t lba, std::uint32_t count, const std::uint8_t* in) override {
    log.push_back(Entry{BlockOp::kWrite, lba, count});
    return inner_->Write(lba, count, in);
  }

  std::vector<Entry> writes() const {
    std::vector<Entry> out;
    for (const Entry& e : log) {
      if (e.op == BlockOp::kWrite) {
        out.push_back(e);
      }
    }
    return out;
  }

  std::vector<Entry> log;

 private:
  BlockDevice* inner_;
};

class BcacheTest : public ::testing::Test {
 protected:
  BcacheTest() : disk_(256 * kBlockSize), rec_(&disk_), bc_(cfg_) {
    dev_ = bc_.AddDevice(&rec_, "test");
  }

  // Dirties `lba` with a repeated `fill` byte through the cached write path.
  void DirtyBlock(std::uint64_t lba, std::uint8_t fill) {
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, lba, &c);
    b->data.fill(fill);
    bc_.Write(b, &c);
    bc_.Release(b);
  }

  std::uint8_t RawByte(std::uint64_t lba) { return disk_.data()[lba * kBlockSize]; }

  KernelConfig cfg_;
  RamDisk disk_;
  RecordingDevice rec_;
  Bcache bc_;
  int dev_ = -1;
};

TEST_F(BcacheTest, HitAndMissAccounting) {
  Cycles c = 0;
  Buf* b = bc_.Read(dev_, 5, &c);
  bc_.Release(b);
  EXPECT_EQ(bc_.misses(), 1u);
  EXPECT_EQ(bc_.hits(), 0u);
  b = bc_.Read(dev_, 5, &c);
  bc_.Release(b);
  EXPECT_EQ(bc_.misses(), 1u);
  EXPECT_EQ(bc_.hits(), 1u);
  const BlockDevStats& st = bc_.stats(dev_);
  EXPECT_EQ(st.name, "test");
  EXPECT_EQ(st.blocks_read, 1u);
  EXPECT_EQ(st.reads, 1u);
}

TEST_F(BcacheTest, WriteBackDefersTheDeviceWrite) {
  DirtyBlock(7, 0xab);
  EXPECT_EQ(RawByte(7), 0x00) << "write-through leak: device written before flush";
  EXPECT_EQ(bc_.DirtyCount(dev_), 1u);
  EXPECT_TRUE(rec_.writes().empty());

  bc_.FlushAll();
  EXPECT_EQ(RawByte(7), 0xab);
  EXPECT_EQ(bc_.DirtyCount(dev_), 0u);
  EXPECT_EQ(bc_.stats(dev_).writebacks, 1u);
  // Flushing twice must not re-write clean buffers.
  bc_.FlushAll();
  EXPECT_EQ(bc_.stats(dev_).writebacks, 1u);
}

TEST_F(BcacheTest, WriteThroughProfileHitsTheDeviceImmediately) {
  KernelConfig xv6 = cfg_;
  xv6.opt_writeback_cache = false;
  Bcache bc(xv6);
  RecordingDevice rec(&disk_);
  int dev = bc.AddDevice(&rec);
  Cycles c = 0;
  Buf* b = bc.Read(dev, 3, &c);
  b->data.fill(0x5c);
  bc.Write(b, &c);
  bc.Release(b);
  EXPECT_EQ(RawByte(3), 0x5c);
  EXPECT_EQ(bc.DirtyCount(dev), 0u);
  ASSERT_EQ(rec.writes().size(), 1u);
  EXPECT_EQ(bc.stats(dev).writebacks, 0u);  // synchronous, not a writeback
}

TEST_F(BcacheTest, LruRecyclingUnderPressureFlushesDirtyVictims) {
  // Dirty more distinct blocks than the pool holds, with throttling off, so
  // recycling is forced to evict dirty buffers — each must be flushed, never
  // dropped.
  KernelConfig cfg = cfg_;
  cfg.bcache_dirty_ratio = 2.0;  // never throttle
  Bcache bc(cfg);
  RecordingDevice rec(&disk_);
  int dev = bc.AddDevice(&rec);
  const std::uint64_t n = std::uint64_t(kNumBufs) + 20;
  for (std::uint64_t lba = 0; lba < n; ++lba) {
    Cycles c = 0;
    Buf* b = bc.Read(dev, lba, &c);
    b->data.fill(static_cast<std::uint8_t>(lba + 1));
    bc.Write(b, &c);
    bc.Release(b);
  }
  EXPECT_GE(bc.stats(dev).writebacks, 20u);  // at least the evicted ones
  EXPECT_LE(bc.DirtyCount(dev), std::size_t(kNumBufs));
  bc.FlushAll();
  EXPECT_EQ(bc.DirtyCount(dev), 0u);
  for (std::uint64_t lba = 0; lba < n; ++lba) {
    EXPECT_EQ(RawByte(lba), static_cast<std::uint8_t>(lba + 1)) << lba;
  }
}

TEST_F(BcacheTest, CleanVictimsPreferredOverDirtyOnes) {
  DirtyBlock(0, 0xee);
  // A read sweep has plenty of clean victims, so the dirty buffer survives
  // in cache (write-back keeps hot dirty data resident).
  Cycles c = 0;
  for (std::uint64_t lba = 1; lba < std::uint64_t(kNumBufs) + 20; ++lba) {
    Buf* b = bc_.Read(dev_, lba, &c);
    bc_.Release(b);
  }
  EXPECT_EQ(bc_.DirtyCount(dev_), 1u);
  Buf* b = bc_.Read(dev_, 0, &c);
  EXPECT_EQ(b->data[0], 0xee);
  bc_.Release(b);
}

TEST_F(BcacheTest, FlushWritesInElevatorOrderAndMergesAdjacent) {
  // Dirty a scrambled set: two adjacent runs (10..13 and 40..41) plus a
  // loner, written in deliberately unsorted order.
  for (std::uint64_t lba : {41, 12, 90, 10, 13, 40, 11}) {
    DirtyBlock(lba, static_cast<std::uint8_t>(lba));
  }
  bc_.FlushAll();

  auto writes = rec_.writes();
  ASSERT_EQ(writes.size(), 3u) << "adjacent dirty blocks must merge into range writes";
  EXPECT_EQ(writes[0].lba, 10u);
  EXPECT_EQ(writes[0].count, 4u);
  EXPECT_EQ(writes[1].lba, 40u);
  EXPECT_EQ(writes[1].count, 2u);
  EXPECT_EQ(writes[2].lba, 90u);
  EXPECT_EQ(writes[2].count, 1u);
  // 7 requests collapsed into 3 device commands -> 4 merged away.
  EXPECT_EQ(bc_.stats(dev_).merged, 4u);
  EXPECT_GE(bc_.stats(dev_).queue_depth_hw, 7u);
  for (std::uint64_t lba : {10, 11, 12, 13, 40, 41, 90}) {
    EXPECT_EQ(RawByte(lba), static_cast<std::uint8_t>(lba)) << lba;
  }
}

TEST_F(BcacheTest, MergedBurstSplitsServiceTimeProRata) {
  BlockRequestQueue q(&disk_);
  std::vector<std::uint8_t> a(kBlockSize), b(2 * kBlockSize), c(kBlockSize);
  BlockRequest ra{BlockOp::kWrite, 20, 1, a.data()};
  BlockRequest rb{BlockOp::kWrite, 21, 2, b.data()};
  BlockRequest rc{BlockOp::kWrite, 23, 1, c.data()};
  q.Submit(&rc);
  q.Submit(&ra);
  q.Submit(&rb);
  Cycles total = q.CompleteAll();
  EXPECT_TRUE(ra.done && rb.done && rc.done);
  EXPECT_EQ(q.merged_requests(), 2u);
  EXPECT_EQ(ra.service_time + rb.service_time + rc.service_time, total);
  EXPECT_GT(rb.service_time, ra.service_time);  // 2 blocks cost more than 1
}

TEST_F(BcacheTest, ReadRangeFlushesOverlappingDirtyBuffers) {
  // The satellite regression: a dirty cached block inside a bypassing range
  // read used to be ignored, returning stale device bytes.
  DirtyBlock(17, 0x77);
  std::vector<std::uint8_t> out(8 * kBlockSize, 0);
  Cycles c = 0;
  ASSERT_EQ(bc_.ReadRange(dev_, 16, 8, out.data(), &c), 0);
  EXPECT_EQ(out[kBlockSize], 0x77) << "range read returned stale pre-flush data";
  EXPECT_EQ(bc_.DirtyCount(dev_), 0u);
  EXPECT_EQ(RawByte(17), 0x77);
}

TEST_F(BcacheTest, WriteRangeSupersedesDirtyOverlaps) {
  DirtyBlock(30, 0x11);
  std::vector<std::uint8_t> in(4 * kBlockSize, 0x99);
  Cycles c2 = 0;
  ASSERT_EQ(bc_.WriteRange(dev_, 28, 4, in.data(), &c2), 0);
  EXPECT_EQ(RawByte(30), 0x99);
  // The superseded dirty buffer must not be flushed over the new data later.
  bc_.FlushAll();
  EXPECT_EQ(RawByte(30), 0x99);
  Cycles c = 0;
  Buf* b = bc_.Read(dev_, 30, &c);
  EXPECT_EQ(b->data[0], 0x99);
  bc_.Release(b);
}

TEST_F(BcacheTest, DirtyRatioThrottlesTheWriter) {
  KernelConfig cfg = cfg_;
  cfg.bcache_dirty_ratio = 0.1;  // throttle at ~6 of 64 buffers
  Bcache bc(cfg);
  RecordingDevice rec(&disk_);
  int dev = bc.AddDevice(&rec);
  std::size_t peak = 0;
  for (std::uint64_t lba = 100; lba < 120; ++lba) {
    Cycles c = 0;
    Buf* b = bc.Read(dev, lba, &c);
    b->data.fill(0x42);
    bc.Write(b, &c);
    bc.Release(b);
    peak = std::max(peak, bc.DirtyCount(dev));
  }
  EXPECT_LE(peak, std::size_t(0.1 * kNumBufs) + 1)
      << "dirty ratio never throttled the write burst";
  EXPECT_GT(bc.stats(dev).writebacks, 0u);
}

TEST_F(BcacheTest, FlushAgedOnlyWritesOldBuffers) {
  Cycles fake_now = 0;
  bc_.SetNowFn([&fake_now] { return fake_now; });
  DirtyBlock(50, 0xaa);  // dirtied at t=0
  fake_now = Ms(100);
  DirtyBlock(60, 0xbb);  // dirtied at t=100ms
  bc_.FlushAged(fake_now, Ms(50));
  EXPECT_EQ(RawByte(50), 0xaa) << "aged buffer not flushed";
  EXPECT_EQ(RawByte(60), 0x00) << "young buffer flushed too early";
  EXPECT_EQ(bc_.DirtyCount(dev_), 1u);
}

TEST_F(BcacheTest, TraceHookSeesFlushes) {
  std::vector<std::tuple<TraceEvent, std::uint64_t, std::uint64_t>> events;
  bc_.SetTraceHook([&events](TraceEvent ev, std::uint64_t a, std::uint64_t b) {
    events.emplace_back(ev, a, b);
  });
  DirtyBlock(4, 0x01);
  bc_.FlushAll();
  bool saw_read = false, saw_flush = false;
  for (const auto& [ev, a, b] : events) {
    saw_read |= ev == TraceEvent::kBlockRead;
    saw_flush |= ev == TraceEvent::kBlockFlush && a == 4;
  }
  EXPECT_TRUE(saw_read);
  EXPECT_TRUE(saw_flush);
}

TEST_F(BcacheTest, BufferExhaustionReturnsNullInsteadOfPanic) {
  // The seed panicked ("bcache: out of buffers") when every buffer was
  // pinned. Now Read reports the condition and recovers once refs drop.
  Cycles c = 0;
  std::vector<Buf*> pinned;
  for (std::uint64_t lba = 0; lba < std::uint64_t(kNumBufs); ++lba) {
    Buf* b = bc_.Read(dev_, lba, &c);
    ASSERT_NE(b, nullptr) << lba;
    pinned.push_back(b);
  }
  EXPECT_EQ(bc_.Read(dev_, 200, &c), nullptr) << "expected exhaustion, not a buffer";
  for (Buf* b : pinned) {
    bc_.Release(b);
  }
  Buf* b = bc_.Read(dev_, 200, &c);
  ASSERT_NE(b, nullptr) << "cache did not recover after releases";
  bc_.Release(b);
}

// --- Error paths: fault injection, retries, latched EIO ----------------------

class BcacheFaultTest : public ::testing::Test {
 protected:
  BcacheFaultTest() : disk_(256 * kBlockSize), fdev_(&disk_, &fi_, 0), bc_(cfg_) {
    dev_ = bc_.AddDevice(&fdev_, "faulty");
  }

  void DirtyBlock(std::uint64_t lba, std::uint8_t fill) {
    Cycles c = 0;
    Buf* b = bc_.Read(dev_, lba, &c);
    ASSERT_NE(b, nullptr);
    b->data.fill(fill);
    bc_.Write(b, &c);
    bc_.Release(b);
  }

  std::uint8_t RawByte(std::uint64_t lba) { return disk_.data()[lba * kBlockSize]; }

  KernelConfig cfg_;
  RamDisk disk_;
  FaultInjector fi_{cfg_};
  FaultInjectingBlockDevice fdev_;
  Bcache bc_;
  int dev_ = -1;
};

TEST_F(BcacheFaultTest, FlushFailureLatchesErrorUntilTaken) {
  DirtyBlock(41, 0xcc);
  ASSERT_EQ(fi_.Command("stuck 0 40 4\n"), 0);
  bc_.FlushAll();
  // The failed buffer leaves the dirty set (never silently re-flushed) and
  // the device never saw the data.
  EXPECT_EQ(bc_.DirtyCount(dev_), 0u);
  EXPECT_EQ(RawByte(41), 0x00);
  EXPECT_GE(bc_.stats(dev_).io_errors, 1u);
  // errseq semantics: consumed exactly once.
  EXPECT_EQ(bc_.TakeError(dev_), kErrIo);
  EXPECT_EQ(bc_.TakeError(dev_), 0);
}

TEST_F(BcacheFaultTest, TransientErrorsRetryUntilTheWriteLands) {
  DirtyBlock(10, 0x5a);
  // Two bounces, fewer than kBlkMaxRetries: the retry loop must absorb them.
  ASSERT_EQ(fi_.Command("transient 0 10 1 2\n"), 0);
  bc_.FlushAll();
  EXPECT_EQ(RawByte(10), 0x5a) << "retries did not recover the transient fault";
  EXPECT_GE(bc_.stats(dev_).io_retries, 2u);
  EXPECT_EQ(bc_.stats(dev_).io_errors, 0u);
  EXPECT_EQ(bc_.TakeError(dev_), 0);
}

TEST_F(BcacheFaultTest, MediaErrorIsNotRetried) {
  DirtyBlock(20, 0x77);
  ASSERT_EQ(fi_.Command("stuck 0 20 1\n"), 0);
  std::uint64_t writes_before = fi_.counters().writes;
  bc_.FlushAll();
  // kMedia is permanent: exactly one device attempt, no backoff spinning.
  EXPECT_EQ(fi_.counters().writes, writes_before + 1);
  EXPECT_EQ(bc_.stats(dev_).io_retries, 0u);
  EXPECT_EQ(bc_.TakeError(dev_), kErrIo);
}

TEST_F(BcacheFaultTest, ReadFailureReturnsNullAndCountsAnError) {
  ASSERT_EQ(fi_.Command("stuck 0 77 1\n"), 0);
  Cycles c = 0;
  EXPECT_EQ(bc_.Read(dev_, 77, &c), nullptr);
  EXPECT_GE(bc_.stats(dev_).io_errors, 1u);
  // Read errors report synchronously; nothing latches for fsync.
  EXPECT_EQ(bc_.TakeError(dev_), 0);
}

TEST_F(BcacheFaultTest, WriteThroughFailureReturnsErrIoSynchronously) {
  KernelConfig xv6 = cfg_;
  xv6.opt_writeback_cache = false;
  Bcache bc(xv6);
  int dev = bc.AddDevice(&fdev_, "wt");
  Cycles c = 0;
  Buf* b = bc.Read(dev, 12, &c);
  ASSERT_NE(b, nullptr);
  ASSERT_EQ(fi_.Command("stuck 0 12 1\n"), 0);
  b->data.fill(0x3f);
  EXPECT_EQ(bc.Write(b, &c), kErrIo);
  bc.Release(b);
}

TEST_F(BcacheFaultTest, ExhaustedRetriesWithinBudgetClassifyAsTimeout) {
  KernelConfig cfg = cfg_;
  cfg.fault_inject_enabled = true;
  cfg.fault_timeout_rate = 1.0;  // every command stalls for the whole budget
  FaultInjector fi(cfg);
  FaultInjectingBlockDevice fdev(&disk_, &fi, 0);
  Bcache bc(cfg_);
  int dev = bc.AddDevice(&fdev, "slow");
  Cycles c = 0;
  EXPECT_EQ(bc.Read(dev, 5, &c), nullptr);
  const BlockDevStats& st = bc.stats(dev);
  EXPECT_GE(st.io_timeouts, 1u);
  EXPECT_GE(st.io_errors, st.io_timeouts) << "timeouts must be a subset of errors";
}

TEST_F(BcacheFaultTest, ThrottledWriterSurvivesAFailingDevice) {
  // Satellite regression: with the dirty-ratio throttle active and the device
  // erroring, the writer must not deadlock — failed flushes drain the dirty
  // set (io_failed) and the error latches for sync to find.
  KernelConfig cfg = cfg_;
  cfg.bcache_dirty_ratio = 0.1;
  Bcache bc(cfg);
  int dev = bc.AddDevice(&fdev_, "throttled");
  // Warm the cache while the device is healthy so later writes are pure hits.
  Cycles c = 0;
  for (std::uint64_t lba = 100; lba < 120; ++lba) {
    Buf* b = bc.Read(dev, lba, &c);
    ASSERT_NE(b, nullptr);
    bc.Release(b);
  }
  ASSERT_EQ(fi_.Command("stuck 0 100 20\n"), 0);
  for (std::uint64_t lba = 100; lba < 120; ++lba) {
    Buf* b = bc.Read(dev, lba, &c);  // cache hit; device not touched
    ASSERT_NE(b, nullptr) << lba;
    b->data.fill(0x42);
    bc.Write(b, &c);
    bc.Release(b);
  }
  EXPECT_GE(bc.stats(dev).io_errors, 1u);
  EXPECT_EQ(bc.TakeError(dev), kErrIo);
  EXPECT_LE(bc.DirtyCount(dev), std::size_t(0.1 * kNumBufs) + 1);
}

// --- Durability at the filesystem level --------------------------------------

class BcacheFsTest : public ::testing::Test {
 protected:
  BcacheFsTest()
      : image_(Xv6Fs::Mkfs(1024, 64)),
        disk_(image_),
        bc_(cfg_),
        fs_(bc_, bc_.AddDevice(&disk_), cfg_) {
    Cycles burn = 0;
    EXPECT_EQ(fs_.Mount(&burn), 0);
  }

  KernelConfig cfg_;
  ByteStore image_;
  RamDisk disk_;
  Bcache bc_;
  Xv6Fs fs_;
};

TEST_F(BcacheFsTest, FlushAllMakesWritesDurableAcrossRemount) {
  Cycles burn = 0;
  std::int64_t err = 0;
  auto ip = fs_.Create("/data", kXv6TFile, 0, 0, &err, &burn);
  ASSERT_NE(ip, nullptr);
  std::vector<std::uint8_t> payload(5000, 0xd7);
  ASSERT_EQ(fs_.Writei(*ip, payload.data(), 0, 5000, &burn), 5000);

  // fsync semantics: flush, then re-mount through a *fresh* cache so only
  // what reached the device is visible.
  bc_.FlushAll();
  Bcache fresh_bc(cfg_);
  Xv6Fs fresh(fresh_bc, fresh_bc.AddDevice(&disk_), cfg_);
  ASSERT_EQ(fresh.Mount(&burn), 0);
  auto rip = fresh.NameI("/data", &burn);
  ASSERT_NE(rip, nullptr);
  std::vector<std::uint8_t> back(5000, 0);
  ASSERT_EQ(fresh.Readi(*rip, back.data(), 0, 5000, &burn), 5000);
  EXPECT_EQ(back, payload);
}

TEST_F(BcacheFsTest, FsckCleanAfterFlushAll) {
  Cycles burn = 0;
  std::int64_t err = 0;
  for (int i = 0; i < 6; ++i) {
    auto ip = fs_.Create("/f" + std::to_string(i), kXv6TFile, 0, 0, &err, &burn);
    std::vector<std::uint8_t> data(2500 * (i + 1), 0x33);
    fs_.Writei(*ip, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
  }
  fs_.Unlink("/f2", &burn);
  bc_.FlushAll();
  Bcache fresh_bc(cfg_);
  Xv6Fs fresh(fresh_bc, fresh_bc.AddDevice(&disk_), cfg_);
  ASSERT_EQ(fresh.Mount(&burn), 0);
  FsckReport r = FsckXv6(fresh, &burn);
  EXPECT_TRUE(r.clean) << r.Summary();
}

// --- Syscalls + /proc/blkstat on a booted system -----------------------------

int RunInOs(System& sys, const char* name, AppMain main_fn) {
  static int counter = 0;
  std::string unique = std::string(name) + std::to_string(counter++);
  AppRegistry::Instance().Register(unique, std::move(main_fn), 1024, 4 << 20);
  sys.kernel().AddBootBlob(unique, BuildVelf(unique, 1024, {}, 4 << 20));
  Task* t = sys.kernel().StartUserProgram(unique, {unique});
  return static_cast<int>(sys.WaitProgram(t));
}

TEST(BcacheOsTest, FsyncAndSyncSyscallsDrainDirtyBuffers) {
  System sys(OptionsForStage(Stage::kProto5));
  Kernel* k = &sys.kernel();
  int rc = RunInOs(sys, "fsyncer", [k](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/durable.txt", kOCreate | kORdwr);
    if (fd < 0) {
      return 1;
    }
    const char msg[] = "written then fsynced";
    if (uwrite(env, static_cast<int>(fd), msg, sizeof(msg)) != sizeof(msg)) {
      return 2;
    }
    if (ufsync(env, static_cast<int>(fd)) != 0) {
      return 3;
    }
    if (k->bcache().DirtyCount() != 0) {
      return 4;  // fsync left dirty buffers behind
    }
    uclose(env, static_cast<int>(fd));
    if (usync(env) != 0) {
      return 5;
    }
    if (ufsync(env, 99) != kErrBadFd) {
      return 6;
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(sys.kernel().trace().DumpEvent(TraceEvent::kBlockFlush).empty());
}

TEST(BcacheOsTest, FsyncReportsLatchedWriteErrorsToUserspace) {
  System sys(OptionsForStage(Stage::kProto5));
  int rc = RunInOs(sys, "eio", [](AppEnv& env) -> int {
    // Dirty a file while the disk is healthy, then wedge the whole device
    // through the control file: the flush inside fsync must fail and the
    // syscall must return kErrIo exactly once.
    std::int64_t fd = uopen(env, "/eio.txt", kOCreate | kOWronly);
    if (fd < 0) {
      return 1;
    }
    const char msg[] = "doomed bytes";
    if (uwrite(env, static_cast<int>(fd), msg, sizeof(msg)) != sizeof(msg)) {
      return 2;
    }
    std::int64_t cf = uopen(env, "/proc/faultinject", kOWronly);
    if (cf < 0) {
      return 3;
    }
    const char wedge[] = "stuck 0 0 999999999\n";
    if (uwrite(env, static_cast<int>(cf), wedge, sizeof(wedge) - 1) !=
        static_cast<std::int64_t>(sizeof(wedge) - 1)) {
      return 4;
    }
    uclose(env, static_cast<int>(cf));
    if (ufsync(env, static_cast<int>(fd)) != kErrIo) {
      return 5;
    }
    // Heal the device. The failed buffer was dropped from the dirty set and
    // the error was consumed, so the next fsync reports a healthy (empty)
    // flush rather than replaying the stale failure.
    cf = uopen(env, "/proc/faultinject", kOWronly);
    const char heal[] = "clear_ranges\n";
    uwrite(env, static_cast<int>(cf), heal, sizeof(heal) - 1);
    uclose(env, static_cast<int>(cf));
    if (ufsync(env, static_cast<int>(fd)) != 0) {
      return 6;
    }
    uclose(env, static_cast<int>(fd));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_FALSE(sys.kernel().trace().DumpEvent(TraceEvent::kBlockError).empty())
      << "failed write-back left no kBlockError trace";
}

TEST(BcacheOsTest, SyncIsEnosysBeforeFiles) {
  System sys(OptionsForStage(Stage::kProto3));
  int rc = RunInOs(sys, "nosync", [](AppEnv& env) -> int {
    return usync(env) == kErrNoSys && ufsync(env, 0) == kErrNoSys ? 0 : 1;
  });
  EXPECT_EQ(rc, 0);
}

TEST(BcacheOsTest, ProcBlkstatReportsPerDeviceCounters) {
  System sys(OptionsForStage(Stage::kProto5));
  // Generate some cached traffic first, then a sync so writebacks show up.
  EXPECT_EQ(RunInOs(sys, "probe", [](AppEnv& env) -> int {
              std::int64_t fd = uopen(env, "/probe.txt", kOCreate | kOWronly);
              if (fd < 0) {
                return 1;
              }
              const char msg[] = "blkstat-probe";
              uwrite(env, static_cast<int>(fd), msg, sizeof(msg));
              uclose(env, static_cast<int>(fd));
              return 0;
            }),
            0);
  EXPECT_EQ(sys.RunProgram("sync"), 0);
  const std::size_t before = sys.SerialOutput().size();
  EXPECT_EQ(sys.RunProgram("cat", {"/proc/blkstat"}), 0);
  const std::string out = sys.SerialOutput().substr(before);
  // The block.* slice of the registry with the prefix stripped: one
  // "<dev>.<counter> value" line per device counter.
  EXPECT_EQ(out.find("block."), std::string::npos) << out;
  std::uint64_t hits = 0;
  std::uint64_t writebacks = 0;
  ASSERT_TRUE(ParseMetricValue(out, "ramdisk.hits", &hits)) << out;
  ASSERT_TRUE(ParseMetricValue(out, "ramdisk.writebacks", &writebacks)) << out;
  EXPECT_GT(hits, 0u);
  EXPECT_GT(writebacks, 0u) << "sync produced no writebacks";
}

// --- Shadow model: the indexed cache against the list-and-scan original ----

// The buffer cache's algorithm before it had an index: lookups scan the
// pool, the LRU is a std::list of pointers, and the throttle scans for the
// dirty count. Kept here only as the model Bcache must match, operation by
// operation: same hits and misses, same device traffic (so the same victims,
// flushed in the same order), same burn, same bytes.
class RefBcache {
 public:
  struct RefBuf {
    bool valid = false;
    int dev = -1;
    std::uint64_t lba = 0;
    int refcnt = 0;
    bool dirty = false;
    bool io_failed = false;
    Cycles dirtied_at = 0;
    bool jpinned = false;
    std::uint64_t jseq = 0;
    std::array<std::uint8_t, kBlockSize> data{};
  };

  explicit RefBcache(const KernelConfig& cfg) : cfg_(cfg) {}

  int AddDevice(BlockDevice* dev) {
    queues_.emplace_back(dev);
    pending_error_.push_back(0);
    return static_cast<int>(queues_.size()) - 1;
  }
  void SetNowFn(std::function<Cycles()> now) { now_ = std::move(now); }

  RefBuf* Read(int dev, std::uint64_t lba, Cycles* burn) {
    *burn = cfg_.cost.bcache_lookup;
    RefBuf* b = FindOrRecycle(dev, lba, burn);
    if (b == nullptr) {
      return nullptr;
    }
    ++b->refcnt;
    lru_.remove(b);
    lru_.push_front(b);
    if (b->valid) {
      ++hits_;
      return b;
    }
    ++misses_;
    BlockRequest req;
    req.op = BlockOp::kRead;
    req.lba = lba;
    req.count = 1;
    req.buf = b->data.data();
    *burn += Queue(dev).SubmitAndWait(&req);
    if (req.status != BlockStatus::kOk) {
      --b->refcnt;
      b->valid = false;
      return nullptr;
    }
    b->valid = true;
    b->dirty = false;
    b->io_failed = false;
    return b;
  }

  std::int64_t Write(RefBuf* b, Cycles* burn) {
    if (!cfg_.opt_writeback_cache) {
      BlockRequest req;
      req.op = BlockOp::kWrite;
      req.lba = b->lba;
      req.count = 1;
      req.buf = b->data.data();
      *burn = Queue(b->dev).SubmitAndWait(&req);
      b->dirty = false;
      if (req.status != BlockStatus::kOk) {
        b->valid = false;
        return kErrIo;
      }
      return 0;
    }
    *burn = cfg_.cost.bcache_lookup;
    b->jpinned = false;
    if (!b->dirty) {
      b->dirty = true;
      b->dirtied_at = now_();
    }
    b->io_failed = false;
    if (double(DirtyCount(b->dev)) >= cfg_.bcache_dirty_ratio * kNumBufs) {
      *burn += FlushDev(b->dev);
    }
    return 0;
  }

  void Release(RefBuf* b) { --b->refcnt; }

  std::int64_t ReadRange(int dev, std::uint64_t lba, std::uint32_t count, std::uint8_t* out,
                         Cycles* burn) {
    if (!cfg_.opt_bcache_bypass) {
      for (std::uint32_t i = 0; i < count; ++i) {
        Cycles c = 0;
        RefBuf* b = Read(dev, lba + i, &c);
        *burn += c;
        if (b == nullptr) {
          return kErrIo;
        }
        std::copy(b->data.begin(), b->data.end(), out + std::size_t(i) * kBlockSize);
        Release(b);
      }
      return 0;
    }
    std::vector<RefBuf*> overlap;
    for (RefBuf& b : bufs_) {
      if (b.valid && b.dirty && !b.jpinned && b.dev == dev && b.lba >= lba &&
          b.lba < lba + count) {
        overlap.push_back(&b);
      }
    }
    *burn += FlushBufs(dev, overlap);
    for (RefBuf* b : overlap) {
      if (b->io_failed) {
        return kErrIo;
      }
    }
    return Range(BlockOp::kRead, dev, lba, count, out, burn);
  }

  std::int64_t WriteRange(int dev, std::uint64_t lba, std::uint32_t count,
                          const std::uint8_t* in, Cycles* burn) {
    if (!cfg_.opt_bcache_bypass) {
      for (std::uint32_t i = 0; i < count; ++i) {
        Cycles c = 0;
        RefBuf* b = Read(dev, lba + i, &c);
        *burn += c;
        if (b == nullptr) {
          return kErrIo;
        }
        std::copy(in + std::size_t(i) * kBlockSize, in + std::size_t(i + 1) * kBlockSize,
                  b->data.begin());
        Cycles w = 0;
        std::int64_t err = Write(b, &w);
        Release(b);
        *burn += w;
        if (err < 0) {
          return err;
        }
      }
      return 0;
    }
    for (RefBuf& b : bufs_) {
      if (b.valid && b.dev == dev && b.lba >= lba && b.lba < lba + count) {
        ++invalidated_;
        b.valid = false;
        b.dirty = false;
        b.jpinned = false;
      }
    }
    return Range(BlockOp::kWrite, dev, lba, count, const_cast<std::uint8_t*>(in), burn);
  }

  Cycles FlushAll() {
    Cycles total = 0;
    for (std::size_t dev = 0; dev < queues_.size(); ++dev) {
      total += FlushDev(static_cast<int>(dev));
    }
    return total;
  }

  Cycles FlushAged(Cycles now, Cycles min_age) {
    Cycles total = 0;
    for (std::size_t dev = 0; dev < queues_.size(); ++dev) {
      std::vector<RefBuf*> aged;
      for (RefBuf& b : bufs_) {
        if (b.valid && b.dirty && !b.jpinned && b.dev == static_cast<int>(dev) &&
            now - b.dirtied_at >= min_age) {
          aged.push_back(&b);
        }
      }
      total += FlushBufs(static_cast<int>(dev), aged);
    }
    return total;
  }

  void MarkJournaled(RefBuf* b, std::uint64_t seq) {
    if (!b->dirty) {
      b->dirty = true;
      b->dirtied_at = now_();
    }
    b->jpinned = true;
    b->jseq = seq;
    b->io_failed = false;
  }

  Cycles CheckpointBlocks(int dev, const std::vector<Bcache::CheckpointWrite>& writes,
                          std::int64_t* err) {
    *err = 0;
    std::vector<const Bcache::CheckpointWrite*> sel;
    std::vector<RefBuf*> pinned;
    for (const Bcache::CheckpointWrite& w : writes) {
      RefBuf* cached = nullptr;
      for (RefBuf& b : bufs_) {
        if (b.valid && b.dev == dev && b.lba == w.lba) {
          cached = &b;
          break;
        }
      }
      if (cached == nullptr || !cached->jpinned) {
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
      Queue(dev).Submit(&reqs[i]);
    }
    Cycles dev_time = Queue(dev).CompleteAll();
    for (std::size_t i = 0; i < sel.size(); ++i) {
      RefBuf* b = pinned[i];
      if (reqs[i].status == BlockStatus::kOk) {
        if (b->jseq <= sel[i]->seq) {
          b->jpinned = false;
          b->dirty = false;
          b->io_failed = false;
        }
      } else {
        b->io_failed = true;
        pending_error_[static_cast<std::size_t>(dev)] = kErrIo;
        *err = kErrIo;
      }
    }
    return dev_time + Cycles(sel.size()) * cfg_.cost.bcache_flush_work;
  }

  std::int64_t TakeError(int dev) {
    std::int64_t e = pending_error_[static_cast<std::size_t>(dev)];
    pending_error_[static_cast<std::size_t>(dev)] = 0;
    return e;
  }

  std::size_t DirtyCount(int dev) const {
    std::size_t n = 0;
    for (const RefBuf& b : bufs_) {
      n += (b.valid && b.dirty && !b.jpinned && b.dev == dev);
    }
    return n;
  }
  std::size_t PinnedCount(int dev) const {
    std::size_t n = 0;
    for (const RefBuf& b : bufs_) {
      n += (b.valid && b.jpinned && b.dev == dev);
    }
    return n;
  }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  // Cached buffers a bypassing range write invalidated.
  std::uint64_t invalidated() const { return invalidated_; }

 private:
  BlockRequestQueue& Queue(int dev) { return queues_[static_cast<std::size_t>(dev)]; }

  RefBuf* FindOrRecycle(int dev, std::uint64_t lba, Cycles* burn) {
    for (RefBuf& b : bufs_) {
      if (b.valid && b.dev == dev && b.lba == lba) {
        return &b;
      }
    }
    for (RefBuf& b : bufs_) {
      if (b.refcnt == 0 && !b.valid) {
        b.dev = dev;
        b.lba = lba;
        return &b;
      }
    }
    RefBuf* victim = nullptr;
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
      if ((*it)->refcnt != 0 || (*it)->jpinned) {
        continue;
      }
      if (!(*it)->dirty) {
        victim = *it;
        break;
      }
      if (victim == nullptr) {
        victim = *it;
      }
    }
    if (victim == nullptr) {
      return nullptr;
    }
    if (victim->dirty) {
      std::vector<RefBuf*> one{victim};
      *burn += FlushBufs(victim->dev, one);
    }
    victim->valid = false;
    victim->io_failed = false;
    victim->dev = dev;
    victim->lba = lba;
    return victim;
  }

  Cycles FlushDev(int dev) {
    std::vector<RefBuf*> dirty;
    for (RefBuf& b : bufs_) {
      if (b.valid && b.dirty && !b.jpinned && b.dev == dev) {
        dirty.push_back(&b);
      }
    }
    return FlushBufs(dev, dirty);
  }

  Cycles FlushBufs(int dev, std::vector<RefBuf*>& bufs) {
    if (bufs.empty()) {
      return 0;
    }
    std::vector<BlockRequest> reqs(bufs.size());
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      reqs[i].op = BlockOp::kWrite;
      reqs[i].lba = bufs[i]->lba;
      reqs[i].count = 1;
      reqs[i].buf = bufs[i]->data.data();
      Queue(dev).Submit(&reqs[i]);
    }
    Cycles dev_time = Queue(dev).CompleteAll();
    for (std::size_t i = 0; i < bufs.size(); ++i) {
      bufs[i]->dirty = false;
      bufs[i]->io_failed = reqs[i].status != BlockStatus::kOk;
      if (bufs[i]->io_failed) {
        pending_error_[static_cast<std::size_t>(dev)] = kErrIo;
      }
    }
    return dev_time + Cycles(bufs.size()) * cfg_.cost.bcache_flush_work;
  }

  std::int64_t Range(BlockOp op, int dev, std::uint64_t lba, std::uint32_t count,
                     std::uint8_t* buf, Cycles* burn) {
    BlockRequest req;
    req.op = op;
    req.lba = lba;
    req.count = count;
    req.buf = buf;
    *burn += Queue(dev).SubmitAndWait(&req);
    if (req.status != BlockStatus::kOk) {
      return kErrIo;
    }
    return 0;
  }

  const KernelConfig& cfg_;
  std::vector<BlockRequestQueue> queues_;
  std::vector<std::int64_t> pending_error_;
  std::array<RefBuf, kNumBufs> bufs_;
  std::list<RefBuf*> lru_;  // front = most recent
  std::function<Cycles()> now_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t invalidated_ = 0;
};

struct ShadowCase {
  const char* name;
  bool writeback;
  bool bypass;
  bool faults;
};

void PrintTo(const ShadowCase& c, std::ostream* os) { *os << c.name; }

// One side of the comparison: RAM disks behind optional fault injection,
// each logging the transfers that reach it.
struct ShadowDisks {
  static constexpr int kDevs = 2;
  static constexpr std::uint64_t kBlocks = 96;  // 192 blocks over 64 buffers

  explicit ShadowDisks(const KernelConfig& cfg, bool faults) : fi(cfg) {
    if (faults) {
      // The same seed on both sides: identical call sequences draw identical
      // faults, so every failure path must line up too.
      EXPECT_EQ(fi.Command("on\nseed 77\ntransient_rate 0.03\nstuck 0 90 2\nstuck 1 5 1\n"), 0);
    }
    for (int d = 0; d < kDevs; ++d) {
      disks.push_back(std::make_unique<RamDisk>(kBlocks * kBlockSize));
      faulty.push_back(std::make_unique<FaultInjectingBlockDevice>(disks.back().get(), &fi, d));
      rec.push_back(std::make_unique<RecordingDevice>(faulty.back().get()));
    }
  }

  FaultInjector fi;
  std::vector<std::unique_ptr<RamDisk>> disks;
  std::vector<std::unique_ptr<FaultInjectingBlockDevice>> faulty;
  std::vector<std::unique_ptr<RecordingDevice>> rec;
};

class BcacheShadowTest : public ::testing::TestWithParam<ShadowCase> {};

TEST_P(BcacheShadowTest, MatchesTheListAndScanModel) {
  KernelConfig cfg;
  cfg.opt_writeback_cache = GetParam().writeback;
  cfg.opt_bcache_bypass = GetParam().bypass;
  ShadowDisks real_disks(cfg, GetParam().faults);
  ShadowDisks ref_disks(cfg, GetParam().faults);
  Bcache real(cfg);
  RefBcache ref(cfg);
  Cycles now = 0;
  real.SetNowFn([&now] { return now; });
  ref.SetNowFn([&now] { return now; });
  for (int d = 0; d < ShadowDisks::kDevs; ++d) {
    ASSERT_EQ(real.AddDevice(real_disks.rec[static_cast<std::size_t>(d)].get()), d);
    ASSERT_EQ(ref.AddDevice(ref_disks.rec[static_cast<std::size_t>(d)].get()), d);
  }

  struct Held {
    Buf* real;
    RefBcache::RefBuf* ref;
  };
  std::vector<Held> held;
  struct Logged {
    int dev;
    Bcache::CheckpointWrite w;
    std::vector<std::uint8_t> image;
  };
  std::vector<Logged> logged;  // journaled images awaiting a checkpoint
  std::uint64_t seq = 0;
  int range_writes = 0;
  Rng rng(0xbcac4e);

  // A hot set gives hits; the cold tail forces recycling.
  auto pick_lba = [&rng] {
    return rng.Chance(0.7) ? rng.NextBelow(24) : rng.NextBelow(ShadowDisks::kBlocks);
  };
  auto pick_dev = [&rng] { return static_cast<int>(rng.NextBelow(ShadowDisks::kDevs)); };
  auto overlaps_held = [&held](int dev, std::uint64_t lba, std::uint32_t count) {
    for (const Held& h : held) {
      if (h.real->dev == dev && h.real->lba >= lba && h.real->lba < lba + count) {
        return true;
      }
    }
    return false;
  };

  constexpr int kOps = 10000;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE(testing::Message() << "op " << op);
    now += Us(50);
    const std::uint64_t kind = rng.NextBelow(100);
    const bool must_release = held.size() >= 12;
    Cycles real_burn = 0;
    Cycles ref_burn = 0;
    if (!must_release && (kind < 40 || held.empty())) {
      // bread, kept referenced for a while (a pinned working set).
      const int dev = pick_dev();
      const std::uint64_t lba = pick_lba();
      Buf* rb = real.Read(dev, lba, &real_burn);
      RefBcache::RefBuf* fb = ref.Read(dev, lba, &ref_burn);
      ASSERT_EQ(rb == nullptr, fb == nullptr);
      if (rb != nullptr) {
        ASSERT_EQ(rb->dev, dev);
        ASSERT_EQ(rb->lba, lba);
        ASSERT_TRUE(std::equal(rb->data.begin(), rb->data.end(), fb->data.begin()));
        held.push_back(Held{rb, fb});
      }
    } else if (kind < 60 && !must_release) {
      // bwrite a referenced buffer with fresh bytes.
      Held& h = held[rng.NextBelow(held.size())];
      const auto fill = static_cast<std::uint8_t>(rng.Next());
      h.real->data.fill(fill);
      h.ref->data.fill(fill);
      h.real->data[static_cast<std::size_t>(op) % kBlockSize] = static_cast<std::uint8_t>(op);
      h.ref->data[static_cast<std::size_t>(op) % kBlockSize] = static_cast<std::uint8_t>(op);
      ASSERT_EQ(real.Write(h.real, &real_burn), ref.Write(h.ref, &ref_burn));
    } else if (kind < 75 || must_release) {
      // brelse.
      const std::size_t i = rng.NextBelow(held.size());
      real.Release(held[i].real);
      ref.Release(held[i].ref);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (kind < 81) {
      const int dev = pick_dev();
      const auto count = static_cast<std::uint32_t>(1 + rng.NextBelow(6));
      const std::uint64_t lba = rng.NextBelow(ShadowDisks::kBlocks - count);
      std::vector<std::uint8_t> a(count * kBlockSize);
      std::vector<std::uint8_t> b(count * kBlockSize);
      ASSERT_EQ(real.ReadRange(dev, lba, count, a.data(), &real_burn),
                ref.ReadRange(dev, lba, count, b.data(), &ref_burn));
      ASSERT_EQ(a, b);
    } else if (kind < 88) {
      const int dev = pick_dev();
      const auto count = static_cast<std::uint32_t>(1 + rng.NextBelow(6));
      const std::uint64_t lba = rng.NextBelow(ShadowDisks::kBlocks - count);
      if (GetParam().bypass && overlaps_held(dev, lba, count)) {
        continue;  // a range write over a referenced buffer is a caller bug
      }
      ++range_writes;
      std::vector<std::uint8_t> in(count * kBlockSize);
      for (std::uint8_t& byte : in) {
        byte = static_cast<std::uint8_t>(rng.Next());
      }
      ASSERT_EQ(real.WriteRange(dev, lba, count, in.data(), &real_burn),
                ref.WriteRange(dev, lba, count, in.data(), &ref_burn));
    } else if (kind < 90) {
      ASSERT_EQ(real.FlushAged(now, Ms(2)), ref.FlushAged(now, Ms(2)));
    } else if (kind < 94 && GetParam().writeback) {
      // Journal a referenced buffer: dirty and pinned until a checkpoint.
      Held& h = held[rng.NextBelow(held.size())];
      real.MarkJournaled(h.real, ++seq);
      ref.MarkJournaled(h.ref, seq);
      Logged l{h.real->dev, {}, std::vector<std::uint8_t>(h.real->data.begin(), h.real->data.end())};
      l.w.lba = h.real->lba;
      l.w.seq = seq;
      logged.push_back(std::move(l));
    } else if (kind < 97) {
      // Checkpoint one device's journaled images, oldest first. A failed
      // pass keeps its records for the next one, as the journal does.
      const int dev = pick_dev();
      std::vector<Bcache::CheckpointWrite> writes;
      for (Logged& l : logged) {
        if (l.dev == dev) {
          l.w.data = l.image.data();
          writes.push_back(l.w);
        }
      }
      std::int64_t real_err = 0;
      std::int64_t ref_err = 0;
      ASSERT_EQ(real.CheckpointBlocks(dev, writes, &real_err),
                ref.CheckpointBlocks(dev, writes, &ref_err));
      ASSERT_EQ(real_err, ref_err);
      if (real_err == 0) {
        std::erase_if(logged, [dev](const Logged& l) { return l.dev == dev; });
      }
    } else if (kind < 98) {
      const int dev = pick_dev();
      ASSERT_EQ(real.TakeError(dev), ref.TakeError(dev));
    } else if (GetParam().faults) {
      // The device starts refusing a block the cache holds (so its next
      // write-through, write-back or checkpoint fails), or heals them all.
      std::string cmd = "clear_ranges\n";
      if (rng.Chance(0.7)) {
        const Held& h = held[rng.NextBelow(held.size())];
        cmd = "stuck " + std::to_string(h.real->dev) + " " + std::to_string(h.real->lba) + " 1\n";
      }
      ASSERT_EQ(real_disks.fi.Command(cmd), 0);
      ASSERT_EQ(ref_disks.fi.Command(cmd), 0);
    }
    ASSERT_EQ(real_burn, ref_burn);
    ASSERT_EQ(real.hits(), ref.hits());
    ASSERT_EQ(real.misses(), ref.misses());
    for (int d = 0; d < ShadowDisks::kDevs; ++d) {
      ASSERT_EQ(real.DirtyCount(d), ref.DirtyCount(d)) << "dev " << d;
      ASSERT_EQ(real.PinnedCount(d), ref.PinnedCount(d)) << "dev " << d;
    }
  }

  for (const Held& h : held) {
    real.Release(h.real);
    ref.Release(h.ref);
  }
  EXPECT_EQ(real.FlushAll(), ref.FlushAll());
  for (int d = 0; d < ShadowDisks::kDevs; ++d) {
    const auto i = static_cast<std::size_t>(d);
    const std::vector<RecordingDevice::Entry>& a = real_disks.rec[i]->log;
    const std::vector<RecordingDevice::Entry>& b = ref_disks.rec[i]->log;
    ASSERT_EQ(a.size(), b.size()) << "dev " << d;
    for (std::size_t k = 0; k < a.size(); ++k) {
      ASSERT_TRUE(a[k].op == b[k].op && a[k].lba == b[k].lba && a[k].count == b[k].count)
          << "dev " << d << " transfer " << k << ": lba " << a[k].lba << " vs " << b[k].lba;
    }
    EXPECT_TRUE(std::equal(real_disks.disks[i]->data().begin(), real_disks.disks[i]->data().end(),
                           ref_disks.disks[i]->data().begin()))
        << "dev " << d << " contents differ";
  }
  // The run must have exercised what it claims to.
  EXPECT_GT(real.hits(), 1000u);
  EXPECT_GT(real.misses(), 500u);
  EXPECT_GT(range_writes, 200);
  if (GetParam().bypass) {
    EXPECT_GT(ref.invalidated(), 100u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, BcacheShadowTest,
    ::testing::Values(ShadowCase{"writeback", true, true, false},
                      ShadowCase{"writeback_faults", true, true, true},
                      ShadowCase{"writeback_no_bypass", true, false, false},
                      ShadowCase{"writethrough_faults", false, false, true}),
    [](const ::testing::TestParamInfo<ShadowCase>& p) { return std::string(p.param.name); });

}  // namespace
}  // namespace vos
