// Block I/O path benchmark: repeated 4 KB writes, sequential vs random,
// with the write-back bcache vs xv6-style write-through. Two levels:
//
//  1. Cache level — Bcache directly over the SD model, so the elevator +
//     merge effect of the request queue is visible in isolation. The
//     workload rewrites a small working set (the "edit a config file in a
//     loop" pattern); write-back absorbs the rewrites in DRAM and pays the
//     device only on throttle/flush, in LBA-sorted merged bursts.
//  2. OS level — a user program issuing 4 KB writes through open/lseek/
//     write/fsync on the FAT32 SD volume, with /proc/blkstat counters
//     after the run (hits/writebacks/merged end to end).
//  3. Metadata-op storm — a create/unlink/fsync-heavy workload on xv6fs
//     comparing journal-off synchronous writes, per-transaction journal
//     commits, and group commit. This is the write-ahead journal's headline
//     number: group commit turns every op's scattered metadata updates into
//     one sequential log record per durability point.
//
// Results land in bench/out/BENCH_blkio.json (CI asserts the group-commit
// speedup and uploads the JSON as an artifact).
#include <cstring>
#include <fstream>

#include "bench/bench_out.h"
#include "bench/bench_util.h"
#include "src/fs/bcache.h"
#include "src/fs/journal.h"
#include "src/fs/xv6fs.h"
#include "src/ulib/usys.h"
#include "src/ulib/ustdio.h"

namespace vos {
namespace {

constexpr std::uint32_t kChunkBlocks = 4096 / kBlockSize;  // 4 KB = 8 blocks

// Deterministic xorshift so "random" order is reproducible run to run.
std::uint64_t NextRand(std::uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

struct CacheResult {
  double ms = 0;  // virtual time burned by the writer (+ final flush)
  BlockDevStats stats;
};

// `passes` rewrites of a `chunks`-chunk working set, one 4 KB chunk per
// write, through the cached single-block path (what Xv6Fs::Writei does).
CacheResult CacheLevel(bool writeback, bool sequential, int chunks, int passes) {
  KernelConfig cfg;
  cfg.opt_writeback_cache = writeback;
  SdCard card(MiB(8));
  card.CmdGoIdle();
  card.CmdSendIfCond(0x1aa);
  while (!(card.state() == SdCard::State::kIdent || card.ready())) {
    card.AcmdSendOpCond();
  }
  card.CmdAllSendCid();
  std::uint16_t rca = 0;
  card.CmdSendRelativeAddr(&rca);
  card.CmdSelectCard(rca);
  SdBlockDevice sd(card, 0, card.capacity_blocks(), /*use_dma=*/false);
  Bcache bc(cfg);
  int dev = bc.AddDevice(&sd, "sd");
  Cycles now = 0;  // fake clock: the burn total doubles as "now" for aging
  bc.SetNowFn([&now] { return now; });

  std::vector<int> order(static_cast<std::size_t>(chunks));
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  std::vector<std::uint8_t> payload(4096);
  Cycles total = 0;
  for (int p = 0; p < passes; ++p) {
    for (int i = 0; i < chunks; ++i) {
      order[static_cast<std::size_t>(i)] = i;
    }
    if (!sequential) {
      for (int i = chunks - 1; i > 0; --i) {
        std::swap(order[static_cast<std::size_t>(i)],
                  order[NextRand(&seed) % static_cast<std::uint64_t>(i + 1)]);
      }
    }
    std::memset(payload.data(), p + 1, payload.size());
    for (int c : order) {
      for (std::uint32_t k = 0; k < kChunkBlocks; ++k) {
        Cycles burn = 0;
        Buf* b = bc.Read(dev, std::uint64_t(c) * kChunkBlocks + k, &burn);
        std::copy(payload.begin() + k * kBlockSize,
                  payload.begin() + (k + 1) * kBlockSize, b->data.begin());
        Cycles w = 0;
        bc.Write(b, &w);
        bc.Release(b);
        total += burn + w;
        now = total;
      }
    }
  }
  total += bc.FlushAll();  // durability: both configs end with the disk current
  CacheResult out;
  out.ms = ToSec(total) * 1e3;
  out.stats = bc.stats(dev);
  return out;
}

void PrintCacheRow(const char* label, const CacheResult& wb, const CacheResult& wt) {
  std::printf("%-18s %8.2f ms %8.2f ms  %5.2fx   %5llu %9llu %7llu\n", label, wb.ms,
              wt.ms, wt.ms / std::max(wb.ms, 1e-9),
              static_cast<unsigned long long>(wb.stats.hits),
              static_cast<unsigned long long>(wb.stats.writebacks),
              static_cast<unsigned long long>(wb.stats.merged));
}

// OS-level workload: `passes` rewrite passes of 4 KB writes over a 64 KB
// file on the FAT32 SD volume, fsync at the end, report virtual wall time.
int Blkio4kApp(AppEnv& env) {
  constexpr int kChunks = 16;
  constexpr int kPasses = 6;
  bool random = env.argv.size() > 1 && env.argv[1] == "--random";
  std::vector<std::uint8_t> buf(4096);
  std::int64_t fd = uopen(env, "/d/blkio.dat", kOWronly | kOCreate | kOTrunc);
  if (fd < 0) {
    uprintf(env, "blkio4k: cannot create /d/blkio.dat\n");
    return 1;
  }
  std::uint64_t seed = 0x2545f4914f6cdd1dull;
  Cycles start = env.kernel->Now();
  for (int p = 0; p < kPasses; ++p) {
    std::memset(buf.data(), p + 1, buf.size());
    for (int i = 0; i < kChunks; ++i) {
      // Pass 0 is always sequential so the file reaches full size before
      // random passes seek around in it.
      std::int64_t c =
          random && p > 0 ? std::int64_t(NextRand(&seed) % kChunks) : i;
      if (ulseek(env, static_cast<int>(fd), c * 4096, 0) < 0 ||
          uwrite(env, static_cast<int>(fd), buf.data(), 4096) != 4096) {
        return 1;
      }
    }
  }
  if (ufsync(env, static_cast<int>(fd)) != 0) {
    return 1;
  }
  Cycles dur = env.kernel->Now() - start;
  uclose(env, static_cast<int>(fd));
  uunlink(env, "/d/blkio.dat");
  uprintf(env, "blkio_us %llu\n", static_cast<unsigned long long>(ToUs(dur)));
  return 0;
}

// --- Metadata-op storm -------------------------------------------------------

enum class MetaMode {
  kSync,         // no journal, write-through cache: every update hits the disk
  kJournal,      // journal on, group commit off: one record per transaction
  kGroupCommit,  // journal on, group commit on: one record per fsync batch
};

struct MetaResult {
  double ms = 0;
  double ops_per_sec = 0;
  std::uint64_t ops = 0;
  std::uint64_t commits = 0;
  std::uint64_t blocks_logged = 0;
  std::uint64_t coalesced = 0;
};

// `files` create+write pairs with an fsync every 4th op and an unlink of an
// older file per fsync window — the "untar a source tree / build churn"
// pattern. Identical op sequence for all three modes; only the durability
// mechanism differs. Virtual time includes a final drain/flush so every mode
// ends with the disk fully current.
MetaResult MetaStorm(MetaMode mode, int files) {
  KernelConfig cfg;
  cfg.jrnl_group_commit = mode == MetaMode::kGroupCommit;
  if (mode == MetaMode::kSync) {
    cfg.opt_writeback_cache = false;  // xv6-style synchronous metadata writes
  }
  std::uint32_t nlog = mode == MetaMode::kSync ? 0 : kJrnlDefaultLogBlocks;
  // SD-backed so the command overhead per transfer is realistic: synchronous
  // scattered metadata writes pay it per block, the journal amortizes it over
  // one sequential ranged write per commit.
  SdCard card(MiB(8));
  card.CmdGoIdle();
  card.CmdSendIfCond(0x1aa);
  while (!(card.state() == SdCard::State::kIdent || card.ready())) {
    card.AcmdSendOpCond();
  }
  card.CmdAllSendCid();
  std::uint16_t rca = 0;
  card.CmdSendRelativeAddr(&rca);
  card.CmdSelectCard(rca);
  SdBlockDevice disk(card, 0, card.capacity_blocks(), /*use_dma=*/false);
  ByteStore img = Xv6Fs::Mkfs(1024, 128, nlog);
  disk.Write(0, img.size() / kBlockSize, img.data());
  Bcache bc(cfg);
  int dev = bc.AddDevice(&disk, "meta");
  Xv6Fs fs(bc, dev, cfg);
  Journal jrnl(bc, dev, cfg);
  Cycles total = 0;
  Cycles burn = 0;
  if (fs.Mount(&burn) != 0) {
    return {};
  }
  if (mode != MetaMode::kSync) {
    if (jrnl.Init(fs.sb(), &burn) != 0 || !jrnl.active()) {
      return {};
    }
    fs.AttachJournal(&jrnl);
  }
  MetaResult out;
  std::vector<std::uint8_t> payload(256, 'm');
  for (int i = 0; i < files; ++i) {
    Cycles b = 0;
    std::string path = "/m" + std::to_string(i);
    std::int64_t err = 0;
    Xv6InodePtr ip = fs.Create(path, kXv6TFile, 0, 0, &err, &b);
    if (ip == nullptr) {
      return {};
    }
    fs.Writei(*ip, payload.data(), 0, std::uint32_t(payload.size()), &b);
    out.ops += 2;  // create + write
    if (i % 4 == 3) {
      // Reclaim one older file, then make the whole window durable.
      fs.Unlink("/m" + std::to_string(i - 3), &b);
      std::int64_t s = mode == MetaMode::kSync ? 0 : fs.SyncJournal(&b);
      if (mode == MetaMode::kSync) {
        b += bc.FlushDev(dev);  // nothing dirty in write-through: a no-op
      }
      if (s != 0) {
        return {};
      }
      out.ops += 2;  // unlink + fsync
    }
    total += b;
  }
  Cycles b = 0;
  if (mode != MetaMode::kSync && fs.DrainJournal(&b) != 0) {
    return {};
  }
  total += b + bc.FlushAll();
  out.ms = ToSec(total) * 1e3;
  out.ops_per_sec = out.ms > 0 ? double(out.ops) / (out.ms / 1e3) : 0;
  Journal::Stats js = jrnl.stats();
  out.commits = js.commits;
  out.blocks_logged = js.blocks_logged;
  out.coalesced = js.coalesced;
  return out;
}

void PrintMetaRow(const char* label, const MetaResult& r) {
  std::printf("  %-14s %8.2f ms %10.0f ops/s   %6llu %8llu %9llu\n", label, r.ms,
              r.ops_per_sec, static_cast<unsigned long long>(r.commits),
              static_cast<unsigned long long>(r.blocks_logged),
              static_cast<unsigned long long>(r.coalesced));
}

double OsLevelUs(bool writeback, bool random, std::string* blkstat) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.config_hook = [writeback](KernelConfig& kc) { kc.opt_writeback_cache = writeback; };
  System sys(opt);
  std::vector<std::string> args;
  if (random) {
    args.push_back("--random");
  }
  if (sys.RunProgram("blkio4k", args, Sec(1200)) != 0) {
    return 0;
  }
  if (blkstat != nullptr) {
    std::string before = sys.SerialOutput();
    sys.RunProgram("cat", {"/proc/blkstat"});
    *blkstat = sys.SerialOutput().substr(before.size());
  }
  return ParseMetric(sys.SerialOutput(), "blkio_us ").value_or(0);
}

void Run() {
  PrintHeader("Block I/O: repeated 4 KB writes, write-back vs write-through");

  std::printf("\nCache level (Bcache over SD, 6 passes x 8 chunks of 4 KB):\n");
  std::printf("%-18s %11s %11s %8s   %s\n", "", "write-back", "write-thru", "speedup",
              "hits  writebacks  merged");
  PrintCacheRow("sequential", CacheLevel(true, true, 8, 6), CacheLevel(false, true, 8, 6));
  PrintCacheRow("random", CacheLevel(true, false, 8, 6), CacheLevel(false, false, 8, 6));

  std::printf("\nOS level (open/lseek/write/fsync on /d, 6 passes x 16 x 4 KB):\n");
  std::string blkstat;
  double seq_wb = OsLevelUs(true, false, &blkstat);
  double seq_wt = OsLevelUs(false, false, nullptr);
  double rnd_wb = OsLevelUs(true, true, nullptr);
  double rnd_wt = OsLevelUs(false, true, nullptr);
  std::printf("sequential: %9.0f us write-back vs %9.0f us write-through (%.2fx)\n", seq_wb,
              seq_wt, seq_wt / std::max(seq_wb, 1.0));
  std::printf("random:     %9.0f us write-back vs %9.0f us write-through (%.2fx)\n", rnd_wb,
              rnd_wt, rnd_wt / std::max(rnd_wb, 1.0));
  std::printf("\n/proc/blkstat after the sequential write-back run:\n%s", blkstat.c_str());

  constexpr int kMetaFiles = 64;
  std::printf("\nMetadata-op storm (%d x create+256B write, unlink+fsync every 4th):\n",
              kMetaFiles);
  std::printf("  %-14s %11s %16s   %s\n", "", "time", "throughput",
              "commits  logged  coalesced");
  MetaResult sync = MetaStorm(MetaMode::kSync, kMetaFiles);
  MetaResult pertx = MetaStorm(MetaMode::kJournal, kMetaFiles);
  MetaResult group = MetaStorm(MetaMode::kGroupCommit, kMetaFiles);
  PrintMetaRow("sync (no jrnl)", sync);
  PrintMetaRow("per-tx commit", pertx);
  PrintMetaRow("group commit", group);
  double group_speedup = sync.ops_per_sec > 0 ? group.ops_per_sec / sync.ops_per_sec : 0;
  double pertx_speedup = sync.ops_per_sec > 0 ? pertx.ops_per_sec / sync.ops_per_sec : 0;
  std::printf("meta_speedup_group_vs_sync %.2f\n", group_speedup);
  std::printf("meta_speedup_pertx_vs_sync %.2f\n", pertx_speedup);

  std::ofstream json(BenchOutPath("BENCH_blkio.json"));
  json << "{\n"
       << "  \"cache_4k\": {\n"
       << "    \"seq_writeback_ms\": " << CacheLevel(true, true, 8, 6).ms << ",\n"
       << "    \"seq_writethrough_ms\": " << CacheLevel(false, true, 8, 6).ms << "\n"
       << "  },\n"
       << "  \"os_4k_us\": {\n"
       << "    \"seq_writeback\": " << seq_wb << ",\n"
       << "    \"seq_writethrough\": " << seq_wt << ",\n"
       << "    \"rand_writeback\": " << rnd_wb << ",\n"
       << "    \"rand_writethrough\": " << rnd_wt << "\n"
       << "  },\n"
       << "  \"meta_storm\": {\n"
       << "    \"files\": " << kMetaFiles << ",\n"
       << "    \"sync_ops_per_s\": " << sync.ops_per_sec << ",\n"
       << "    \"pertx_ops_per_s\": " << pertx.ops_per_sec << ",\n"
       << "    \"group_ops_per_s\": " << group.ops_per_sec << ",\n"
       << "    \"group_commits\": " << group.commits << ",\n"
       << "    \"group_blocks_logged\": " << group.blocks_logged << ",\n"
       << "    \"group_coalesced\": " << group.coalesced << ",\n"
       << "    \"speedup_pertx_vs_sync\": " << pertx_speedup << ",\n"
       << "    \"speedup_group_vs_sync\": " << group_speedup << "\n"
       << "  }\n}\n";
  std::printf("\nwrote bench/out/BENCH_blkio.json\n");
}

AppRegistrar blkio_app("blkio4k", Blkio4kApp, 1100, 1 << 20);

}  // namespace
}  // namespace vos

int main() {
  vos::Run();
  return 0;
}
