// google-benchmark micro suite over the library's own primitives — host-side
// performance of the simulator (not virtual-time results). Useful for keeping
// the simulation fast enough to run the paper's experiments interactively.
#include <benchmark/benchmark.h>

#include "src/base/inflate.h"
#include "src/base/deflate.h"
#include "src/base/sha256.h"
#include "src/fs/bcache.h"
#include "src/fs/fat32.h"
#include "src/fs/xv6fs.h"
#include "src/hw/event_queue.h"
#include "src/hw/phys_mem.h"
#include "src/kernel/spinlock.h"
#include "src/kernel/task.h"
#include "src/media/vmv.h"
#include "src/ulib/pixel.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"

namespace vos {
namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(80)->Arg(4096);

void BM_DeflateInflate(benchmark::State& state) {
  std::string text;
  for (int i = 0; i < 100; ++i) {
    text += "all work and no play makes the kernel a dull boy ";
  }
  for (auto _ : state) {
    auto c = Deflate(reinterpret_cast<const std::uint8_t*>(text.data()), text.size());
    benchmark::DoNotOptimize(Inflate(c.data(), c.size()));
  }
}
BENCHMARK(BM_DeflateInflate);

void BM_EventQueue(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue eq;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      eq.Schedule(static_cast<Cycles>(i), [&fired] { ++fired; });
    }
    eq.RunDue(1000);
    benchmark::DoNotOptimize(fired);
  }
}
BENCHMARK(BM_EventQueue);

void BM_Dct8x8RoundTrip(benchmark::State& state) {
  std::int16_t block[64];
  for (int i = 0; i < 64; ++i) {
    block[i] = static_cast<std::int16_t>(i * 3 - 90);
  }
  for (auto _ : state) {
    std::int32_t freq[64];
    std::int16_t back[64];
    Dct8x8(block, freq);
    Idct8x8(freq, back);
    benchmark::DoNotOptimize(back[0]);
  }
}
BENCHMARK(BM_Dct8x8RoundTrip);

// One 640x480 P-frame: motion search, residual transforms, entropy coding.
void BM_VmvEncodeFrame640x480(benchmark::State& state) {
  std::vector<YuvFrame> frames = SynthesizeScene(640, 480, 2);
  for (auto _ : state) {
    state.PauseTiming();
    VmvEncoder enc(640, 480);
    enc.AddFrame(frames[0]);  // the I-frame the P-frame predicts from
    state.ResumeTiming();
    enc.AddFrame(frames[1]);
    state.PauseTiming();
    std::vector<std::uint8_t> bits = enc.Finish();
    benchmark::DoNotOptimize(bits.data());
    state.ResumeTiming();
  }
}
BENCHMARK(BM_VmvEncodeFrame640x480)->Unit(benchmark::kMillisecond);

// Decoding that P-frame: entropy decode, inverse transforms, motion compensation.
void BM_VmvDecodeFrame640x480(benchmark::State& state) {
  std::vector<YuvFrame> frames = SynthesizeScene(640, 480, 2);
  VmvEncoder enc(640, 480);
  enc.AddFrame(frames[0]);
  enc.AddFrame(frames[1]);
  std::vector<std::uint8_t> bits = enc.Finish();
  YuvFrame out;
  for (auto _ : state) {
    state.PauseTiming();
    VmvDecoder dec;
    dec.Open(bits.data(), bits.size());
    dec.DecodeFrame(&out);  // the I-frame
    state.ResumeTiming();
    benchmark::DoNotOptimize(dec.DecodeFrame(&out));
    benchmark::DoNotOptimize(out.y.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_VmvDecodeFrame640x480)->Unit(benchmark::kMillisecond);

void BM_YuvConvertFixed(benchmark::State& state) {
  std::uint32_t w = 320, h = 240;
  std::vector<std::uint8_t> y(w * h, 100), u(w * h / 4, 90), v(w * h / 4, 160);
  std::vector<std::uint32_t> rgb(w * h);
  for (auto _ : state) {
    Yuv420ToRgbFixed(rgb.data(), y.data(), u.data(), v.data(), w, h);
    benchmark::DoNotOptimize(rgb[0]);
  }
  state.SetBytesProcessed(state.iterations() * w * h * 3 / 2);
}
BENCHMARK(BM_YuvConvertFixed);

void BM_Xv6fsWriteRead(benchmark::State& state) {
  auto image = Xv6Fs::Mkfs(2048, 64);
  KernelConfig cfg;
  for (auto _ : state) {
    RamDisk disk(image);
    Bcache bc(cfg);
    Xv6Fs fsys(bc, bc.AddDevice(&disk), cfg);
    Cycles burn = 0;
    fsys.Mount(&burn);
    std::int64_t err = 0;
    auto ip = fsys.Create("/bench", kXv6TFile, 0, 0, &err, &burn);
    std::vector<std::uint8_t> data(64 * 1024, 0xaa);
    fsys.Writei(*ip, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    fsys.Readi(*ip, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    benchmark::DoNotOptimize(data[0]);
  }
}
BENCHMARK(BM_Xv6fsWriteRead);

void BM_Fat32WriteRead(benchmark::State& state) {
  ByteStore image(MiB(4));
  FatVolume::Mkfs(image);
  KernelConfig cfg;
  for (auto _ : state) {
    RamDisk disk(image);
    Bcache bc(cfg);
    FatVolume fat(bc, bc.AddDevice(&disk), cfg);
    Cycles burn = 0;
    fat.Mount(&burn);
    FatNode node;
    fat.Create("/bench.bin", false, &node, &burn);
    std::vector<std::uint8_t> data(64 * 1024, 0xbb);
    fat.Write(node, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    fat.Read(node, data.data(), 0, static_cast<std::uint32_t>(data.size()), &burn);
    benchmark::DoNotOptimize(data[0]);
  }
}
BENCHMARK(BM_Fat32WriteRead);

void BM_FiberSwitch(benchmark::State& state) {
  // Host cost of one task activation round trip through the machine loop.
  SystemOptions opt = OptionsForStage(Stage::kProto2);
  System sys(opt);
  Kernel& k = sys.kernel();
  k.CreateKernelTask("spin", [&k] {
    Task* self = k.CurrentTask();
    while (!self->killed) {
      self->fiber().Burn(Us(10));
    }
  });
  for (auto _ : state) {
    sys.Run(Ms(1));
  }
}
BENCHMARK(BM_FiberSwitch);

// The hot path of every simulated memory access on a scrambled board: a load
// from a page that already got its junk still checks that it has.
void BM_PhysMemLoad(benchmark::State& state) {
  PhysMem mem(MiB(1));
  mem.Scramble(1);
  const PhysAddr page = KiB(64);
  mem.Load<std::uint64_t>(page);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.Load<std::uint64_t>(page + (i++ % 512) * 8));
  }
}
BENCHMARK(BM_PhysMemLoad);

// One checked SpinLock round trip with lockdep and racedet on, taken while
// an outer lock is held (so each acquire runs the order check against one
// held entry), through the kernel's own backtrace provider: on the machine
// thread (in_task:0) and on a task fiber with a shadow call stack (in_task:1).
void BM_SpinLockAcquireRelease(benchmark::State& state) {
  System sys(OptionsForStage(Stage::kProto2));
  SpinLock outer("bench_outer");
  SpinLock inner("bench_inner");
  auto loop = [&] {
    SpinGuard o(outer);
    for (auto _ : state) {
      SpinGuard i(inner);
    }
  };
  if (state.range(0) == 0) {
    loop();
    return;
  }
  Kernel& k = sys.kernel();
  bool done = false;
  k.CreateKernelTask("bench_locks", [&] {
    StackFrame f1(k.CurrentTask(), "bench_locks_main");
    StackFrame f2(k.CurrentTask(), "bench_locks_loop");
    loop();
    done = true;
  });
  while (!done) {
    sys.Run(Ms(1));
  }
}
BENCHMARK(BM_SpinLockAcquireRelease)->ArgName("in_task")->Arg(0)->Arg(1);

// A bread+brelse that hits, with all 64 buffers valid (lockdep on, no task).
void BM_BcacheReadHit(benchmark::State& state) {
  KernelConfig cfg;
  RamDisk disk(256 * kBlockSize);
  Bcache bc(cfg);
  const int dev = bc.AddDevice(&disk);
  Cycles burn = 0;
  for (std::uint64_t lba = 0; lba < kNumBufs; ++lba) {
    bc.Release(bc.Read(dev, lba, &burn));
  }
  std::uint64_t i = 0;
  for (auto _ : state) {
    Buf* b = bc.Read(dev, (i++ * 7) % kNumBufs, &burn);
    bc.Release(b);
  }
}
BENCHMARK(BM_BcacheReadHit);

void BM_BootProto5(benchmark::State& state) {
  for (auto _ : state) {
    System sys(OptionsForStage(Stage::kProto5));
    benchmark::DoNotOptimize(sys.boot_report().total);
  }
}
BENCHMARK(BM_BootProto5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vos

BENCHMARK_MAIN();
