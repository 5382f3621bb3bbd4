// Syscall-interface tests, run through real user programs on a booted
// Prototype-5 system (and earlier stages for the ENOSYS gating).
#include <gtest/gtest.h>

#include "src/base/status.h"
#include "src/ulib/umalloc.h"
#include "src/ulib/ustdio.h"
#include "src/ulib/usys.h"
#include "src/kernel/velf.h"
#include "src/vos/prototypes.h"
#include "src/vos/system.h"
#include "tests/run_in_os.h"

namespace vos {
namespace {

class Proto5Test : public ::testing::Test {
 protected:
  Proto5Test() : sys_(OptionsForStage(Stage::kProto5)) {}
  System sys_;
};

TEST_F(Proto5Test, HelloExitCodeAndOutput) {
  EXPECT_EQ(sys_.RunProgram("hello", {"world"}), 0);
  EXPECT_NE(sys_.SerialOutput().find("hello from vos!"), std::string::npos);
  EXPECT_NE(sys_.SerialOutput().find("argv[1]=world"), std::string::npos);
}

TEST_F(Proto5Test, ExecOfMissingBinaryFails) {
  Task* t = sys_.kernel().StartUserProgram("/bin/no-such-app", {"no-such-app"});
  EXPECT_EQ(sys_.WaitProgram(t), -1);  // init-style wrapper exits -1
}

TEST_F(Proto5Test, ShellPipelineAndRedirection) {
  FsSpec extra;
  std::string script =
      "echo one two three > /tmp.txt\n"
      "cat /tmp.txt | wc\n"
      "grep two /tmp.txt\n"
      "rm /tmp.txt\n";
  // Write the script via a program, then run it with sh.
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  opt.extra_root.files.push_back(
      FsEntry{"/etc/test.sh", std::vector<std::uint8_t>(script.begin(), script.end())});
  System sys(opt);
  EXPECT_EQ(sys.RunProgram("sh", {"/etc/test.sh"}), 0);
  const std::string out = sys.SerialOutput();
  EXPECT_NE(out.find("1 3 14"), std::string::npos) << out;   // wc of "one two three\n"
  EXPECT_NE(out.find("one two three"), std::string::npos);   // grep matched
}

TEST_F(Proto5Test, ForkWaitExitCodePropagates) {
  Kernel* k = &sys_.kernel();
  int observed = -1;
  RunInOs(sys_, "forker", [k, &observed](AppEnv& env) -> int {
    std::int64_t pid = ufork(env, [k]() -> int { return 42; });
    EXPECT_GT(pid, 0);
    int status = 0;
    std::int64_t reaped = uwait(env, &status);
    EXPECT_EQ(reaped, pid);
    observed = status;
    return 0;
  });
  EXPECT_EQ(observed, 42);
}

TEST_F(Proto5Test, WaitWithNoChildrenFails) {
  RunInOs(sys_, "waiter", [](AppEnv& env) -> int {
    int status;
    return uwait(env, &status) == kErrChild ? 0 : 1;
  });
}

TEST_F(Proto5Test, PipesBlockAndCarryData) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "piper", [k](AppEnv& env) -> int {
    int fds[2];
    if (upipe(env, fds) < 0) {
      return 1;
    }
    std::int64_t pid = ufork(env, [k, wfd = fds[1]]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 5);  // reader must block meanwhile
      const char* msg = "through the pipe";
      uwrite(me, wfd, msg, 16);
      return 0;
    });
    (void)pid;
    uclose(env, fds[1]);  // close our write end so EOF is possible
    char buf[64] = {};
    std::int64_t n = uread(env, fds[0], buf, sizeof(buf));
    if (n != 16 || std::string(buf, 16) != "through the pipe") {
      return 2;
    }
    int status;
    uwait(env, &status);
    // After the writer exits and its end closes, read returns EOF.
    n = uread(env, fds[0], buf, sizeof(buf));
    return n == 0 ? 0 : 3;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, SbrkAndUserMalloc) {
  int rc = RunInOs(sys_, "heapuser", [](AppEnv& env) -> int {
    UserHeap heap(env);
    char* a = static_cast<char*>(heap.Malloc(1000));
    char* b = static_cast<char*>(heap.Malloc(50000));
    if (a == nullptr || b == nullptr) {
      return 1;
    }
    std::memset(a, 'a', 1000);
    std::memset(b, 'b', 50000);
    if (a[999] != 'a' || b[49999] != 'b') {
      return 2;
    }
    heap.Free(a);
    heap.Free(b);
    void* c = heap.Calloc(10, 10);
    for (int i = 0; i < 100; ++i) {
      if (static_cast<char*>(c)[i] != 0) {
        return 3;
      }
    }
    return heap.allocated_blocks() == 1 ? 0 : 4;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, SleepAdvancesUptime) {
  int rc = RunInOs(sys_, "sleeper", [](AppEnv& env) -> int {
    std::int64_t t0 = uuptime_ms(env);
    usleep_ms(env, 30);
    std::int64_t t1 = uuptime_ms(env);
    return (t1 - t0 >= 30 && t1 - t0 < 40) ? 0 : 1;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, KillTerminatesSleepingTask) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "killer", [k](AppEnv& env) -> int {
    std::int64_t pid = ufork(env, [k]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 100000);  // would sleep forever
      return 0;
    });
    usleep_ms(env, 5);
    if (ukill(env, static_cast<int>(pid)) < 0) {
      return 1;
    }
    int status;
    std::int64_t reaped = uwait(env, &status);
    return (reaped == pid && status == -1) ? 0 : 2;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, CloneSharesAddressSpace) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "threads", [k](AppEnv& env) -> int {
    UserHeap heap(env);
    int* shared = static_cast<int*>(heap.Malloc(sizeof(int)));
    *shared = 0;
    std::int64_t tid = uclone(env, [k, shared]() -> int {
      *shared = 1234;  // CLONE_VM: same heap arena
      return 0;
    });
    if (tid < 0) {
      return 1;
    }
    int status;
    uwait(env, &status);
    return *shared == 1234 ? 0 : 2;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, SemaphoresSynchronizeThreads) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "sems", [k](AppEnv& env) -> int {
    int sem = static_cast<int>(usem_create(env, 0));
    UserHeap heap(env);
    int* flag = static_cast<int*>(heap.Malloc(sizeof(int)));
    *flag = 0;
    uclone(env, [k, sem, flag]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 10);
      *flag = 1;
      usem_post(me, sem);
      return 0;
    });
    usem_wait(env, sem);  // must block until the thread posts
    int result = *flag == 1 ? 0 : 1;
    int status;
    uwait(env, &status);
    return result;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, UserMutexAndCondvar) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "condvar", [k](AppEnv& env) -> int {
    UserHeap heap(env);
    auto* counter = static_cast<int*>(heap.Malloc(sizeof(int)));
    *counter = 0;
    UMutex mu(env);
    UCondVar cv(env);
    uclone(env, [k, &mu, &cv, counter]() -> int {
      AppEnv me = ChildEnv(k);
      usleep_ms(me, 5);
      mu.Lock();
      *counter = 7;
      cv.Signal();
      mu.Unlock();
      return 0;
    });
    mu.Lock();
    while (*counter == 0) {
      cv.Wait(mu);
    }
    mu.Unlock();
    int result = *counter == 7 ? 0 : 1;
    int status;
    uwait(env, &status);
    return result;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, DupAndLseekAndFstat) {
  int rc = RunInOs(sys_, "fdops", [](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/roms/world1.lvl", kORdonly);
    if (fd < 0) {
      return 1;
    }
    Stat st;
    if (ufstat(env, static_cast<int>(fd), &st) < 0 || st.size == 0 ||
        st.type != kXv6TFile) {
      return 2;
    }
    std::int64_t dup_fd = udup(env, static_cast<int>(fd));
    char a, b;
    uread(env, static_cast<int>(fd), &a, 1);
    uread(env, static_cast<int>(dup_fd), &b, 1);
    // dup shares the open-file description, so the offset advanced to 2.
    if (ulseek(env, static_cast<int>(dup_fd), 0, /*SEEK_CUR=*/1) != 2) {
      return 3;
    }
    if (ulseek(env, static_cast<int>(fd), 0, 0) != 0) {
      return 4;
    }
    char again;
    uread(env, static_cast<int>(fd), &again, 1);
    return again == a ? 0 : 5;
  });
  EXPECT_EQ(rc, 0);
}

TEST_F(Proto5Test, LseekEdgeCases) {
  Kernel* k = &sys_.kernel();
  int rc = RunInOs(sys_, "seeker", [k](AppEnv& env) -> int {
    // SEEK_END on a regular file lands at its size.
    std::int64_t fd = uopen(env, "/roms/world1.lvl", kORdonly);
    if (fd < 0) {
      return 1;
    }
    Stat st;
    ufstat(env, static_cast<int>(fd), &st);
    if (ulseek(env, static_cast<int>(fd), 0, /*SEEK_END=*/2) != st.size) {
      return 2;
    }
    // Seeking before the start of the file is rejected and leaves the
    // offset where it was.
    if (ulseek(env, static_cast<int>(fd), -std::int64_t(st.size) - 1, 2) !=
        kErrInval) {
      return 3;
    }
    if (ulseek(env, static_cast<int>(fd), -5, /*SEEK_SET=*/0) != kErrInval) {
      return 4;
    }
    if (ulseek(env, static_cast<int>(fd), 0, /*SEEK_CUR=*/1) != st.size) {
      return 5;
    }
    // Bad whence.
    if (ulseek(env, static_cast<int>(fd), 0, 9) != kErrInval) {
      return 6;
    }
    uclose(env, static_cast<int>(fd));
    // SEEK_END on the framebuffer reports its mapped extent (the seed
    // hardcoded 0 for every device, making SEEK_END useless there).
    std::int64_t fb = uopen(env, "/dev/fb", kORdwr);
    if (fb < 0) {
      return 7;
    }
    std::int64_t end = ulseek(env, static_cast<int>(fb), 0, 2);
    if (end <= 0) {
      return 8;
    }
    uclose(env, static_cast<int>(fb));
    // Stream devices stay at 0: SEEK_END is a no-op position there.
    std::int64_t nul = uopen(env, "/dev/null", kORdwr);
    if (nul < 0) {
      return 9;
    }
    if (ulseek(env, static_cast<int>(nul), 0, 2) != 0) {
      return 10;
    }
    uclose(env, static_cast<int>(nul));
    return 0;
  });
  EXPECT_EQ(rc, 0);
  // The fb extent seen from userspace matches pitch * height.
  const FbDriver& fb = sys_.kernel().fb_driver();
  EXPECT_EQ(fb.SeekEndSize(), std::uint64_t(fb.pitch()) * fb.height());
}

TEST_F(Proto5Test, MmapFbAndCacheFlushPath) {
  int rc = RunInOs(sys_, "fbuser", [](AppEnv& env) -> int {
    std::uint32_t* fb = nullptr;
    std::uint32_t w = 0, h = 0;
    if (ummap_fb(env, &fb, &w, &h) < 0 || fb == nullptr || w == 0) {
      return 1;
    }
    fb[0] = 0xffd00d00;
    ucacheflush(env, 0, 64);
    return 0;
  });
  EXPECT_EQ(rc, 0);
  EXPECT_EQ(sys_.Screenshot().pixels[0], 0xffd00d00u);
}

TEST_F(Proto5Test, RawSyscallDispatch) {
  int rc = RunInOs(sys_, "rawcall", [](AppEnv& env) -> int {
    std::int64_t pid = env.kernel->SyscallRaw(Sys::kGetPid, 0, 0);
    if (pid <= 0) {
      return 1;
    }
    if (env.kernel->SyscallRaw(Sys::kExec, 0, 0) != kErrNoSys) {
      return 2;  // pointer syscalls are not reachable via the raw path
    }
    return 0;
  });
  EXPECT_EQ(rc, 0);
}

TEST(StageGating, Proto3HasNoFileSyscalls) {
  System sys(OptionsForStage(Stage::kProto3));
  AppRegistry::Instance().Register("probe3", [](AppEnv& env) -> int {
    if (uopen(env, "/anything", kORdonly) != kErrNoSys) {
      return 1;
    }
    if (uclone(env, []() -> int { return 0; }) != kErrNoSys) {
      return 2;
    }
    // write() is hardwired to UART (§4.3).
    const char* msg = "proto3 uart write\n";
    if (uwrite(env, 1, msg, 18) != 18) {
      return 3;
    }
    return 0;
  }, 1024, 1 << 20);
  sys.kernel().AddBootBlob("probe3", BuildVelf("probe3", 1024, {}, 1 << 20));
  Task* t = sys.kernel().StartUserProgram("probe3", {"probe3"});
  EXPECT_EQ(sys.WaitProgram(t), 0);
  EXPECT_NE(sys.SerialOutput().find("proto3 uart write"), std::string::npos);
}

TEST(StageGating, Proto4HasFilesButNoThreads) {
  System sys(OptionsForStage(Stage::kProto4));
  AppRegistry::Instance().Register("probe4", [](AppEnv& env) -> int {
    std::int64_t fd = uopen(env, "/etc/rc", kORdonly);
    if (fd < 0) {
      return 1;  // files must work
    }
    uclose(env, static_cast<int>(fd));
    if (uclone(env, []() -> int { return 0; }) != kErrNoSys) {
      return 2;  // threads arrive in Prototype 5
    }
    if (usem_create(env, 1) != kErrNoSys) {
      return 3;
    }
    if (usocket(env, 1) != kErrNoSys) {
      return 4;  // so do sockets, even on a board with a NIC
    }
    return 0;
  }, 1024, 1 << 20);
  sys.kernel().AddBootBlob("probe4", BuildVelf("probe4", 1024, {}, 1 << 20));
  EXPECT_EQ(sys.RunProgram("probe4"), 0);
}

TEST(StageGating, SubsystemMetricsFollowTheStage) {
  // Each subsystem registers its own metrics when the stage boots it: no
  // slab, block, journal or net names before Prototype 4/5, all of them at 5.
  const char* kStaged[] = {"slab.", "block.", "jrnl.", "net."};
  for (Stage stage : {Stage::kProto1, Stage::kProto3}) {
    System sys(OptionsForStage(stage));
    for (const char* prefix : kStaged) {
      EXPECT_EQ(sys.kernel().metrics().ExportText(prefix), "")
          << prefix << " at stage " << static_cast<int>(stage);
    }
    EXPECT_NE(sys.kernel().metrics().ExportText("pmm."), "");
  }
  System sys(OptionsForStage(Stage::kProto5));
  for (const char* prefix : kStaged) {
    EXPECT_NE(sys.kernel().metrics().ExportText(prefix), "") << prefix;
  }
}

TEST_F(Proto5Test, CoreutilsEndToEnd) {
  SystemOptions opt = OptionsForStage(Stage::kProto5);
  std::string script =
      "mkdir /work\n"
      "echo data > /work/f1\n"
      "ln /work/f1 /work/f2\n"
      "ls /work\n"
      "ps\n"
      "free\n"
      "uptime\n"
      "md5sum /work/f1\n"
      "rm /work/f2 ; rm /work/f1\n";
  opt.extra_root.files.push_back(
      FsEntry{"/etc/utils.sh", std::vector<std::uint8_t>(script.begin(), script.end())});
  System sys(opt);
  EXPECT_EQ(sys.RunProgram("sh", {"/etc/utils.sh"}), 0);
  const std::string out = sys.SerialOutput();
  EXPECT_NE(out.find("f1"), std::string::npos);
  EXPECT_NE(out.find("f2"), std::string::npos);
  EXPECT_NE(out.find("MemTotal"), std::string::npos);
  EXPECT_NE(out.find("PID"), std::string::npos);
  // md5 of "data\n"
  EXPECT_NE(out.find("6137cde4893c59f76f005a8123d8e8e6"), std::string::npos) << out;
}

}  // namespace
}  // namespace vos
