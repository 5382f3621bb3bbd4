// Runs one-off test programs inside a booted System.
//
// Each call registers `main_fn` under a fresh name, "<name>#<n>", with one
// counter for the whole test binary. No fixed registration uses '#', so a
// generated name never collides with an app or with another test's program
// when the suite runs in a single process. Every System built later packs
// all registered apps into /bin, so `name` is cut to keep the whole name
// within one xv6 directory entry.
#ifndef VOS_TESTS_RUN_IN_OS_H_
#define VOS_TESTS_RUN_IN_OS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/app_registry.h"
#include "src/fs/xv6fs.h"
#include "src/kernel/velf.h"
#include "src/vos/system.h"

namespace vos {

// Registers `main_fn`, starts it as a user program, and returns its exit code.
inline int RunInOs(System& sys, const char* name, AppMain main_fn,
                   std::uint64_t heap = 4 << 20) {
  static int counter = 0;
  std::string suffix(1, '#');
  suffix += std::to_string(counter++);
  const std::string unique = std::string(name).substr(0, kDirNameLen - suffix.size()) + suffix;
  AppRegistry::Instance().Register(unique, std::move(main_fn), 1024, heap);
  // The boot image was built before this registration; add a kernel blob.
  sys.kernel().AddBootBlob(unique, BuildVelf(unique, 1024, {}, heap));
  return static_cast<int>(sys.WaitProgram(sys.kernel().StartUserProgram(unique, {unique})));
}

// Runs an installed program and returns only what it printed (the serial
// output accumulates over the System's life).
inline std::string RunAndCapture(System& sys, const std::string& prog,
                                 const std::vector<std::string>& args) {
  const std::size_t before = sys.SerialOutput().size();
  EXPECT_EQ(sys.RunProgram(prog, args), 0) << prog;
  return sys.SerialOutput().substr(before);
}

}  // namespace vos

#endif  // VOS_TESTS_RUN_IN_OS_H_
