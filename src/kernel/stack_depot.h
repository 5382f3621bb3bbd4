// Stack depot: an append-only intern table for shadow call stacks, after
// Linux's lib/stackdepot.c. The lock checkers record "where" on every lock
// acquire and every annotated shared access, but read it back only when a
// report is written. Storing each distinct frame sequence once and handing
// out a 32-bit handle turns that bookkeeping from a vector copy per event
// into a hash and a probe, and lets held-lock entries, order edges and
// racedet cells stay plain words.
//
// Frames are static string literals (the task's call_stack entries), so a
// handle stays meaningful for the life of the process: the depot is never
// cleared, and handles survive Lockdep::Reset. It grows only by the number of
// distinct call paths, which the kernel's code bounds.
//
// Like the rest of the checker state, the depot is process-global and relies
// on token-serialized execution: one host thread runs at a time, and each
// handoff orders its accesses. It takes no lock.
#ifndef VOS_SRC_KERNEL_STACK_DEPOT_H_
#define VOS_SRC_KERNEL_STACK_DEPOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace vos {

using StackHandle = std::uint32_t;
// Root-first frames, as Task::call_stack stores them.
using StackFrames = std::span<const char* const>;

class StackDepot {
 public:
  static StackDepot& Instance();

  // The handle every empty stack interns to.
  static constexpr StackHandle kEmpty = 0;

  // The handle of `frames`: equal sequences share one handle.
  StackHandle Intern(StackFrames frames);
  // The frames behind a handle. The view is valid until the next Intern.
  StackFrames Frames(StackHandle h) const;
  // Distinct stacks interned so far, the empty one included.
  std::size_t size() const { return entries_.size(); }

 private:
  StackDepot();

  struct Entry {
    std::uint64_t hash;
    std::uint32_t offset;  // into frames_
    std::uint32_t len;
  };

  static std::uint64_t Hash(StackFrames frames);
  void Grow();

  std::vector<const char*> frames_;  // every entry's frames, back to back
  std::vector<Entry> entries_;       // indexed by handle
  std::vector<StackHandle> slots_;   // open-addressed index; kFree = unused
  static constexpr StackHandle kFree = ~StackHandle{0};
};

// The report layout lockdep and racedet share: one line per frame,
// innermost first, numbered from the root.
std::string FormatStack(StackFrames frames);

}  // namespace vos

#endif  // VOS_SRC_KERNEL_STACK_DEPOT_H_
