// Kernel lock-order and IRQ-safety validator ("lockdep"), in the spirit of
// the paper's §4.1 spinlock evolution: the SpinLock itself catches
// double-acquire and non-owner release, but nothing validated ordering
// *between* locks, sleeping with a spinlock held, or IRQ-context safety.
// Those are exactly the bugs that surface as downstream corruption once the
// bflush thread and future multicore work add concurrent lock users; this
// layer reports them at the faulting site instead.
//
// Model:
//  - Lock *classes* are keyed by the SpinLock's name (two pipes share the
//    "pipe" class), registered at SpinLock construction. Each SpinLock caches
//    its class id with the session generation it was resolved in (Linux's
//    lockdep_map), so an acquire costs no name lookup; a lock built before a
//    Reset re-resolves on its next acquire.
//  - Each host context (the machine thread, or one task fiber — execution is
//    token-serialized, so each holds its own thread_local stack) records the
//    locks it currently holds, innermost last.
//  - A global acquisition-order graph accumulates an edge A->B whenever B is
//    acquired while A is held. At acquire time a transitive reachability
//    check detects inversions: acquiring B while holding A after the graph
//    already proves B ->* A is a potential deadlock, reported with both the
//    current chain and the backtrace that established the opposing edge.
//    A violation throws before any edge is recorded, so the graph stays
//    acyclic; an edge held -> B that is already in the graph therefore cannot
//    close a cycle, and a repeat nesting skips the reachability search.
//  - Sleep safety: the scheduler's sleep path calls OnSleep(); any spinlock
//    still held there is a bug (SleepOn releases the condition lock first).
//  - IRQ safety: the machine loop brackets interrupt dispatch with
//    SetIrqContext(). A class ever acquired in IRQ context ("irq-used") must
//    never be observed held at a point where the holder re-enables
//    interrupts (PopOff reaching depth 0 with locks held) — on real hardware
//    that is the window where the IRQ handler spins against its own core.
//
// Violations throw FatalError via VOS_CHECK_MSG with both offending chains
// and shadow-stack backtraces (unwind.h-style frames). Backtraces are kept as
// stack-depot handles (stack_depot.h) and formatted only when a report is
// written. The whole checker is a no-op when disabled
// (KernelConfig::lockdep_enabled, for benchmarks).
#ifndef VOS_SRC_KERNEL_LOCKDEP_H_
#define VOS_SRC_KERNEL_LOCKDEP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "src/kernel/stack_depot.h"

namespace vos {

class SpinLock;

// A lock's cached class (Linux's lockdep_map): its name's class id, valid
// while `generation` matches the session's.
struct LockClassKey {
  int id = -1;
  std::uint64_t generation = ~std::uint64_t{0};  // matches no session: unresolved
};

// One entry of a context's held-lock stack.
struct HeldLock {
  const SpinLock* lock;
  int cls;
  StackHandle bt;  // where it was acquired
};

// Per-class statistics exported through /proc/lockdep.
struct LockClassInfo {
  std::string name;
  std::uint64_t acquisitions = 0;  // total acquires of locks in this class
  int max_hold_depth = 0;          // deepest held-stack position at acquire
  bool irq_used = false;           // ever acquired in IRQ context
  bool held_irqs_on = false;       // ever held while IRQs were enabled
};

class Lockdep {
 public:
  static Lockdep& Instance();

  // Wipes classes, the order graph, and per-context held stacks. Each Kernel
  // construction starts a fresh session (tests boot many kernels).
  void Reset();

  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // The class id of `name`, through the lock's cached key; called from the
  // SpinLock constructor and on acquire. Registers the class only when the
  // key predates the current session (locks of one name share the entry).
  int ClassOf(const std::string& name, LockClassKey* key);

  // --- Hook points (wired in spinlock.cc / sched.cc / machine.cc) ---
  // After the lock is successfully acquired. Performs the order-inversion
  // and IRQ-safety checks; throws FatalError on violation (the caller backs
  // out the acquisition so tests can continue past a detected bug).
  void OnAcquire(const SpinLock* lock, const std::string& class_name, LockClassKey* key);
  // Before the lock is released. Tolerates locks acquired while disabled.
  void OnRelease(const SpinLock* lock);
  // The scheduler sleep path: no spinlock may be held when a task parks.
  void OnSleep(const void* chan);
  // PopOff brought this context's IRQ-off depth to zero: interrupts are
  // deliverable again. Any lock still held is now "held with IRQs on"; if
  // its class is also taken from IRQ context, that is a deadlock window.
  void OnIrqEnable();

  // IRQ-context bracket (machine loop dispatch; tests seed it directly).
  void SetIrqContext(bool in_irq);
  bool InIrqContext() const;

  // Shadow-stack backtrace provider (the kernel installs one that returns a
  // view of the current task's call_stack; frames are static string
  // literals). The view need only last until the depot has interned it.
  using BacktraceFn = std::function<StackFrames()>;
  void SetBacktraceProvider(BacktraceFn fn) { backtrace_ = std::move(fn); }

  // --- Racedet support (racedet.h) ---
  // Locks currently held by this context, outermost first: a view of the
  // held stack, valid until this context's next acquire or release. The
  // lockset algorithm intersects instances, not classes: two "sched-core"
  // locks guard different runqueues and must refine independently.
  std::span<const HeldLock> HeldLocks() const;
  // True if this context holds `lock` right now (backs RD_ASSERT_HELD).
  bool IsHeldByCurrent(const SpinLock* lock) const;
  // The current context's shadow-stack backtrace, interned (racedet reports
  // reuse lockdep's view of "where am I").
  StackHandle CurrentStack() const;

  // --- Introspection (/proc/lockdep, tests) ---
  std::size_t ClassCount() const { return classes_.size(); }
  std::vector<LockClassInfo> Classes() const;
  // Number of distinct order edges observed.
  std::size_t EdgeCount() const;
  // True if the graph has observed from -> ... -> to (transitively).
  bool HasPath(const std::string& from, const std::string& to) const;
  // Locks currently held by this context (class names, outermost first).
  std::vector<std::string> HeldNames() const;
  // The /proc/lockdep body: per-class stats plus the dependency graph.
  std::string Report() const;

 private:
  Lockdep() = default;

  struct Edge {
    std::uint64_t count = 0;
    StackHandle holder_bt = StackDepot::kEmpty;  // acquire site of the held lock
    StackHandle taker_bt = StackDepot::kEmpty;   // site that acquired the new lock
  };
  struct Class {
    std::string name;
    std::uint64_t acquisitions = 0;
    int max_hold_depth = 0;
    bool irq_used = false;
    bool held_irqs_on = false;
    StackHandle irq_bt = StackDepot::kEmpty;  // first IRQ-context acquisition site
    std::map<int, Edge> out;                  // class id -> dependency edge
  };

  int RegisterClass(const std::string& name);
  // DFS over the order graph: is `to` reachable from `from`?
  bool Reachable(int from, int to) const;
  // Shortest observed path from -> to (class ids), for violation reports.
  std::vector<int> Path(int from, int to) const;
  static std::string FormatFrames(StackHandle bt);
  std::string FormatChain(const std::vector<int>& path) const;
  [[noreturn]] void Violation(const char* kind, const std::string& detail);

  bool enabled_ = true;
  std::map<std::string, int> ids_;
  std::vector<Class> classes_;
  BacktraceFn backtrace_;
  std::uint64_t generation_ = 0;  // bumped by Reset to invalidate held stacks
};

// Per-kernel lockdep session: Reset + enable/disable on construction, so each
// Kernel boot starts with an empty graph reflecting the config knob. Lives as
// an early Kernel member (before any subsystem that constructs SpinLocks).
class LockdepSession {
 public:
  explicit LockdepSession(bool enabled) {
    Lockdep::Instance().Reset();
    Lockdep::Instance().SetEnabled(enabled);
  }
  ~LockdepSession() {
    Lockdep::Instance().SetBacktraceProvider(nullptr);
    Lockdep::Instance().SetEnabled(true);
  }
  LockdepSession(const LockdepSession&) = delete;
  LockdepSession& operator=(const LockdepSession&) = delete;
};

// RAII bracket for the machine loop's interrupt dispatch window.
class LockdepIrqScope {
 public:
  LockdepIrqScope() { Lockdep::Instance().SetIrqContext(true); }
  ~LockdepIrqScope() { Lockdep::Instance().SetIrqContext(false); }
  LockdepIrqScope(const LockdepIrqScope&) = delete;
  LockdepIrqScope& operator=(const LockdepIrqScope&) = delete;
};

}  // namespace vos

#endif  // VOS_SRC_KERNEL_LOCKDEP_H_
