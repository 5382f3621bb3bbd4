#include "src/kernel/spinlock.h"

#include "src/base/assert.h"
#include "src/kernel/lockdep.h"

namespace vos {

namespace {
thread_local int g_irq_off_depth = 0;
const void* ContextId() {
  static thread_local char marker;
  return &marker;
}
}  // namespace

void PushOff() { ++g_irq_off_depth; }

void PopOff() {
  VOS_CHECK_MSG(g_irq_off_depth > 0, "PopOff without matching PushOff");
  --g_irq_off_depth;
  if (g_irq_off_depth == 0) {
    // Interrupts are deliverable again; lockdep verifies nothing irq-used is
    // still held by this context (the deadlock window on real hardware).
    Lockdep::Instance().OnIrqEnable();
  }
}

int IrqOffDepth() { return g_irq_off_depth; }

SpinLock::SpinLock(std::string name) : name_(std::move(name)) {
  Lockdep::Instance().ClassOf(name_, &class_key_);
}

void SpinLock::Acquire() {  // lockdep: naked-ok (implementation)
  // Token-serialized execution makes it safe to examine the lock before
  // PushOff (no preemption window as on real hardware) — and it keeps the
  // IRQ-off depth balanced when a discipline check throws.
  VOS_CHECK_MSG(!(held_ && owner_ == ContextId()),
                ("spinlock double-acquire: '" + name_ + "'").c_str());
  // Host execution is token-serialized, so the lock is always free here; a
  // held lock from another context would be a machine-loop invariant bug.
  VOS_CHECK_MSG(!held_, "spinlock contended: serialization invariant broken");
  PushOff();
  try {
    // Order/IRQ validation before the lock is visibly held: a detected
    // violation throws, and backing out the PushOff leaves the context
    // balanced so tests can continue past the report.
    Lockdep::Instance().OnAcquire(this, name_, &class_key_);
  } catch (...) {
    --g_irq_off_depth;  // raw undo: OnIrqEnable must not re-fire mid-throw
    throw;
  }
  held_ = true;
  owner_ = ContextId();
  ++acquisitions_;
}

void SpinLock::Release() {  // lockdep: naked-ok (implementation)
  VOS_CHECK_MSG(held_, "releasing a spinlock that is not held");
  VOS_CHECK_MSG(owner_ == ContextId(), "spinlock released by non-owner");
  // Ordering matters: the lock must read as fully released (owner/held
  // cleared, lockdep bookkeeping popped) *before* PopOff can re-enable
  // interrupt delivery. An IRQ arriving at the PopOff boundary must never
  // observe a half-released lock — lockdep's OnIrqEnable check relies on
  // the held stack being popped first, and KernelCoreTest.ReleaseOrdering
  // pins this down.
  held_ = false;
  owner_ = nullptr;
  Lockdep::Instance().OnRelease(this);
  PopOff();
}

}  // namespace vos
