#include "src/kernel/lockdep.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "src/base/assert.h"

namespace vos {

namespace {
// Held stacks are per host context: the machine thread and each task fiber
// own their thread. Execution is token-serialized, so global class/graph
// state never sees concurrent mutation; the stacks are thread_local purely
// because "what do I hold" is a per-context question.
thread_local std::vector<HeldLock> g_held;
thread_local std::uint64_t g_held_generation = 0;
thread_local bool g_in_irq = false;
}  // namespace

Lockdep& Lockdep::Instance() {
  static Lockdep* dep = new Lockdep();  // intentionally immortal
  return *dep;
}

void Lockdep::Reset() {
  ids_.clear();
  classes_.clear();
  ++generation_;  // invalidates every context's held stack lazily
  g_held.clear();
  g_held_generation = generation_;
  g_in_irq = false;
}

int Lockdep::RegisterClass(const std::string& name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) {
    return it->second;
  }
  int id = static_cast<int>(classes_.size());
  ids_.emplace(name, id);
  Class c;
  c.name = name;
  classes_.push_back(std::move(c));
  return id;
}

int Lockdep::ClassOf(const std::string& name, LockClassKey* key) {
  if (key->generation != generation_) {
    key->id = RegisterClass(name);
    key->generation = generation_;
  }
  return key->id;
}

StackHandle Lockdep::CurrentStack() const {
  if (backtrace_) {
    return StackDepot::Instance().Intern(backtrace_());
  }
  return StackDepot::kEmpty;
}

bool Lockdep::Reachable(int from, int to) const {
  if (from == to) {
    return true;
  }
  std::vector<bool> seen(classes_.size(), false);
  std::deque<int> work{from};
  seen[static_cast<std::size_t>(from)] = true;
  while (!work.empty()) {
    int n = work.front();
    work.pop_front();
    for (const auto& [next, edge] : classes_[static_cast<std::size_t>(n)].out) {
      if (next == to) {
        return true;
      }
      if (!seen[static_cast<std::size_t>(next)]) {
        seen[static_cast<std::size_t>(next)] = true;
        work.push_back(next);
      }
    }
  }
  return false;
}

std::vector<int> Lockdep::Path(int from, int to) const {
  // BFS with parent links: the shortest observed dependency chain. Callers
  // only ask for paths the graph is known to contain (from != to).
  std::vector<int> parent(classes_.size(), -1);
  std::deque<int> work{from};
  parent[static_cast<std::size_t>(from)] = from;
  bool found = false;
  while (!work.empty() && !found) {
    int n = work.front();
    work.pop_front();
    for (const auto& [next, edge] : classes_[static_cast<std::size_t>(n)].out) {
      if (parent[static_cast<std::size_t>(next)] == -1) {
        parent[static_cast<std::size_t>(next)] = n;
        if (next == to) {
          found = true;
          break;
        }
        work.push_back(next);
      }
    }
  }
  std::vector<int> path;
  if (!found) {
    return path;
  }
  for (int n = to;; n = parent[static_cast<std::size_t>(n)]) {
    path.push_back(n);
    if (n == from) {
      break;
    }
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::string Lockdep::FormatFrames(StackHandle bt) {
  return FormatStack(StackDepot::Instance().Frames(bt));
}

std::string Lockdep::FormatChain(const std::vector<int>& path) const {
  std::ostringstream os;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i > 0) {
      os << " -> ";
    }
    os << classes_[static_cast<std::size_t>(path[i])].name;
  }
  return os.str();
}

void Lockdep::Violation(const char* kind, const std::string& detail) {
  std::string msg = std::string("lockdep: ") + kind + "\n" + detail;
  VOS_CHECK_MSG(false, msg.c_str());
  __builtin_unreachable();  // VOS_CHECK_MSG(false, ...) always throws
}

void Lockdep::OnAcquire(const SpinLock* lock, const std::string& class_name,
                        LockClassKey* key) {
  if (!enabled_) {
    return;
  }
  if (g_held_generation != generation_) {
    g_held.clear();
    g_held_generation = generation_;
  }
  int cls = ClassOf(class_name, key);
  Class& c = classes_[static_cast<std::size_t>(cls)];
  const StackHandle bt = CurrentStack();

  // IRQ-safety, direction 1: first acquisition from IRQ context of a class
  // previously seen held with IRQs enabled is the same deadlock window.
  if (g_in_irq && !c.irq_used && c.held_irqs_on) {
    Violation("irq-unsafe lock",
              "  class '" + c.name +
                  "' was held with IRQs enabled, and is now taken in IRQ "
                  "context\n  IRQ-context acquisition:\n" +
                  FormatFrames(bt));
  }

  // Order check: for every lock already held, acquiring `cls` adds the edge
  // held -> cls. If the graph already proves cls ->* held, this nesting
  // closes a cycle — the classic A->B observed after B->A inversion.
  for (const HeldLock& h : g_held) {
    if (h.cls == cls && h.lock != lock) {
      Violation("same-class nesting",
                "  acquiring a second '" + c.name +
                    "' lock while one is already held\n  first acquisition:\n" +
                    FormatFrames(h.bt) + "  second acquisition:\n" + FormatFrames(bt));
    }
    // A known edge h.cls -> cls cannot close a cycle: violations throw before
    // any edge is recorded, so the graph is acyclic and cls cannot reach
    // h.cls. Only a new nesting needs the search.
    if (classes_[static_cast<std::size_t>(h.cls)].out.contains(cls)) {
      continue;
    }
    if (Reachable(cls, h.cls)) {
      std::vector<int> opposing = Path(cls, h.cls);
      const Class& held_c = classes_[static_cast<std::size_t>(h.cls)];
      // The stored backtraces of the first opposing edge are the "other side"
      // of the inversion.
      std::string opp_bt;
      if (opposing.size() >= 2) {
        const Class& oc = classes_[static_cast<std::size_t>(opposing[0])];
        auto eit = oc.out.find(opposing[1]);
        if (eit != oc.out.end()) {
          opp_bt = "  opposing chain established while holding '" + oc.name + "' at:\n" +
                   FormatFrames(eit->second.holder_bt) + "  and acquiring '" +
                   classes_[static_cast<std::size_t>(opposing[1])].name + "' at:\n" +
                   FormatFrames(eit->second.taker_bt);
        }
      }
      Violation("lock-order inversion",
                "  acquiring '" + c.name + "' while holding '" + held_c.name +
                    "' requires " + held_c.name + " -> " + c.name +
                    ", but the graph already proves " + FormatChain(opposing) +
                    "\n  current chain: holding '" + held_c.name + "' acquired at:\n" +
                    FormatFrames(h.bt) + "  acquiring '" + c.name + "' at:\n" +
                    FormatFrames(bt) + opp_bt);
    }
  }

  // Record edges from every held lock (not just the innermost): transitive
  // closure then catches inversions across intermediate hops sooner.
  for (const HeldLock& h : g_held) {
    Class& hc = classes_[static_cast<std::size_t>(h.cls)];
    Edge& e = hc.out[cls];
    if (e.count == 0) {
      e.holder_bt = h.bt;
      e.taker_bt = bt;
    }
    ++e.count;
  }

  ++c.acquisitions;
  if (g_in_irq && !c.irq_used) {
    c.irq_used = true;
    c.irq_bt = bt;
  }
  g_held.push_back(HeldLock{lock, cls, bt});
  c.max_hold_depth = std::max(c.max_hold_depth, static_cast<int>(g_held.size()));
}

void Lockdep::OnRelease(const SpinLock* lock) {
  if (!enabled_ || g_held_generation != generation_) {
    return;
  }
  // Locks release in LIFO order in practice, but tolerate out-of-order
  // (SleepOn releases the condition lock below the sched bookkeeping).
  for (auto it = g_held.rbegin(); it != g_held.rend(); ++it) {
    if (it->lock == lock) {
      g_held.erase(std::next(it).base());
      return;
    }
  }
  // Acquired while lockdep was disabled or before a Reset: ignore.
}

void Lockdep::OnSleep(const void* chan) {
  if (!enabled_ || g_held_generation != generation_ || g_held.empty()) {
    return;
  }
  std::ostringstream held;
  for (const HeldLock& h : g_held) {
    held << "  still holding '" << classes_[static_cast<std::size_t>(h.cls)].name
         << "' acquired at:\n"
         << FormatFrames(h.bt);
  }
  std::ostringstream os;
  os << "  task is about to sleep on channel " << chan << " with " << g_held.size()
     << " spinlock(s) held\n"
     << held.str() << "  sleep site:\n"
     << FormatFrames(CurrentStack());
  Violation("sleep with spinlock held", os.str());
}

void Lockdep::OnIrqEnable() {
  if (!enabled_ || g_held_generation != generation_ || g_held.empty()) {
    return;
  }
  // Interrupts just became deliverable while this context still holds locks.
  // Mark every held class; if one is also taken from IRQ context, the IRQ
  // handler could spin on a lock its own core holds.
  for (const HeldLock& h : g_held) {
    Class& c = classes_[static_cast<std::size_t>(h.cls)];
    c.held_irqs_on = true;
    if (c.irq_used) {
      Violation("irq-unsafe lock",
                "  class '" + c.name +
                    "' is taken in IRQ context but is held here with IRQs "
                    "enabled\n  IRQ-context acquisition:\n" +
                    FormatFrames(c.irq_bt) + "  held-with-IRQs-enabled acquisition:\n" +
                    FormatFrames(h.bt));
    }
  }
}

std::span<const HeldLock> Lockdep::HeldLocks() const {
  if (!enabled_ || g_held_generation != generation_) {
    return {};
  }
  return g_held;
}

bool Lockdep::IsHeldByCurrent(const SpinLock* lock) const {
  if (!enabled_ || g_held_generation != generation_) {
    return false;
  }
  for (const HeldLock& h : g_held) {
    if (h.lock == lock) {
      return true;
    }
  }
  return false;
}

void Lockdep::SetIrqContext(bool in_irq) { g_in_irq = in_irq; }

bool Lockdep::InIrqContext() const { return g_in_irq; }

std::vector<LockClassInfo> Lockdep::Classes() const {
  std::vector<LockClassInfo> out;
  out.reserve(classes_.size());
  for (const Class& c : classes_) {
    LockClassInfo i;
    i.name = c.name;
    i.acquisitions = c.acquisitions;
    i.max_hold_depth = c.max_hold_depth;
    i.irq_used = c.irq_used;
    i.held_irqs_on = c.held_irqs_on;
    out.push_back(std::move(i));
  }
  return out;
}

std::size_t Lockdep::EdgeCount() const {
  std::size_t n = 0;
  for (const Class& c : classes_) {
    n += c.out.size();
  }
  return n;
}

bool Lockdep::HasPath(const std::string& from, const std::string& to) const {
  auto f = ids_.find(from);
  auto t = ids_.find(to);
  if (f == ids_.end() || t == ids_.end()) {
    return false;
  }
  return f->second != t->second && Reachable(f->second, t->second);
}

std::vector<std::string> Lockdep::HeldNames() const {
  std::vector<std::string> out;
  if (g_held_generation != generation_) {
    return out;
  }
  for (const HeldLock& h : g_held) {
    out.push_back(classes_[static_cast<std::size_t>(h.cls)].name);
  }
  return out;
}

std::string Lockdep::Report() const {
  std::ostringstream os;
  os << "lockdep: " << (enabled_ ? "on" : "off") << "\n";
  os << "classes: " << classes_.size() << "  edges: " << EdgeCount() << "\n";
  os << "class            acquisitions maxdepth irq irqs-on\n";
  for (const Class& c : classes_) {
    os << c.name;
    for (std::size_t pad = c.name.size(); pad < 17; ++pad) {
      os << ' ';
    }
    std::string acq = std::to_string(c.acquisitions);
    os << acq;
    for (std::size_t pad = acq.size(); pad < 13; ++pad) {
      os << ' ';
    }
    std::string depth = std::to_string(c.max_hold_depth);
    os << depth;
    for (std::size_t pad = depth.size(); pad < 9; ++pad) {
      os << ' ';
    }
    os << (c.irq_used ? "yes " : "no  ") << (c.held_irqs_on ? "yes" : "no") << "\n";
  }
  os << "order:\n";
  for (const Class& c : classes_) {
    for (const auto& [to, edge] : c.out) {
      os << "  " << c.name << " -> " << classes_[static_cast<std::size_t>(to)].name << " (seen "
         << edge.count << "x)\n";
    }
  }
  return os.str();
}

}  // namespace vos
