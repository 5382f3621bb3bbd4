#include "src/kernel/stack_depot.h"

#include <algorithm>
#include <sstream>

namespace vos {

StackDepot& StackDepot::Instance() {
  static StackDepot* depot = new StackDepot();  // intentionally immortal
  return *depot;
}

StackDepot::StackDepot() : slots_(256, kFree) {
  Intern({});  // the first entry, so the empty stack is kEmpty
}

std::uint64_t StackDepot::Hash(StackFrames frames) {
  std::uint64_t h = 0xcbf29ce484222325ull ^ frames.size();
  for (const char* f : frames) {
    h = (h ^ reinterpret_cast<std::uintptr_t>(f)) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  return h;
}

StackHandle StackDepot::Intern(StackFrames frames) {
  const std::uint64_t h = Hash(frames);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const StackHandle s = slots_[i];
    if (s == kFree) {
      const auto handle = static_cast<StackHandle>(entries_.size());
      entries_.push_back(Entry{h, static_cast<std::uint32_t>(frames_.size()),
                               static_cast<std::uint32_t>(frames.size())});
      frames_.insert(frames_.end(), frames.begin(), frames.end());
      slots_[i] = handle;
      if (entries_.size() * 2 > slots_.size()) {
        Grow();
      }
      return handle;
    }
    const Entry& e = entries_[s];
    if (e.hash == h && e.len == frames.size() &&
        std::equal(frames.begin(), frames.end(), frames_.begin() + e.offset)) {
      return s;
    }
  }
}

StackFrames StackDepot::Frames(StackHandle h) const {
  const Entry& e = entries_[h];
  return StackFrames(frames_.data() + e.offset, e.len);
}

void StackDepot::Grow() {
  slots_.assign(slots_.size() * 2, kFree);
  const std::size_t mask = slots_.size() - 1;
  for (StackHandle s = 0; s < entries_.size(); ++s) {
    std::size_t i = entries_[s].hash & mask;
    while (slots_[i] != kFree) {
      i = (i + 1) & mask;
    }
    slots_[i] = s;
  }
}

std::string FormatStack(StackFrames frames) {
  if (frames.empty()) {
    return "    <no call stack>\n";
  }
  std::ostringstream os;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    os << "    [" << (frames.rend() - it - 1) << "] " << *it << "\n";
  }
  return os.str();
}

}  // namespace vos
