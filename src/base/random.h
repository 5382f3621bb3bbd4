// Deterministic PRNG (xorshift64*) used across the simulator so runs are
// reproducible from a seed. Never uses wall-clock entropy.
#ifndef VOS_SRC_BASE_RANDOM_H_
#define VOS_SRC_BASE_RANDOM_H_

#include <array>
#include <cstdint>

namespace vos {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) : state_(seed ? seed : 1) {}

  std::uint64_t Next();

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBelow(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::int64_t NextRange(std::int64_t lo, std::int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0,1]).
  bool Chance(double p);

  // The current state, never 0: Rng(state()) continues this sequence.
  std::uint64_t state() const { return state_; }

 private:
  std::uint64_t state_;
};

// Jumps an Rng state ahead by a fixed number of Next() calls in 8 table
// lookups instead of one step per call. The xorshift64 state update is
// linear over GF(2), so `calls` updates are one 64x64 bit matrix, built by
// repeated squaring; the matrix is then folded into one 256-entry table per
// state byte, so applying it XORs 8 precomputed images.
class RngJump {
 public:
  explicit RngJump(std::uint64_t calls);

  // The state of Rng(state) after `calls` calls of Next().
  std::uint64_t operator()(std::uint64_t state) const;

 private:
  // bytes_[k][v] is the image of state byte k holding v (other bytes zero).
  std::array<std::array<std::uint64_t, 256>, 8> bytes_;
};

}  // namespace vos

#endif  // VOS_SRC_BASE_RANDOM_H_
