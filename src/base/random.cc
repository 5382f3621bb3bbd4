#include "src/base/random.h"

#include "src/base/assert.h"

namespace vos {
namespace {

std::uint64_t Step(std::uint64_t x) {
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  return x;
}

using BitMatrix = std::array<std::uint64_t, 64>;

std::uint64_t Apply(const BitMatrix& m, std::uint64_t v) {
  std::uint64_t r = 0;
  for (int i = 0; i < 64; ++i) {
    r ^= m[i] & (0 - ((v >> i) & 1));
  }
  return r;
}

// The matrix of `a` applied after `b`.
BitMatrix Compose(const BitMatrix& a, const BitMatrix& b) {
  BitMatrix r;
  for (int i = 0; i < 64; ++i) {
    r[i] = Apply(a, b[i]);
  }
  return r;
}

}  // namespace

std::uint64_t Rng::Next() {
  state_ = Step(state_);
  return state_ * 0x2545f4914f6cdd1dull;
}

std::uint64_t Rng::NextBelow(std::uint64_t bound) {
  VOS_CHECK(bound > 0);
  return Next() % bound;
}

std::int64_t Rng::NextRange(std::int64_t lo, std::int64_t hi) {
  VOS_CHECK(lo <= hi);
  return lo + static_cast<std::int64_t>(NextBelow(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Rng::NextDouble() { return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0); }

bool Rng::Chance(double p) {
  if (p <= 0) {
    return false;
  }
  if (p >= 1) {
    return true;
  }
  return NextDouble() < p;
}

RngJump::RngJump(std::uint64_t calls) {
  BitMatrix pow;
  for (int i = 0; i < 64; ++i) {
    pow[i] = Step(1ull << i);
    cols_[i] = 1ull << i;
  }
  for (; calls != 0; calls >>= 1) {
    if ((calls & 1) != 0) {
      cols_ = Compose(pow, cols_);
    }
    pow = Compose(pow, pow);
  }
}

std::uint64_t RngJump::operator()(std::uint64_t state) const { return Apply(cols_, state); }

}  // namespace vos
