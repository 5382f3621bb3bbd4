#include "src/base/random.h"

#include <bit>

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
  // Column i is the image of state bit i.
  BitMatrix cols;
  BitMatrix pow;
  for (int i = 0; i < 64; ++i) {
    pow[i] = Step(1ull << i);
    cols[i] = 1ull << i;
  }
  for (; calls != 0; calls >>= 1) {
    if ((calls & 1) != 0) {
      cols = Compose(pow, cols);
    }
    pow = Compose(pow, pow);
  }
  // Each entry is a smaller entry plus one more column: v with its lowest
  // set bit cleared, XOR that bit's column.
  for (int k = 0; k < 8; ++k) {
    auto& t = bytes_[static_cast<std::size_t>(k)];
    t[0] = 0;
    for (unsigned v = 1; v < 256; ++v) {
      t[v] = t[v & (v - 1)] ^ cols[static_cast<std::size_t>(8 * k + std::countr_zero(v))];
    }
  }
}

std::uint64_t RngJump::operator()(std::uint64_t state) const {
  std::uint64_t r = 0;
  for (std::size_t k = 0; k < 8; ++k) {
    r ^= bytes_[k][(state >> (8 * k)) & 0xff];
  }
  return r;
}

}  // namespace vos
