#include "src/media/vmv.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/base/assert.h"

namespace vos {

namespace {

constexpr std::uint32_t kVmvMagic = 0x31564d56;  // "VMV1"

// --- bit I/O (MSB-first) ---

class BitWriter {
 public:
  // Appends the low `n` bits of `v`, MSB first (1 <= n <= 32).
  void Bits(std::uint32_t v, int n) {
    acc_ = (acc_ << n) | (v & ((std::uint64_t{1} << n) - 1));
    nbits_ += n;
    if (nbits_ >= 32) {
      nbits_ -= 32;
      auto word = static_cast<std::uint32_t>(acc_ >> nbits_);
      const std::uint8_t bytes[4] = {
          static_cast<std::uint8_t>(word >> 24), static_cast<std::uint8_t>(word >> 16),
          static_cast<std::uint8_t>(word >> 8), static_cast<std::uint8_t>(word)};
      out_.insert(out_.end(), bytes, bytes + 4);
    }
  }
  void Bit(int b) { Bits(static_cast<std::uint32_t>(b), 1); }
  // Unsigned Exp-Golomb: `bits` zeros, then v+1 in bits+1 bits, where
  // bits = floor(log2(v+1)). For v < 0xffffffff.
  void Ueg(std::uint32_t v) {
    std::uint32_t vp = v + 1;
    int bits = 31 - std::countl_zero(vp);
    if (bits < 16) {
      Bits(vp, 2 * bits + 1);  // vp's own leading zeros are the prefix
    } else {
      Bits(0, bits);
      Bits(vp, bits + 1);
    }
  }
  // Signed Exp-Golomb (0, 1, -1, 2, -2, ...).
  void Seg(std::int32_t v) {
    std::uint32_t m = v > 0 ? std::uint32_t(2 * v - 1) : std::uint32_t(-2 * v);
    Ueg(m);
  }
  std::vector<std::uint8_t> Finish() {
    // Zero-pad to a byte boundary, then flush.
    int pad = (8 - nbits_ % 8) % 8;
    acc_ <<= pad;
    nbits_ += pad;
    while (nbits_ > 0) {
      nbits_ -= 8;
      out_.push_back(static_cast<std::uint8_t>(acc_ >> nbits_));
    }
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::uint64_t acc_ = 0;  // the pending bits are its low nbits_
  int nbits_ = 0;          // < 32 between calls
};

class BitReader {
 public:
  BitReader(const std::uint8_t* d, std::size_t n) : d_(d), nbytes_(n), nbits_(n * 8) {}
  int Bit() { return static_cast<int>(Bits(1)); }
  // Reads n (1..32) bits. Reading past the end fails: ok() turns false and
  // stays false.
  std::uint32_t Bits(int n) {
    if (static_cast<std::size_t>(n) > nbits_ - pos_) {
      return Fail();
    }
    auto v = static_cast<std::uint32_t>(Peek() >> (64 - n));
    pos_ += static_cast<std::size_t>(n);
    return v;
  }
  std::uint32_t Ueg() {
    // Bits past the end peek as zeros, so a run of more than 31 zeros is
    // either too long a code or a truncated one; both fail.
    int zeros = std::countl_zero(Peek());
    if (zeros > 31) {
      return Fail();
    }
    pos_ += static_cast<std::size_t>(zeros);
    return Bits(zeros + 1) - 1;
  }
  std::int32_t Seg() {
    std::uint32_t m = Ueg();
    return (m & 1) ? static_cast<std::int32_t>((m + 1) / 2)
                   : -static_cast<std::int32_t>(m / 2);
  }
  bool ok() const { return ok_; }

 private:
  // The next 64 bits, MSB-aligned; at least 57 of them are stream bits (or
  // zeros past its end).
  std::uint64_t Peek() const {
    std::size_t byte = pos_ / 8;
    std::uint64_t w = 0;
    if (byte + 8 <= nbytes_) {
      for (int i = 0; i < 8; ++i) {
        w = (w << 8) | d_[byte + std::size_t(i)];
      }
    } else {
      for (int i = 0; i < 8; ++i) {
        w = (w << 8) | (byte + std::size_t(i) < nbytes_ ? d_[byte + std::size_t(i)] : 0);
      }
    }
    return w << (pos_ % 8);
  }
  std::uint32_t Fail() {
    ok_ = false;
    pos_ = nbits_;
    return 0;
  }

  const std::uint8_t* d_;
  std::size_t nbytes_;
  std::size_t nbits_;
  std::size_t pos_ = 0;  // in bits
  bool ok_ = true;
};

// --- DCT ---

// Two doubles per SSE2 register. In the transforms each lane is one output's
// own running sum, so vectorising changes no output's summation order.
typedef double V2d __attribute__((vector_size(16)));
typedef std::int32_t V2i __attribute__((vector_size(8)));
typedef std::int64_t V2l __attribute__((vector_size(16)));

// Rounds each lane half away from zero (std::lround) for |x| < 2^31. x minus
// its truncation is exact, so the comparisons with 0.5 are too.
V2i RoundHalfAway2(V2d x) {
  V2i t = __builtin_convertvector(x, V2i);  // toward zero
  V2d frac = x - __builtin_convertvector(t, V2d);
  V2l away = (frac <= -0.5) - (frac >= 0.5);  // comparisons give -1 where true
  return t + __builtin_convertvector(away, V2i);
}

struct DctBasis {
  double c[8][8];  // c[u][x]: basis function u at sample x
  V2d row[8][4];   // row[u][i] = {c[u][2i], c[u][2i+1]}
  V2d col[8][4];   // col[x][i] = {c[2i][x], c[2i+1][x]}
  DctBasis() {
    for (int u = 0; u < 8; ++u) {
      double cu = u == 0 ? std::sqrt(0.125) : 0.5;
      for (int x = 0; x < 8; ++x) {
        c[u][x] = cu * std::cos((2 * x + 1) * u * 3.14159265358979323846 / 16.0);
      }
    }
    for (int a = 0; a < 8; ++a) {
      for (int i = 0; i < 4; ++i) {
        row[a][i] = V2d{c[a][2 * i], c[a][2 * i + 1]};
        col[a][i] = V2d{c[2 * i][a], c[2 * i + 1][a]};
      }
    }
  }
};
const DctBasis g_basis;

constexpr int kZigzag[64] = {0,  1,  8,  16, 9,  2,  3,  10, 17, 24, 32, 25, 18, 11, 4,  5,
                             12, 19, 26, 33, 40, 48, 41, 34, 27, 20, 13, 6,  7,  14, 21, 28,
                             35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51,
                             58, 59, 52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63};

// Largest |level| a stream may carry. Legal streams stay near 8*255; the
// bound keeps level*q and every transform sum far inside int32.
constexpr std::int32_t kMaxLevel = 1 << 15;

int QuantOf(int coef, int q) {
  int mag = coef < 0 ? -coef : coef;
  if (mag + q / 2 < q) {
    return 0;  // the common case, without a divide
  }
  return coef >= 0 ? (coef + q / 2) / q : -((-coef + q / 2) / q);
}

std::uint8_t Clamp255(int v) { return static_cast<std::uint8_t>(v < 0 ? 0 : v > 255 ? 255 : v); }

// Copies the 8x8 block whose top-left sample is (x0, y0), clamping
// coordinates to the plane (a decoded motion vector may point past an edge).
void GetBlock(const std::uint8_t* plane, std::uint32_t w, std::uint32_t h, std::int64_t x0,
              std::int64_t y0, std::uint8_t out[64]) {
  if (x0 >= 0 && y0 >= 0 && x0 + 8 <= std::int64_t(w) && y0 + 8 <= std::int64_t(h)) {
    const std::uint8_t* src = plane + std::size_t(y0) * w + std::size_t(x0);
    for (int y = 0; y < 8; ++y) {
      std::memcpy(out + y * 8, src + std::size_t(y) * w, 8);
    }
    return;
  }
  std::size_t cols[8];
  for (int x = 0; x < 8; ++x) {
    cols[x] = std::size_t(std::clamp<std::int64_t>(x0 + x, 0, std::int64_t(w) - 1));
  }
  for (int y = 0; y < 8; ++y) {
    const std::uint8_t* row =
        plane + std::size_t(std::clamp<std::int64_t>(y0 + y, 0, std::int64_t(h) - 1)) * w;
    for (int x = 0; x < 8; ++x) {
      out[y * 8 + x] = row[cols[x]];
    }
  }
}

// Stores clamp(rec + pred) into the 8x8 block at (bx, by).
void PutBlock(std::uint8_t* plane, std::uint32_t w, std::uint32_t bx, std::uint32_t by,
              const std::int16_t rec[64], const std::uint8_t pred[64]) {
  for (int y = 0; y < 8; ++y) {
    std::uint8_t* row = plane + (by + std::uint32_t(y)) * w + bx;
    for (int x = 0; x < 8; ++x) {
      row[x] = Clamp255(rec[y * 8 + x] + pred[y * 8 + x]);
    }
  }
}

// Intra blocks code samples - 128 and predict nothing.
constexpr std::uint8_t kNoPrediction[64] = {};

// A skipped macroblock: the reference's 16x16 luma and 8x8 chroma unchanged.
void CopyMacroblock(const YuvFrame& from, YuvFrame& to, std::uint32_t mx, std::uint32_t my) {
  std::uint32_t w = from.width, cw = w / 2;
  for (std::uint32_t yy = 0; yy < 16; ++yy) {
    std::memcpy(to.y.data() + (my + yy) * w + mx, from.y.data() + (my + yy) * w + mx, 16);
  }
  for (std::uint32_t yy = 0; yy < 8; ++yy) {
    std::size_t off = (my / 2 + yy) * cw + mx / 2;
    std::memcpy(to.u.data() + off, from.u.data() + off, 8);
    std::memcpy(to.v.data() + off, from.v.data() + off, 8);
  }
}

// Codes one 8x8 block of samples (or residuals) into the stream, returning
// the reconstruction the decoder will compute (for the encoder's reference).
void EncodeBlock(BitWriter& bw, const std::int16_t samples[64], int q,
                 std::int16_t recon[64]) {
  std::int32_t coef[64];
  Dct8x8(samples, coef);
  // Quantize in zig-zag order; bit i of `nonzero` marks a nonzero level[i].
  std::int32_t level[64];
  std::int32_t dequant[64];
  std::uint64_t nonzero = 0;
  for (int i = 0; i < 64; ++i) {
    level[i] = QuantOf(coef[kZigzag[i]], q);
    dequant[kZigzag[i]] = level[i] * q;
    nonzero |= std::uint64_t(level[i] != 0) << i;
  }
  // (run, level) over the zig-zag order; EOB = run 63.
  int pos = 0;
  while (pos < 64) {
    std::uint64_t rest = nonzero >> pos;
    if (rest == 0) {
      bw.Ueg(63);  // EOB
      break;
    }
    int run = std::countr_zero(rest);
    if (run == 63) {
      // Escape the run==EOB collision (level at the very last position).
      bw.Ueg(62);
      bw.Seg(0);
      pos += 63;
      continue;
    }
    bw.Ueg(static_cast<std::uint32_t>(run));
    bw.Seg(level[pos + run]);
    pos += run + 1;
  }
  // Reconstruct exactly as the decoder will.
  Idct8x8(dequant, recon);
}

bool DecodeBlock(BitReader& br, int q, std::int16_t recon[64]) {
  std::int32_t quant[64] = {};
  int pos = 0;
  while (pos < 64) {
    std::uint32_t run = br.Ueg();
    if (!br.ok()) {
      return false;
    }
    if (run == 63) {
      break;  // EOB
    }
    std::int32_t level = br.Seg();
    if (run >= std::uint32_t(64 - pos) || level > kMaxLevel || level < -kMaxLevel) {
      return false;
    }
    pos += static_cast<int>(run);
    quant[kZigzag[pos]] = level;
    ++pos;
  }
  std::int32_t dequant[64];
  for (int i = 0; i < 64; ++i) {
    dequant[i] = quant[i] * q;
  }
  Idct8x8(dequant, recon);
  return br.ok();
}

// Full sum of absolute differences over a 16x16 block (the search keeps a
// candidate only when its SAD is below the best so far, so an early exit
// would not change its choice; the plain loop compiles to psadbw).
std::uint32_t Sad16(const std::uint8_t* a, std::uint32_t aw, const std::uint8_t* b,
                    std::uint32_t bw) {
  int sad = 0;  // at most 16*16*255
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      sad += std::abs(a[x] - b[x]);
    }
    a += aw;
    b += bw;
  }
  return static_cast<std::uint32_t>(sad);
}

}  // namespace

void YuvFrame::Allocate(std::uint32_t w, std::uint32_t h) {
  width = w;
  height = h;
  y.assign(std::size_t(w) * h, 0);
  u.assign(std::size_t(w / 2) * (h / 2), 128);
  v.assign(std::size_t(w / 2) * (h / 2), 128);
}

std::int32_t RoundHalfAway(double x) { return RoundHalfAway2(V2d{x, x})[0]; }

void Dct8x8(const std::int16_t in[64], std::int32_t out[64]) {
  // Rows, all eight frequencies at once: tmp[y][u] = sum over x of c[u][x] * in[y][x].
  V2d tmp[8][4];
  for (int y = 0; y < 8; ++y) {
    V2d acc[4] = {};
    for (int x = 0; x < 8; ++x) {
      double d = in[y * 8 + x];
      for (int i = 0; i < 4; ++i) {
        acc[i] += g_basis.col[x][i] * d;
      }
    }
    std::memcpy(tmp[y], acc, sizeof acc);
  }
  // Columns: out[v][u] = sum over y of c[v][y] * tmp[y][u].
  for (int v = 0; v < 8; ++v) {
    V2d acc[4] = {};
    for (int y = 0; y < 8; ++y) {
      double c = g_basis.c[v][y];
      for (int i = 0; i < 4; ++i) {
        acc[i] += c * tmp[y][i];
      }
    }
    for (int i = 0; i < 4; ++i) {
      V2i r = RoundHalfAway2(acc[i]);
      std::memcpy(out + v * 8 + 2 * i, &r, sizeof r);
    }
  }
}

void Idct8x8(const std::int32_t in[64], std::int16_t out[64]) {
  // Rows with a nonzero coefficient (zero coefficients add nothing):
  // tmp[j][x] = sum over u of c[u][x] * in[live[j]][u].
  V2d tmp[8][4];
  int live[8];
  int nlive = 0;
  for (int v = 0; v < 8; ++v) {
    V2d acc[4] = {};
    bool any = false;
    for (int u = 0; u < 8; ++u) {
      int k = in[v * 8 + u];
      if (k == 0) {
        continue;
      }
      any = true;
      double d = k;
      for (int i = 0; i < 4; ++i) {
        acc[i] += g_basis.row[u][i] * d;
      }
    }
    if (any) {
      std::memcpy(tmp[nlive], acc, sizeof acc);
      live[nlive++] = v;
    }
  }
  if (nlive == 0) {
    std::memset(out, 0, 64 * sizeof(std::int16_t));
    return;
  }
  // Columns over the live rows: out[y][x] = sum over v of c[v][y] * tmp[v][x].
  for (int y = 0; y < 8; ++y) {
    V2d acc[4] = {};
    for (int j = 0; j < nlive; ++j) {
      double c = g_basis.c[live[j]][y];
      for (int i = 0; i < 4; ++i) {
        acc[i] += c * tmp[j][i];
      }
    }
    for (int i = 0; i < 4; ++i) {
      V2i r = RoundHalfAway2(acc[i]);
      out[y * 8 + 2 * i] = static_cast<std::int16_t>(r[0]);
      out[y * 8 + 2 * i + 1] = static_cast<std::int16_t>(r[1]);
    }
  }
}

VmvEncoder::VmvEncoder(std::uint32_t w, std::uint32_t h, VmvEncodeOptions opt) : opt_(opt) {
  VOS_CHECK_MSG(w % 16 == 0 && h % 16 == 0, "VMV frames must be multiples of 16");
  hdr_.width = w;
  hdr_.height = h;
  hdr_.fps = opt.fps;
  ref_.Allocate(w, h);
}

void VmvEncoder::AddFrame(const YuvFrame& frame) {
  VOS_CHECK(frame.width == hdr_.width && frame.height == hdr_.height);
  bool intra = frame_index_ % opt_.gop == 0;
  BitWriter bw;
  YuvFrame recon;
  recon.Allocate(hdr_.width, hdr_.height);

  std::uint32_t w = hdr_.width, h = hdr_.height;
  std::uint32_t cw = w / 2, ch = h / 2;
  int q = opt_.quant;
  std::uint8_t cur[64], pred[64];
  std::int16_t block[64], rec[64];

  if (intra) {
    auto encode_plane = [&](const std::uint8_t* src, std::uint8_t* dst, std::uint32_t pw,
                            std::uint32_t ph) {
      for (std::uint32_t by = 0; by < ph; by += 8) {
        for (std::uint32_t bx = 0; bx < pw; bx += 8) {
          GetBlock(src, pw, ph, bx, by, cur);
          for (int i = 0; i < 64; ++i) {
            block[i] = static_cast<std::int16_t>(cur[i] - 128);
          }
          EncodeBlock(bw, block, q, rec);
          for (int i = 0; i < 64; ++i) {
            rec[i] = static_cast<std::int16_t>(rec[i] + 128);
          }
          PutBlock(dst, pw, bx, by, rec, kNoPrediction);
        }
      }
    };
    encode_plane(frame.y.data(), recon.y.data(), w, h);
    encode_plane(frame.u.data(), recon.u.data(), cw, ch);
    encode_plane(frame.v.data(), recon.v.data(), cw, ch);
  } else {
    // P-frame: per-macroblock motion compensation with three-step search.
    // Codes the residual of the 8x8 block at (bx, by) against the reference
    // block displaced by (dx, dy), and reconstructs it as the decoder will.
    auto code_block = [&](const std::vector<std::uint8_t>& src,
                          const std::vector<std::uint8_t>& refp,
                          std::vector<std::uint8_t>& dst, std::uint32_t pw, std::uint32_t ph,
                          std::uint32_t bx, std::uint32_t by, int dx, int dy) {
      GetBlock(src.data(), pw, ph, bx, by, cur);
      GetBlock(refp.data(), pw, ph, std::int64_t(bx) + dx, std::int64_t(by) + dy, pred);
      for (int i = 0; i < 64; ++i) {
        block[i] = static_cast<std::int16_t>(cur[i] - pred[i]);
      }
      EncodeBlock(bw, block, q, rec);
      PutBlock(dst.data(), pw, bx, by, rec, pred);
    };
    for (std::uint32_t my = 0; my < h; my += 16) {
      for (std::uint32_t mx = 0; mx < w; mx += 16) {
        const std::uint8_t* cur_mb = frame.y.data() + my * w + mx;
        // Three-step search around (0,0), clamped to the frame.
        int best_dx = 0, best_dy = 0;
        std::uint32_t best = ~0u;
        for (int step = 4; step >= 1; step /= 2) {
          int base_dx = best_dx, base_dy = best_dy;
          for (int dy = -step; dy <= step; dy += step) {
            for (int dx = -step; dx <= step; dx += step) {
              int cand_dx = base_dx + dx, cand_dy = base_dy + dy;
              if (cand_dx < -opt_.search_range || cand_dx > opt_.search_range ||
                  cand_dy < -opt_.search_range || cand_dy > opt_.search_range) {
                continue;
              }
              std::int64_t rx = std::int64_t(mx) + cand_dx;
              std::int64_t ry = std::int64_t(my) + cand_dy;
              if (rx < 0 || ry < 0 || rx + 16 > w || ry + 16 > h) {
                continue;
              }
              std::uint32_t sad = Sad16(cur_mb, w, ref_.y.data() + ry * w + rx, w);
              if (sad < best) {
                best = sad;
                best_dx = cand_dx;
                best_dy = cand_dy;
              }
            }
          }
        }
        // Skip decision: near-zero motion-compensated difference.
        bool skip = best < 16 * 16 * 2 && best_dx == 0 && best_dy == 0;
        if (skip) {
          bw.Bit(1);
          CopyMacroblock(ref_, recon, mx, my);
          continue;
        }
        bw.Bit(0);
        bw.Seg(best_dx);
        bw.Seg(best_dy);
        // Four luma residual blocks, then chroma with halved motion.
        for (std::uint32_t sub = 0; sub < 4; ++sub) {
          code_block(frame.y, ref_.y, recon.y, w, h, mx + (sub % 2) * 8, my + (sub / 2) * 8,
                     best_dx, best_dy);
        }
        int cdx = best_dx / 2, cdy = best_dy / 2;
        code_block(frame.u, ref_.u, recon.u, cw, ch, mx / 2, my / 2, cdx, cdy);
        code_block(frame.v, ref_.v, recon.v, cw, ch, mx / 2, my / 2, cdx, cdy);
      }
    }
  }

  std::vector<std::uint8_t> bits = bw.Finish();
  // Frame header: type, quant, byte length.
  payload_.push_back(intra ? 'I' : 'P');
  payload_.push_back(static_cast<std::uint8_t>(q));
  for (int i = 0; i < 4; ++i) {
    payload_.push_back(static_cast<std::uint8_t>(bits.size() >> (8 * i)));
  }
  payload_.insert(payload_.end(), bits.begin(), bits.end());
  ref_ = std::move(recon);
  ++hdr_.frame_count;
  ++frame_index_;
}

std::vector<std::uint8_t> VmvEncoder::Finish() {
  std::vector<std::uint8_t> out;
  auto w32 = [&out](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  w32(kVmvMagic);
  w32(hdr_.width);
  w32(hdr_.height);
  w32(hdr_.fps);
  w32(hdr_.frame_count);
  out.insert(out.end(), payload_.begin(), payload_.end());
  return out;
}

bool VmvDecoder::Open(const std::uint8_t* data, std::size_t len) {
  auto r32 = [data](std::size_t off) {
    return std::uint32_t(data[off]) | (std::uint32_t(data[off + 1]) << 8) |
           (std::uint32_t(data[off + 2]) << 16) | (std::uint32_t(data[off + 3]) << 24);
  };
  if (len < 20 || r32(0) != kVmvMagic) {
    return false;
  }
  hdr_.width = r32(4);
  hdr_.height = r32(8);
  hdr_.fps = r32(12);
  hdr_.frame_count = r32(16);
  if (hdr_.width == 0 || hdr_.height == 0 || hdr_.width % 16 || hdr_.height % 16 ||
      hdr_.width > 4096 || hdr_.height > 4096) {
    return false;
  }
  data_ = data;
  len_ = len;
  pos_ = 20;
  frames_done_ = 0;
  ref_.Allocate(hdr_.width, hdr_.height);
  return true;
}

bool VmvDecoder::DecodeFrame(YuvFrame* out) {
  if (frames_done_ >= hdr_.frame_count || pos_ + 6 > len_) {
    return false;
  }
  last_frame_blocks_ = 0;
  char type = static_cast<char>(data_[pos_]);
  int q = data_[pos_ + 1];
  std::uint32_t nbytes = std::uint32_t(data_[pos_ + 2]) | (std::uint32_t(data_[pos_ + 3]) << 8) |
                         (std::uint32_t(data_[pos_ + 4]) << 16) |
                         (std::uint32_t(data_[pos_ + 5]) << 24);
  pos_ += 6;
  if (pos_ + nbytes > len_ || q <= 0) {
    return false;
  }
  BitReader br(data_ + pos_, nbytes);
  pos_ += nbytes;

  std::uint32_t w = hdr_.width, h = hdr_.height;
  std::uint32_t cw = w / 2, ch = h / 2;
  out->Allocate(w, h);

  std::uint8_t pred[64];
  std::int16_t rec[64];
  if (type == 'I') {
    auto decode_plane = [&](std::uint8_t* dst, std::uint32_t pw, std::uint32_t ph) {
      for (std::uint32_t by = 0; by < ph; by += 8) {
        for (std::uint32_t bx = 0; bx < pw; bx += 8) {
          if (!DecodeBlock(br, q, rec)) {
            return false;
          }
          ++last_frame_blocks_;
          for (int i = 0; i < 64; ++i) {
            rec[i] = static_cast<std::int16_t>(rec[i] + 128);
          }
          PutBlock(dst, pw, bx, by, rec, kNoPrediction);
        }
      }
      return true;
    };
    if (!decode_plane(out->y.data(), w, h) || !decode_plane(out->u.data(), cw, ch) ||
        !decode_plane(out->v.data(), cw, ch)) {
      return false;
    }
    stats_.mbs_intra += (w / 16) * (h / 16);
  } else if (type == 'P') {
    // Decodes the residual of the 8x8 block at (bx, by) onto the reference
    // block displaced by (dx, dy).
    auto decode_block = [&](const std::vector<std::uint8_t>& refp, std::vector<std::uint8_t>& dst,
                            std::uint32_t pw, std::uint32_t ph, std::uint32_t bx,
                            std::uint32_t by, int dx, int dy) {
      if (!DecodeBlock(br, q, rec)) {
        return false;
      }
      ++last_frame_blocks_;
      GetBlock(refp.data(), pw, ph, std::int64_t(bx) + dx, std::int64_t(by) + dy, pred);
      PutBlock(dst.data(), pw, bx, by, rec, pred);
      return true;
    };
    for (std::uint32_t my = 0; my < h; my += 16) {
      for (std::uint32_t mx = 0; mx < w; mx += 16) {
        int skip = br.Bit();
        if (!br.ok()) {
          return false;
        }
        if (skip) {
          ++stats_.mbs_skipped;
          CopyMacroblock(ref_, *out, mx, my);
          continue;
        }
        ++stats_.mbs_inter;
        int dx = br.Seg();
        int dy = br.Seg();
        for (std::uint32_t sub = 0; sub < 4; ++sub) {
          if (!decode_block(ref_.y, out->y, w, h, mx + (sub % 2) * 8, my + (sub / 2) * 8, dx,
                            dy)) {
            return false;
          }
        }
        int cdx = dx / 2, cdy = dy / 2;
        if (!decode_block(ref_.u, out->u, cw, ch, mx / 2, my / 2, cdx, cdy) ||
            !decode_block(ref_.v, out->v, cw, ch, mx / 2, my / 2, cdx, cdy)) {
          return false;
        }
      }
    }
  } else {
    return false;
  }
  stats_.blocks_decoded += last_frame_blocks_;
  ref_ = *out;
  ++frames_done_;
  return true;
}

std::vector<YuvFrame> SynthesizeScene(std::uint32_t w, std::uint32_t h, int n) {
  std::vector<YuvFrame> frames;
  for (int f = 0; f < n; ++f) {
    YuvFrame fr;
    fr.Allocate(w, h);
    // Slowly drifting gradient background.
    for (std::uint32_t y = 0; y < h; ++y) {
      for (std::uint32_t x = 0; x < w; ++x) {
        fr.y[y * w + x] = static_cast<std::uint8_t>((x + y + std::uint32_t(f) * 2) & 0xff);
      }
    }
    for (std::uint32_t y = 0; y < h / 2; ++y) {
      for (std::uint32_t x = 0; x < w / 2; ++x) {
        fr.u[y * (w / 2) + x] = static_cast<std::uint8_t>(96 + ((x + std::uint32_t(f)) & 63));
        fr.v[y * (w / 2) + x] = static_cast<std::uint8_t>(96 + ((y + std::uint32_t(f)) & 63));
      }
    }
    // Bouncing bright box (moving content for P-frames to chase).
    std::uint32_t bw2 = w / 8, bh2 = h / 8;
    std::uint32_t bx = (std::uint32_t(f) * 7) % (w - bw2);
    std::uint32_t by = (std::uint32_t(f) * 5) % (h - bh2);
    for (std::uint32_t y = by; y < by + bh2; ++y) {
      for (std::uint32_t x = bx; x < bx + bw2; ++x) {
        fr.y[y * w + x] = 235;
      }
    }
    frames.push_back(std::move(fr));
  }
  return frames;
}

double PsnrLuma(const YuvFrame& a, const YuvFrame& b) {
  VOS_CHECK(a.y.size() == b.y.size() && !a.y.empty());
  double mse = 0;
  for (std::size_t i = 0; i < a.y.size(); ++i) {
    double d = double(a.y[i]) - double(b.y[i]);
    mse += d * d;
  }
  mse /= double(a.y.size());
  if (mse <= 1e-12) {
    return 99.0;
  }
  return 10.0 * std::log10(255.0 * 255.0 / mse);
}

}  // namespace vos
