// VMV: the MPEG-1-style video codec the video player decodes (the paper's
// MPEG-1 substitute; see DESIGN.md §2). Real block-transform video coding:
// YUV420 input, 8x8 DCT, quantization, zig-zag scan, run-length + signed
// Exp-Golomb entropy coding; I-frames (intra) and P-frames with per-16x16-
// macroblock motion vectors (±7 full-pel search) and coded residuals or skip
// flags. The encoder lives here too, so benches generate real bitstreams.
#ifndef VOS_SRC_MEDIA_VMV_H_
#define VOS_SRC_MEDIA_VMV_H_

#include <cstdint>
#include <optional>
#include <vector>

namespace vos {

struct YuvFrame {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<std::uint8_t> y;  // w*h
  std::vector<std::uint8_t> u;  // (w/2)*(h/2)
  std::vector<std::uint8_t> v;

  void Allocate(std::uint32_t w, std::uint32_t h);
};

struct VmvHeader {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::uint32_t fps = 30;
  std::uint32_t frame_count = 0;
};

struct VmvEncodeOptions {
  std::uint32_t fps = 30;
  int quant = 8;           // quantizer step (larger = smaller/lossier)
  int gop = 12;            // I-frame interval
  int search_range = 7;    // motion search ±range
};

class VmvEncoder {
 public:
  VmvEncoder(std::uint32_t w, std::uint32_t h, VmvEncodeOptions opt = {});
  void AddFrame(const YuvFrame& frame);
  std::vector<std::uint8_t> Finish();

 private:
  VmvEncodeOptions opt_;
  VmvHeader hdr_;
  YuvFrame ref_;
  std::vector<std::uint8_t> payload_;
  int frame_index_ = 0;
};

struct VmvDecodeStats {
  std::uint64_t blocks_decoded = 0;    // 8x8 transform blocks
  std::uint64_t mbs_skipped = 0;
  std::uint64_t mbs_inter = 0;
  std::uint64_t mbs_intra = 0;
};

class VmvDecoder {
 public:
  // Parses the header; returns false on malformed input.
  bool Open(const std::uint8_t* data, std::size_t len);
  const VmvHeader& header() const { return hdr_; }

  // Decodes the next frame into `out`; false at end of stream or on error.
  bool DecodeFrame(YuvFrame* out);

  const VmvDecodeStats& stats() const { return stats_; }
  // Transform blocks decoded in the most recent frame (drives the decode
  // cost model in the player).
  std::uint64_t last_frame_blocks() const { return last_frame_blocks_; }

 private:
  VmvHeader hdr_;
  const std::uint8_t* data_ = nullptr;
  std::size_t len_ = 0;
  std::size_t pos_ = 0;
  YuvFrame ref_;
  std::uint32_t frames_done_ = 0;
  VmvDecodeStats stats_;
  std::uint64_t last_frame_blocks_ = 0;
};

// 8x8 forward/inverse DCT (exposed for tests; inverse(forward(x)) ~= x).
// Each output is exactly the textbook separable sum (rows, then columns, each
// over its inputs in ascending order) rounded by RoundHalfAway, so encoded
// streams do not depend on how the loops are vectorised. The inverse skips
// zero coefficients and rows: adding ±0 leaves an IEEE sum unchanged.
void Dct8x8(const std::int16_t in[64], std::int32_t out[64]);
void Idct8x8(const std::int32_t in[64], std::int16_t out[64]);

// std::lround for |x| < 2^31, which bounds every transform sum a decodable
// stream can produce: rounds half away from zero, as the transforms do.
std::int32_t RoundHalfAway(double x);

// Generates `n` frames of a synthetic test scene (moving gradients + bouncing
// box) — the bench content generator.
std::vector<YuvFrame> SynthesizeScene(std::uint32_t w, std::uint32_t h, int n);

// PSNR between two luma planes (test quality bound).
double PsnrLuma(const YuvFrame& a, const YuvFrame& b);

}  // namespace vos

#endif  // VOS_SRC_MEDIA_VMV_H_
