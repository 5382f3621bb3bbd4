#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>

#include "src/base/crc32.h"
#include "src/base/random.h"
#include "src/media/vmv.h"
#include "src/media/vog.h"
#include "src/media/wav.h"
#include "src/vos/system.h"

namespace vos {
namespace {

// The textbook separable DCT the codec's transforms must match bit for bit:
// rows then columns, each sum from 0 in ascending order, std::lround.
struct NaiveDct {
  double c[8][8];
  NaiveDct() {
    for (int u = 0; u < 8; ++u) {
      double cu = u == 0 ? std::sqrt(0.125) : 0.5;
      for (int x = 0; x < 8; ++x) {
        c[u][x] = cu * std::cos((2 * x + 1) * u * 3.14159265358979323846 / 16.0);
      }
    }
  }
  void Forward(const std::int16_t in[64], std::int32_t out[64]) const {
    double tmp[64];
    for (int y = 0; y < 8; ++y) {
      for (int u = 0; u < 8; ++u) {
        double s = 0;
        for (int x = 0; x < 8; ++x) {
          s += c[u][x] * in[y * 8 + x];
        }
        tmp[y * 8 + u] = s;
      }
    }
    for (int u = 0; u < 8; ++u) {
      for (int v = 0; v < 8; ++v) {
        double s = 0;
        for (int y = 0; y < 8; ++y) {
          s += c[v][y] * tmp[y * 8 + u];
        }
        out[v * 8 + u] = static_cast<std::int32_t>(std::lround(s));
      }
    }
  }
  void Inverse(const std::int32_t in[64], std::int16_t out[64]) const {
    double tmp[64];
    for (int v = 0; v < 8; ++v) {
      for (int x = 0; x < 8; ++x) {
        double s = 0;
        for (int u = 0; u < 8; ++u) {
          s += c[u][x] * in[v * 8 + u];
        }
        tmp[v * 8 + x] = s;
      }
    }
    for (int x = 0; x < 8; ++x) {
      for (int y = 0; y < 8; ++y) {
        double s = 0;
        for (int v = 0; v < 8; ++v) {
          s += c[v][y] * tmp[v * 8 + x];
        }
        out[y * 8 + x] = static_cast<std::int16_t>(std::lround(s));
      }
    }
  }
};

TEST(Dct, MatchesReferenceBitForBit) {
  const NaiveDct ref;
  Rng rng(16);
  std::vector<std::array<std::int16_t, 64>> samples;
  std::vector<std::array<std::int32_t, 64>> coefs;
  for (int trial = 0; trial < 400; ++trial) {
    std::array<std::int16_t, 64> s{};
    std::array<std::int32_t, 64> k{};
    if (trial < 100) {  // dense
      for (int i = 0; i < 64; ++i) {
        s[std::size_t(i)] = static_cast<std::int16_t>(rng.NextRange(-255, 255));
        k[std::size_t(i)] = static_cast<std::int32_t>(rng.NextRange(-2040, 2040));
      }
    } else if (trial < 390) {  // 1-3 nonzeros, as most residual blocks are
      int n = 1 + trial % 3;
      for (int j = 0; j < n; ++j) {
        s[rng.NextBelow(64)] = static_cast<std::int16_t>(rng.NextRange(-255, 255));
        k[rng.NextBelow(64)] = static_cast<std::int32_t>(rng.NextRange(-4096, 4096) * 8);
      }
    }  // else all zero
    samples.push_back(s);
    coefs.push_back(k);
  }
  // Extremes: full-scale samples and the largest coefficients a q=255
  // stream can carry (±4096 levels).
  for (int sign : {1, -1}) {
    std::array<std::int16_t, 64> s{};
    std::array<std::int16_t, 64> checker{};
    std::array<std::int32_t, 64> k{};
    std::array<std::int32_t, 64> alt{};
    for (int i = 0; i < 64; ++i) {
      s[std::size_t(i)] = static_cast<std::int16_t>(255 * sign);
      checker[std::size_t(i)] = static_cast<std::int16_t>(((i + i / 8) % 2 ? 255 : -255) * sign);
      k[std::size_t(i)] = 4096 * 255 * sign;
      alt[std::size_t(i)] = (i % 2 ? 4096 : -4096) * 255 * sign;
    }
    samples.push_back(s);
    samples.push_back(checker);
    coefs.push_back(k);
    coefs.push_back(alt);
  }
  for (const auto& s : samples) {
    std::int32_t got[64], want[64];
    Dct8x8(s.data(), got);
    ref.Forward(s.data(), want);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(got[i], want[i]) << "forward coef " << i;
    }
  }
  for (const auto& k : coefs) {
    std::int16_t got[64], want[64];
    Idct8x8(k.data(), got);
    ref.Inverse(k.data(), want);
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(got[i], want[i]) << "inverse sample " << i;
    }
  }
}

TEST(Dct, RoundHalfAwayMatchesLround) {
  std::vector<double> xs = {0.5,  -0.5, 1.5,  -1.5, 2.5, -2.5, std::nextafter(0.5, 0.0),
                            -std::nextafter(0.5, 0.0), -0.0, 0.0, 0.49999999999999994,
                            2147483646.5, -2147483646.5, 2147483647.25, -2147483647.75};
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    xs.push_back(static_cast<double>(rng.NextRange(-1000000, 1000000)) / 8.0);
    xs.push_back(static_cast<double>(rng.NextRange(-1000000, 1000000)) * 1.0e-3);
  }
  for (double x : xs) {
    EXPECT_EQ(RoundHalfAway(x), std::lround(x)) << "x = " << x;
  }
}

TEST(Dct, RoundTripIsNearIdentity) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::int16_t block[64];
    for (auto& v : block) {
      v = static_cast<std::int16_t>(rng.NextRange(-128, 127));
    }
    std::int32_t freq[64];
    std::int16_t back[64];
    Dct8x8(block, freq);
    Idct8x8(freq, back);
    for (int i = 0; i < 64; ++i) {
      EXPECT_NEAR(block[i], back[i], 2) << "coef " << i;
    }
  }
}

TEST(Dct, DcCoefficientIsBlockMean) {
  std::int16_t block[64];
  std::fill(block, block + 64, 100);
  std::int32_t freq[64];
  Dct8x8(block, freq);
  EXPECT_NEAR(freq[0], 800, 1);  // 8 * mean for the orthonormal DCT
  for (int i = 1; i < 64; ++i) {
    EXPECT_EQ(freq[i], 0);
  }
}

TEST(Vmv, IntraOnlyRoundTripQuality) {
  VmvEncodeOptions opt;
  opt.gop = 1;  // all I-frames
  opt.quant = 4;
  auto frames = SynthesizeScene(64, 48, 3);
  VmvEncoder enc(64, 48, opt);
  for (const auto& f : frames) {
    enc.AddFrame(f);
  }
  auto bits = enc.Finish();
  VmvDecoder dec;
  ASSERT_TRUE(dec.Open(bits.data(), bits.size()));
  EXPECT_EQ(dec.header().frame_count, 3u);
  YuvFrame out;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(dec.DecodeFrame(&out));
    double psnr = PsnrLuma(frames[static_cast<std::size_t>(i)], out);
    EXPECT_GT(psnr, 30.0) << "frame " << i;
  }
  EXPECT_FALSE(dec.DecodeFrame(&out));  // end of stream
}

TEST(Vmv, InterFramesCompressAndTrackMotion) {
  VmvEncodeOptions opt;
  opt.gop = 30;
  opt.quant = 6;
  auto frames = SynthesizeScene(64, 48, 12);
  VmvEncoder enc(64, 48, opt);
  for (const auto& f : frames) {
    enc.AddFrame(f);
  }
  auto bits = enc.Finish();
  VmvDecoder dec;
  ASSERT_TRUE(dec.Open(bits.data(), bits.size()));
  YuvFrame out;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(dec.DecodeFrame(&out)) << i;
    EXPECT_GT(PsnrLuma(frames[i], out), 26.0) << "frame " << i << " drifted";
  }
  EXPECT_GT(dec.stats().mbs_inter + dec.stats().mbs_skipped, 0u);
  // P-frames make the stream smaller than intra-only.
  VmvEncoder intra_enc(64, 48, VmvEncodeOptions{30, 6, 1, 7});
  for (const auto& f : frames) {
    intra_enc.AddFrame(f);
  }
  EXPECT_LT(bits.size(), intra_enc.Finish().size());
}

TEST(Vmv, RejectsCorruptStreams) {
  auto frames = SynthesizeScene(32, 32, 2);
  VmvEncoder enc(32, 32, {});
  enc.AddFrame(frames[0]);
  auto bits = enc.Finish();
  VmvDecoder dec;
  EXPECT_FALSE(dec.Open(bits.data(), 8));  // truncated header
  bits[0] ^= 0xff;
  EXPECT_FALSE(dec.Open(bits.data(), bits.size()));  // bad magic
  // Truncated payload: Open succeeds, DecodeFrame fails gracefully.
  auto frames2 = SynthesizeScene(32, 32, 1);
  VmvEncoder enc2(32, 32, {});
  enc2.AddFrame(frames2[0]);
  auto bits2 = enc2.Finish();
  VmvDecoder dec2;
  ASSERT_TRUE(dec2.Open(bits2.data(), bits2.size() / 2));
  YuvFrame out;
  EXPECT_FALSE(dec2.DecodeFrame(&out));

  // Hand-built 16x16 I-frames (six blocks): the first block carries one
  // level, the rest are bare EOBs. A level beyond ±2^15 would overflow
  // level*q; the decoder refuses it.
  auto intra_stream = [](const std::string& code) {
    std::vector<std::uint8_t> payload((code.size() + 7) / 8, 0);
    for (std::size_t i = 0; i < code.size(); ++i) {
      if (code[i] == '1') {
        payload[i / 8] |= static_cast<std::uint8_t>(0x80 >> (i % 8));
      }
    }
    std::vector<std::uint8_t> s;
    for (std::uint32_t v : {0x31564d56u, 16u, 16u, 30u, 1u}) {
      for (int i = 0; i < 4; ++i) {
        s.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
      }
    }
    s.push_back('I');
    s.push_back(255);  // q
    for (int i = 0; i < 4; ++i) {
      s.push_back(static_cast<std::uint8_t>(payload.size() >> (8 * i)));
    }
    s.insert(s.end(), payload.begin(), payload.end());
    return s;
  };
  auto ueg = [](std::uint32_t v) {
    std::uint64_t vp = std::uint64_t(v) + 1;
    std::string code;
    for (int b = 63; b >= 0; --b) {
      if (vp >> b) {
        code = std::string(std::size_t(b), '0');
        for (int i = b; i >= 0; --i) {
          code += (vp >> i) & 1 ? '1' : '0';
        }
        break;
      }
    }
    return code;
  };
  auto one_level = [&](std::int32_t level) {
    std::int64_t l = level;
    auto m = static_cast<std::uint32_t>(l > 0 ? 2 * l - 1 : -2 * l);
    std::string code = ueg(0) + ueg(m) + ueg(63);
    for (int b = 1; b < 6; ++b) {
      code += ueg(63);
    }
    return intra_stream(code);
  };
  for (std::int32_t level : {1 << 15, -(1 << 15)}) {
    auto ok = one_level(level);
    VmvDecoder d;
    ASSERT_TRUE(d.Open(ok.data(), ok.size()));
    EXPECT_TRUE(d.DecodeFrame(&out)) << level;
  }
  for (std::int32_t level : {(1 << 15) + 1, -(1 << 15) - 1, 1 << 30, -(1 << 30)}) {
    auto bad = one_level(level);
    VmvDecoder d;
    ASSERT_TRUE(d.Open(bad.data(), bad.size()));
    EXPECT_FALSE(d.DecodeFrame(&out)) << level;
  }
  // A run past the block's end, including one beyond INT32_MAX.
  for (std::uint32_t run : {64u, 0x80000000u, 0xfffffffeu}) {
    std::string code = ueg(run) + ueg(1);
    for (int b = 0; b < 6; ++b) {
      code += ueg(63);
    }
    auto bad = intra_stream(code);
    VmvDecoder d;
    ASSERT_TRUE(d.Open(bad.data(), bad.size()));
    EXPECT_FALSE(d.DecodeFrame(&out)) << run;
  }
  // An Exp-Golomb code with 32 leading zeros is malformed; one cut off by
  // the end of the frame is truncated. Both fail.
  for (const std::string& code : {std::string(40, '0') + "1", std::string("00001")}) {
    auto bad = intra_stream(code);
    VmvDecoder d;
    ASSERT_TRUE(d.Open(bad.data(), bad.size()));
    EXPECT_FALSE(d.DecodeFrame(&out));
  }
}

TEST(Vmv, DecodeStatsDriveCostModel) {
  auto frames = SynthesizeScene(64, 64, 2);
  VmvEncoder enc(64, 64, VmvEncodeOptions{30, 8, 1, 7});
  enc.AddFrame(frames[0]);
  auto bits = enc.Finish();
  VmvDecoder dec;
  ASSERT_TRUE(dec.Open(bits.data(), bits.size()));
  YuvFrame out;
  ASSERT_TRUE(dec.DecodeFrame(&out));
  // I-frame of 64x64: 64 luma + 2*16 chroma = 96 blocks.
  EXPECT_EQ(dec.last_frame_blocks(), 96u);
}

// The encoder is exact: the media assets are the same bytes on every build,
// so the FAT image, the decode cost model and every frame stay put.
TEST(Vmv, MediaAssetsAreByteStable) {
  struct Want {
    const char* path;
    std::size_t size;
    std::uint32_t crc;
  };
  auto check = [](const FsSpec& spec, const std::vector<Want>& want) {
    ASSERT_EQ(spec.files.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      const FsEntry& f = spec.files[i];
      EXPECT_EQ(f.path, want[i].path);
      EXPECT_EQ(f.data.size(), want[i].size) << f.path;
      EXPECT_EQ(Crc32(f.data.data(), f.data.size()), want[i].crc) << f.path;
    }
  };
  check(System::MakeMediaAssets(640, 480, 24), {{"/music/track1.vog", 88918, 0x50899e4e},
                                                {"/videos/clip480.vmv", 487075, 0xdf4dce50},
                                                {"/slides/s1.bmp", 57654, 0x9382b2c4},
                                                {"/slides/s2.png", 9741, 0x9377851f},
                                                {"/slides/s3.gif", 1270, 0x37d3a215}});
  // The default SystemOptions clip.
  SystemOptions defaults;
  check(System::MakeMediaAssets(defaults.media_video_w, defaults.media_video_h,
                                defaults.media_video_frames),
        {{"/music/track1.vog", 88918, 0x50899e4e},
         {"/videos/clip480.vmv", 158004, 0x8f0518e4},
         {"/slides/s1.bmp", 57654, 0x9382b2c4},
         {"/slides/s2.png", 9741, 0x9377851f},
         {"/slides/s3.gif", 1270, 0x37d3a215}});
}

TEST(ImaAdpcm, StepTableIsTheStandardOne) {
  EXPECT_EQ(kImaStepTable[0], 7);
  EXPECT_EQ(kImaStepTable[88], 32767);
  EXPECT_EQ(kImaIndexTable[7], 8);
  // Monotonic steps.
  for (int i = 1; i < 89; ++i) {
    EXPECT_GT(kImaStepTable[i], kImaStepTable[i - 1]);
  }
}

TEST(Vog, RoundTripCloseToOriginal) {
  WavData wav = SynthesizeMelody(22050, 22050, 2);
  auto encoded = VogEncode(wav.samples.data(), wav.frames(), 2, 22050);
  // 4 bits/sample: roughly 4x smaller than PCM16.
  EXPECT_LT(encoded.size(), wav.samples.size() * 2 / 3);
  VogDecoder dec;
  ASSERT_TRUE(dec.Open(encoded.data(), encoded.size()));
  EXPECT_EQ(dec.info().sample_rate, 22050u);
  EXPECT_EQ(dec.info().channels, 2);
  EXPECT_EQ(dec.info().total_frames, wav.frames());
  std::vector<std::int16_t> out(wav.samples.size());
  std::uint32_t got = 0;
  while (got < wav.frames()) {
    std::uint32_t n = dec.Decode(out.data() + std::size_t(got) * 2, 1000);
    if (n == 0) {
      break;
    }
    got += n;
  }
  EXPECT_EQ(got, wav.frames());
  // ADPCM quality: signal-to-noise well above the noise floor.
  double err = 0, sig = 0;
  for (std::size_t i = 0; i < wav.samples.size(); ++i) {
    double d = double(wav.samples[i]) - double(out[i]);
    err += d * d;
    sig += double(wav.samples[i]) * wav.samples[i];
  }
  double snr_db = 10.0 * std::log10(sig / (err + 1));
  EXPECT_GT(snr_db, 18.0);
}

TEST(Vog, EmbeddedAlbumArtSurvives) {
  WavData wav = SynthesizeMelody(8000, 4000, 1);
  std::vector<std::uint8_t> art = {'P', 'N', 'G', '!', 1, 2, 3};
  auto encoded = VogEncode(wav.samples.data(), wav.frames(), 1, 8000, art);
  VogDecoder dec;
  ASSERT_TRUE(dec.Open(encoded.data(), encoded.size()));
  EXPECT_EQ(dec.Art(), art);
}

TEST(Vog, RejectsGarbage) {
  std::vector<std::uint8_t> junk(64, 0xaa);
  VogDecoder dec;
  EXPECT_FALSE(dec.Open(junk.data(), junk.size()));
  EXPECT_FALSE(dec.Open(junk.data(), 3));
}

TEST(Wav, EncodeDecodeRoundTrip) {
  WavData wav = SynthesizeMelody(16000, 8000, 2);
  auto bytes = WavEncode(wav);
  auto back = WavDecode(bytes.data(), bytes.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->sample_rate, 16000u);
  EXPECT_EQ(back->channels, 2);
  EXPECT_EQ(back->samples, wav.samples);
}

TEST(Wav, RejectsNonWav) {
  std::vector<std::uint8_t> junk(100, 7);
  EXPECT_FALSE(WavDecode(junk.data(), junk.size()).has_value());
}

}  // namespace
}  // namespace vos
