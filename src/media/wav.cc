#include "src/media/wav.h"

#include <cmath>
#include <cstring>

namespace vos {

namespace {
std::uint16_t R16(const std::uint8_t* p) { return std::uint16_t(p[0] | (p[1] << 8)); }
std::uint32_t R32(const std::uint8_t* p) {
  return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) | (std::uint32_t(p[2]) << 16) |
         (std::uint32_t(p[3]) << 24);
}
}  // namespace

std::optional<WavData> WavDecode(const std::uint8_t* data, std::size_t len) {
  if (len < 44 || std::memcmp(data, "RIFF", 4) != 0 || std::memcmp(data + 8, "WAVE", 4) != 0) {
    return std::nullopt;
  }
  WavData out;
  std::size_t pos = 12;
  bool have_fmt = false;
  while (pos + 8 <= len) {
    std::uint32_t chunk_len = R32(data + pos + 4);
    if (std::memcmp(data + pos, "fmt ", 4) == 0 && chunk_len >= 16) {
      if (R16(data + pos + 8) != 1 || R16(data + pos + 22) != 16) {
        return std::nullopt;  // PCM16 only
      }
      out.channels = R16(data + pos + 10);
      out.sample_rate = R32(data + pos + 12);
      have_fmt = true;
    } else if (std::memcmp(data + pos, "data", 4) == 0) {
      if (!have_fmt || pos + 8 + chunk_len > len) {
        return std::nullopt;
      }
      out.samples.resize(chunk_len / 2);
      std::memcpy(out.samples.data(), data + pos + 8, out.samples.size() * 2);
      return out;
    }
    pos += 8 + chunk_len + (chunk_len & 1);
  }
  return std::nullopt;
}

std::vector<std::uint8_t> WavEncode(const WavData& wav) {
  // The 44-byte RIFF/fmt/data header, then the samples. Sized once and
  // filled in place: growing the vector piece by piece draws a GCC 12 -O3
  // -Wstringop-overflow false positive.
  constexpr std::size_t kHeaderBytes = 44;
  std::uint32_t data_bytes = static_cast<std::uint32_t>(wav.samples.size() * 2);
  std::vector<std::uint8_t> out(kHeaderBytes + data_bytes);
  std::uint8_t* p = out.data();
  auto tag = [&p](const char* t) {
    std::memcpy(p, t, 4);
    p += 4;
  };
  auto w16 = [&p](std::uint16_t x) {
    p[0] = static_cast<std::uint8_t>(x);
    p[1] = static_cast<std::uint8_t>(x >> 8);
    p += 2;
  };
  auto w32 = [&w16](std::uint32_t x) {
    w16(static_cast<std::uint16_t>(x));
    w16(static_cast<std::uint16_t>(x >> 16));
  };
  tag("RIFF");
  w32(36 + data_bytes);
  tag("WAVE");
  tag("fmt ");
  w32(16);
  w16(1);  // PCM
  w16(wav.channels);
  w32(wav.sample_rate);
  w32(wav.sample_rate * wav.channels * 2);
  w16(static_cast<std::uint16_t>(wav.channels * 2));
  w16(16);
  tag("data");
  w32(data_bytes);
  if (data_bytes != 0) {
    std::memcpy(p, wav.samples.data(), data_bytes);
  }
  return out;
}

WavData SynthesizeMelody(std::uint32_t sample_rate, std::uint32_t frames,
                         std::uint16_t channels) {
  WavData wav;
  wav.sample_rate = sample_rate;
  wav.channels = channels;
  wav.samples.resize(std::size_t(frames) * channels);
  // A little arpeggio: A minor, eighth notes.
  static const double kNotes[] = {220.0, 261.63, 329.63, 440.0, 329.63, 261.63};
  std::uint32_t note_len = sample_rate / 4;
  for (std::uint32_t i = 0; i < frames; ++i) {
    std::uint32_t note = (i / note_len) % (sizeof(kNotes) / sizeof(kNotes[0]));
    double t = double(i) / sample_rate;
    double f = kNotes[note];
    // Sine lead + triangle bass, gentle envelope per note. (Band-limited
    // voices: ADPCM tolerates them far better than raw square edges.)
    double lead = 0.30 * std::sin(2.0 * 3.14159265358979 * t * f);
    double tri_phase = std::fmod(t * f * 0.5, 1.0);
    double triangle = (tri_phase < 0.5 ? 4 * tri_phase - 1 : 3 - 4 * tri_phase) * 0.22;
    double env = 1.0 - double(i % note_len) / note_len * 0.35;
    double s = (lead + triangle) * env;
    auto sample = static_cast<std::int16_t>(s * 28000);
    for (std::uint16_t c = 0; c < channels; ++c) {
      wav.samples[std::size_t(i) * channels + c] = sample;
    }
  }
  return wav;
}

}  // namespace vos
