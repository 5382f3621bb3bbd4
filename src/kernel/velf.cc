#include "src/kernel/velf.h"

#include <cstring>

#include "src/base/sha256.h"
#include "src/kernel/vm.h"

namespace vos {

std::vector<std::uint8_t> BuildVelf(const std::string& entry, std::uint32_t code_size,
                                    const std::vector<std::uint8_t>& data,
                                    std::uint64_t heap_reserve) {
  VelfHeader h{};
  h.magic = kVelfMagic;
  h.version = kVelfVersion;
  std::strncpy(h.entry, entry.c_str(), sizeof(h.entry) - 1);
  h.nsegs = data.empty() ? 1 : 2;
  h.heap_reserve = heap_reserve;

  VelfSegHeader cs{kVelfSegCode, 0, kUserCodeBase, code_size, code_size};
  VelfSegHeader ds{kVelfSegData, 1, kUserCodeBase + PageRoundUp(code_size),
                   static_cast<std::uint32_t>(data.size()),
                   static_cast<std::uint32_t>(data.size())};
  const std::size_t code_off = sizeof(h) + h.nsegs * sizeof(VelfSegHeader);

  // Sized once, then filled at fixed offsets: header, segment headers, code,
  // data.
  std::vector<std::uint8_t> out(code_off + code_size + data.size());
  std::memcpy(out.data(), &h, sizeof(h));
  std::memcpy(out.data() + sizeof(h), &cs, sizeof(cs));
  if (!data.empty()) {
    std::memcpy(out.data() + sizeof(h) + sizeof(cs), &ds, sizeof(ds));
    std::memcpy(out.data() + code_off + code_size, data.data(), data.size());
  }
  // Pseudo-text: repeated SHA-256 of the entry name. Deterministic, and as
  // opaque to the loader as real machine code would be.
  Sha256Digest d = Sha256::Hash(entry.data(), entry.size());
  for (std::uint32_t i = 0; i < code_size; ++i) {
    out[code_off + i] = d[i % d.size()];
  }
  return out;
}

std::optional<VelfImage> ParseVelf(const std::uint8_t* bytes, std::size_t len) {
  if (len < sizeof(VelfHeader)) {
    return std::nullopt;
  }
  VelfHeader h;
  std::memcpy(&h, bytes, sizeof(h));
  if (h.magic != kVelfMagic || h.version != kVelfVersion || h.nsegs > 8) {
    return std::nullopt;
  }
  std::size_t off = sizeof(VelfHeader);
  std::vector<VelfSegHeader> shs(h.nsegs);
  for (std::uint32_t i = 0; i < h.nsegs; ++i) {
    if (off + sizeof(VelfSegHeader) > len) {
      return std::nullopt;
    }
    std::memcpy(&shs[i], bytes + off, sizeof(VelfSegHeader));
    off += sizeof(VelfSegHeader);
  }
  VelfImage img;
  img.entry.assign(h.entry, strnlen(h.entry, sizeof(h.entry)));
  img.heap_reserve = h.heap_reserve;
  for (const VelfSegHeader& sh : shs) {
    if (off + sh.filesz > len || sh.memsz < sh.filesz) {
      return std::nullopt;
    }
    VelfSegment seg;
    seg.type = sh.type;
    seg.flags = sh.flags;
    seg.vaddr = sh.vaddr;
    seg.memsz = sh.memsz;
    seg.payload.assign(bytes + off, bytes + off + sh.filesz);
    off += sh.filesz;
    img.segments.push_back(std::move(seg));
  }
  return img;
}

}  // namespace vos
