// Fixed-size, zero-initialized byte storage for simulated media and memory:
// DRAM, the SD card, the USB stick and ramdisks. The bytes come from calloc,
// which for large sizes maps fresh anonymous pages, so the host keeps every
// page nobody writes on its shared zero page: a mostly empty 32 MiB card
// costs the host only the pages the filesystem actually touched.
//
// Deliberately not resizable: growing a buffer that was shrunk would have to
// re-zero the tail, and the devices this backs have a fixed capacity anyway.
// Copying is explicit (construct from a span) so a stray copy of a whole
// disk cannot happen by accident.
#ifndef VOS_SRC_BASE_BYTE_STORE_H_
#define VOS_SRC_BASE_BYTE_STORE_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <span>
#include <utility>

#include "src/base/assert.h"

namespace vos {

class ByteStore {
 public:
  ByteStore() = default;
  // `size` zero bytes.
  explicit ByteStore(std::size_t size) : data_(Alloc(size)), size_(size) {}
  // A copy of `bytes`.
  explicit ByteStore(std::span<const std::uint8_t> bytes) : ByteStore(bytes.size()) {
    if (!bytes.empty()) {
      std::memcpy(data_, bytes.data(), bytes.size());
    }
  }

  ByteStore(ByteStore&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  ByteStore& operator=(ByteStore&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ByteStore(const ByteStore&) = delete;
  ByteStore& operator=(const ByteStore&) = delete;
  ~ByteStore() { std::free(data_); }

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  std::uint8_t* begin() { return data_; }
  std::uint8_t* end() { return data_ + size_; }
  const std::uint8_t* begin() const { return data_; }
  const std::uint8_t* end() const { return data_ + size_; }

  std::uint8_t& operator[](std::size_t i) { return data_[i]; }
  std::uint8_t operator[](std::size_t i) const { return data_[i]; }

 private:
  static std::uint8_t* Alloc(std::size_t size) {
    if (size == 0) {
      return nullptr;
    }
    auto* p = static_cast<std::uint8_t*>(std::calloc(size, 1));
    VOS_CHECK_MSG(p != nullptr, "out of host memory for a byte store");
    return p;
  }

  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace vos

#endif  // VOS_SRC_BASE_BYTE_STORE_H_
