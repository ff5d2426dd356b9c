/// \file byte_codec.h
/// \brief The binary codec shared by the on-disk formats: instance
/// snapshots (data/snapshot.cc), job manifests (job/job.cc) and symbolic
/// SO-inverse worlds (chase/chase_so.cc).
///
/// Integers are host-endian (every format is a single-host artifact).
/// Writers append fixed-width integers to a std::string; readers walk a
/// ByteReader, a bounds-checked cursor whose every read fails with
/// kMalformed — prefixed with the format's name — instead of walking off
/// the buffer. FNV-1a is the checksum / fingerprint hash.

#ifndef MAPINV_BASE_BYTE_CODEC_H_
#define MAPINV_BASE_BYTE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "base/status.h"

namespace mapinv {

inline void AppendU32(std::string& buf, uint32_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline void AppendU64(std::string& buf, uint64_t v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

inline constexpr uint64_t kFnv1aOffset = 14695981039346656037ull;

/// FNV-1a over `len` bytes, continuing from `h` (chain calls to hash several
/// fields as one stream).
inline uint64_t Fnv1a(const void* data, size_t len, uint64_t h = kFnv1aOffset) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// \brief Bounds-checked cursor over an encoded image. `error_prefix` names
/// the format in every error ("snapshot: truncated inside a field").
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, std::string_view error_prefix)
      : data_(data), size_(size), prefix_(error_prefix) {}

  Result<uint8_t> U8() { return Fixed<uint8_t>(); }
  Result<uint32_t> U32() { return Fixed<uint32_t>(); }
  Result<uint64_t> U64() { return Fixed<uint64_t>(); }

  Result<std::string_view> Bytes(size_t len) {
    if (len > remaining()) return Malformed("truncated inside a field");
    std::string_view view(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return view;
  }

  Status Skip(size_t len) {
    if (len > remaining()) return Malformed("truncated inside padding");
    pos_ += len;
    return Status::OK();
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

  /// The format's kMalformed error: "<prefix><what>".
  Status Malformed(std::string_view what) const {
    return Status::Malformed(std::string(prefix_) + std::string(what));
  }

 private:
  template <typename T>
  Result<T> Fixed() {
    if (sizeof(T) > remaining()) return Malformed("truncated inside a field");
    T v{};
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  const uint8_t* data_;
  size_t size_;
  std::string_view prefix_;
  size_t pos_ = 0;
};

}  // namespace mapinv

#endif  // MAPINV_BASE_BYTE_CODEC_H_
