// Minimal binary serialization: little-endian fixed integers, LEB128 varints,
// and length-prefixed strings. Used for lineage wire encoding (whose size the
// paper reports) and for store payload framing.

#ifndef SRC_COMMON_SERIALIZATION_H_
#define SRC_COMMON_SERIALIZATION_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "src/common/status.h"

namespace antipode {

// Number of bytes WriteVarint emits for `v` — lets callers size wire formats
// arithmetically without materializing a serialization.
inline size_t VarintWireSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

// Append-style encoders for hot paths that build a wire image in one caller-
// owned buffer (often a reused thread_local scratch) instead of routing
// through a Serializer temporary. Byte-identical to the Serializer methods.
inline void AppendVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

inline void AppendLengthPrefixed(std::string& out, std::string_view s) {
  AppendVarint(out, s.size());
  out.append(s.data(), s.size());
}

class Serializer {
 public:
  void WriteUint8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

  void WriteUint32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  void WriteUint64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }

  // Unsigned LEB128.
  void WriteVarint(uint64_t v) {
    while (v >= 0x80) {
      buffer_.push_back(static_cast<char>((v & 0x7F) | 0x80));
      v >>= 7;
    }
    buffer_.push_back(static_cast<char>(v));
  }

  void WriteString(std::string_view s) {
    WriteVarint(s.size());
    buffer_.append(s.data(), s.size());
  }

  void WriteBytes(const void* data, size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  const std::string& data() const { return buffer_; }
  std::string Release() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

class Deserializer {
 public:
  explicit Deserializer(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadUint8() {
    if (pos_ + 1 > data_.size()) {
      return TruncatedError();
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint32_t> ReadUint32() {
    if (pos_ + 4 > data_.size()) {
      return TruncatedError();
    }
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  Result<uint64_t> ReadUint64() {
    if (pos_ + 8 > data_.size()) {
      return TruncatedError();
    }
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  // Canonical LEB128 only: an encoding Serializer would never emit — a
  // redundant trailing zero group, or bits past 2^64 — is rejected, so every
  // accepted varint re-encodes to exactly the bytes it was read from.
  Result<uint64_t> ReadVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size() || shift > 63) {
        return TruncatedError();
      }
      const auto byte = static_cast<uint8_t>(data_[pos_++]);
      const uint64_t group = byte & 0x7F;
      if (shift == 63 && group > 1) {
        return Status::OutOfRange("varint overflows 64 bits");
      }
      v |= group << shift;
      if ((byte & 0x80) == 0) {
        if (byte == 0 && shift != 0) {
          return Status::OutOfRange("non-canonical varint (redundant zero group)");
        }
        return v;
      }
      shift += 7;
    }
  }

  // A length-prefixed string as a view into the input — no copy. The view is
  // valid as long as the buffer this Deserializer reads. All-or-nothing: a
  // failed read leaves the position where it was.
  Result<std::string_view> ReadView() {
    const size_t start = pos_;
    auto len = ReadVarint();
    if (!len.ok()) {
      pos_ = start;
      return len.status();
    }
    // Compared against what is left, not as `pos_ + len`: a varint length
    // near 2^64 would wrap that sum and pass the check.
    if (*len > Remaining()) {
      pos_ = start;
      return TruncatedError();
    }
    const std::string_view out = data_.substr(pos_, *len);
    pos_ += *len;
    return out;
  }

  // ReadView, copied into an owned string.
  Result<std::string> ReadString() {
    auto view = ReadView();
    if (!view.ok()) {
      return view.status();
    }
    return std::string(*view);
  }

  size_t Remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ >= data_.size(); }

 private:
  static Status TruncatedError() { return Status::OutOfRange("truncated buffer"); }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace antipode

#endif  // SRC_COMMON_SERIALIZATION_H_
