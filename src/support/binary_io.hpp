// Little-endian binary encode/decode helpers shared by the persistent
// artifact store (service/artifact_store.cpp) and the binary wire protocol
// (service/protocol.cpp).
//
// Encoding is explicit-byte-order, independent of the host: artifacts and
// frames may be written on one machine and read on another. The Reader is
// bounds-checked on every access — arbitrary/hostile bytes can make a getter
// return false, never read out of range — which is what lets fuzz_smoke feed
// both consumers raw garbage.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace mat2c::bin {

/// Appends `v` least-significant byte first, in one append.
template <typename T>
inline void appendLittleEndian(std::string& out, T v) {
  char bytes[sizeof(T)];
  for (std::size_t i = 0; i < sizeof(T); ++i) bytes[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.append(bytes, sizeof bytes);
}

inline void appendU8(std::string& out, std::uint8_t v) { out += static_cast<char>(v); }

inline void appendU16(std::string& out, std::uint16_t v) { appendLittleEndian(out, v); }

inline void appendU32(std::string& out, std::uint32_t v) { appendLittleEndian(out, v); }

inline void appendU64(std::string& out, std::uint64_t v) { appendLittleEndian(out, v); }

inline void appendI32(std::string& out, std::int32_t v) {
  appendU32(out, static_cast<std::uint32_t>(v));
}

inline void appendF64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  appendU64(out, bits);
}

/// u32 byte length + raw bytes.
inline void appendStr(std::string& out, std::string_view s) {
  appendU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s.data(), s.size());
}

/// Bounds-checked little-endian reader. Every getter returns false once the
/// input is exhausted; a false return leaves the output argument unspecified
/// and the reader positioned at the failure point.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& v) {
    if (pos_ + 1 > data_.size()) return false;
    v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool u16(std::uint16_t& v) {
    if (pos_ + 2 > data_.size()) return false;
    v = 0;
    for (int i = 1; i >= 0; --i) {
      v = static_cast<std::uint16_t>((v << 8) |
                                     static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]));
    }
    pos_ += 2;
    return true;
  }

  bool u32(std::uint32_t& v) {
    if (pos_ + 4 > data_.size()) return false;
    v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 4;
    return true;
  }

  bool u64(std::uint64_t& v) {
    if (pos_ + 8 > data_.size()) return false;
    v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<std::uint8_t>(data_[pos_ + static_cast<std::size_t>(i)]);
    }
    pos_ += 8;
    return true;
  }

  bool i32(std::int32_t& v) {
    std::uint32_t u = 0;
    if (!u32(u)) return false;
    v = static_cast<std::int32_t>(u);
    return true;
  }

  bool f64(double& v) {
    std::uint64_t bits = 0;
    if (!u64(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }

  bool str(std::string& v) {
    std::uint32_t n = 0;
    if (!u32(n)) return false;
    if (pos_ + n > data_.size()) return false;
    v.assign(data_.data() + pos_, n);
    pos_ += n;
    return true;
  }

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace mat2c::bin
