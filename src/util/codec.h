// Bounds-checked little-endian byte-string codec primitives. Extracted
// from server/wire.h so layers below the serving stack (measure-state
// serialization in src/measures, the cluster partial-state path) can
// encode/decode without depending on the wire protocol's catalog types.
// server/wire.h re-exports these as wire::Writer / wire::Reader, so the
// encoded bytes are exactly the wire payload format.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace deepbase {
namespace codec {

/// \brief Appends primitives to a byte string.
class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F32(float v);
  void F64(double v);
  /// Raw bytes, no length prefix.
  void Bytes(std::string_view s) { out_.append(s); }
  /// Length-prefixed (u32) byte string.
  void Str(const std::string& s);
  void StrList(const std::vector<std::string>& v);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Reads primitives back; any out-of-bounds read latches !ok() and
/// every subsequent Get returns zero values, so decoders can check once
/// at the end (the RocksDB Slice idiom).
class Reader {
 public:
  explicit Reader(const std::string& bytes) : data_(bytes) {}
  // A Reader is a view: the buffer must outlive it, so a temporary
  // (e.g. `Reader(s.substr(...))`) is a use-after-free, not a decode.
  explicit Reader(std::string&&) = delete;

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  float F32();
  double F64();
  /// The next `n` raw bytes (empty, and !ok(), when fewer remain).
  std::string Bytes(size_t n);
  std::string Str();
  std::vector<std::string> StrList();

  bool ok() const { return ok_; }
  /// Bytes left to read (0 once a read has failed). Decoders check it
  /// before allocating for a count read off the wire.
  size_t remaining() const { return ok_ ? data_.size() - pos_ : 0; }
  /// True when the whole payload was consumed (trailing garbage is a
  /// protocol error for fixed-shape messages).
  bool exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Need(size_t n);
  const std::string& data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace codec
}  // namespace deepbase
