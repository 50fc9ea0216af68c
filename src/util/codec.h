// Bounds-checked little-endian byte-string codec: the one encoder and
// decoder of every byte string the program reads back — wire frames
// (server/wire.h re-exports these as wire::Writer / wire::Reader), measure
// states, result tables, and the files (the behavior store's .behaviors
// and .blob files and the model files, read through MapFile), so every
// length is checked against the bytes the reader still holds.

#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace deepbase {
namespace codec {

// A value is encoded as a copy of its in-memory bytes, and `n` floats as
// one bulk copy: that is the little-endian encoding only on a
// little-endian host.
static_assert(std::endian::native == std::endian::little,
              "codec copies values as their little-endian bytes");

/// \brief Appends primitives to a byte string.
class Writer {
 public:
  void U8(uint8_t v) { Fixed(v); }
  void U16(uint16_t v) { Fixed(v); }
  void U32(uint32_t v) { Fixed(v); }
  void U64(uint64_t v) { Fixed(v); }
  void F32(float v) { Fixed(v); }
  void F64(double v) { Fixed(v); }
  /// `n` floats in one bulk copy: the bytes of `n` F32 calls.
  void F32s(const float* v, size_t n) {
    out_.append(reinterpret_cast<const char*>(v), n * sizeof(float));
  }
  /// Raw bytes, no length prefix.
  void Bytes(std::string_view s) { out_.append(s); }
  /// Length-prefixed (u32) byte string.
  void Str(const std::string& s);
  void StrList(const std::vector<std::string>& v);
  /// Room for `n` more bytes, so a large payload is copied once.
  void Reserve(size_t n) { out_.reserve(out_.size() + n); }

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  template <typename T>
  void Fixed(T v) {
    out_.append(reinterpret_cast<const char*>(&v), sizeof(v));
  }
  std::string out_;
};

/// \brief Reads primitives back; any out-of-bounds read latches !ok() and
/// every subsequent Get returns zero values, so decoders can check once
/// at the end (the RocksDB Slice idiom).
class Reader {
 public:
  explicit Reader(std::string_view bytes) : data_(bytes) {}
  // A Reader is a view: the buffer must outlive it, so a temporary
  // (e.g. `Reader(s.substr(...))`) is a use-after-free, not a decode.
  explicit Reader(std::string&&) = delete;

  uint8_t U8() { return Fixed<uint8_t>(); }
  uint16_t U16() { return Fixed<uint16_t>(); }
  uint32_t U32() { return Fixed<uint32_t>(); }
  uint64_t U64() { return Fixed<uint64_t>(); }
  float F32() { return Fixed<float>(); }
  double F64() { return Fixed<double>(); }
  /// Copies the next `n` floats (the bytes of `n` F32 calls) into `out` in
  /// one bulk copy; false, and !ok(), when fewer remain.
  bool F32s(float* out, size_t n);
  /// The next `n` raw bytes, as a view of the buffer (empty, and !ok(),
  /// when fewer remain).
  std::string_view View(size_t n);
  /// The next `n` raw bytes, copied.
  std::string Bytes(size_t n) { return std::string(View(n)); }
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
  template <typename T>
  T Fixed() {
    T v{};
    const std::string_view bytes = View(sizeof(T));
    if (!bytes.empty()) std::memcpy(&v, bytes.data(), sizeof(T));
    return v;
  }
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// \brief A whole file mapped read-only: `bytes` stays valid while
/// `mapping`, or a copy of it, lives (an empty file maps to no bytes).
struct MappedFile {
  std::shared_ptr<const void> mapping;
  std::string_view bytes;
};

/// \brief Map the file at `path`; IOError when it cannot be opened or
/// mapped.
Result<MappedFile> MapFile(const std::string& path);

/// \brief Write `bytes` as the whole file at `path` (created or truncated).
Status WriteFile(const std::string& path, std::string_view bytes);

}  // namespace codec
}  // namespace deepbase
