#include "util/codec.h"

#include <algorithm>
#include <bit>

namespace deepbase {
namespace codec {

void Writer::U16(uint16_t v) {
  U8(static_cast<uint8_t>(v));
  U8(static_cast<uint8_t>(v >> 8));
}

void Writer::U32(uint32_t v) {
  U16(static_cast<uint16_t>(v));
  U16(static_cast<uint16_t>(v >> 16));
}

void Writer::U64(uint64_t v) {
  U32(static_cast<uint32_t>(v));
  U32(static_cast<uint32_t>(v >> 32));
}

void Writer::F32(float v) { U32(std::bit_cast<uint32_t>(v)); }
void Writer::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void Writer::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Bytes(s);
}

void Writer::StrList(const std::vector<std::string>& v) {
  U32(static_cast<uint32_t>(v.size()));
  for (const std::string& s : v) Str(s);
}

bool Reader::Need(size_t n) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

uint8_t Reader::U8() {
  if (!Need(1)) return 0;
  return static_cast<uint8_t>(data_[pos_++]);
}

uint16_t Reader::U16() {
  const uint16_t lo = U8();
  const uint16_t hi = U8();
  return static_cast<uint16_t>(lo | (hi << 8));
}

uint32_t Reader::U32() {
  const uint32_t lo = U16();
  const uint32_t hi = U16();
  return lo | (hi << 16);
}

uint64_t Reader::U64() {
  const uint64_t lo = U32();
  const uint64_t hi = U32();
  return lo | (hi << 32);
}

float Reader::F32() { return std::bit_cast<float>(U32()); }
double Reader::F64() { return std::bit_cast<double>(U64()); }

std::string Reader::Bytes(size_t n) {
  if (!Need(n)) return {};
  std::string out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

std::string Reader::Str() { return Bytes(U32()); }

std::vector<std::string> Reader::StrList() {
  const uint32_t n = U32();
  std::vector<std::string> out;
  // Cap the reserve by what the remaining bytes can hold (every string
  // carries a 4-byte length), so a corrupt count cannot force a huge
  // allocation before the bounds check trips.
  out.reserve(std::min<size_t>(n, remaining() / 4));
  for (uint32_t i = 0; i < n && ok(); ++i) out.push_back(Str());
  return out;
}

}  // namespace codec
}  // namespace deepbase
