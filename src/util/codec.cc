#include "util/codec.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

namespace deepbase {
namespace codec {

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

bool Reader::F32s(float* out, size_t n) {
  if (n > remaining() / sizeof(float)) {
    ok_ = false;
    return false;
  }
  const std::string_view bytes = View(n * sizeof(float));
  if (!bytes.empty()) std::memcpy(out, bytes.data(), bytes.size());
  return ok_;
}

std::string_view Reader::View(size_t n) {
  if (!Need(n)) return {};
  const std::string_view out = data_.substr(pos_, n);
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

Result<MappedFile> MapFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  struct stat st;
  const bool sized = ::fstat(fd, &st) == 0;
  const size_t len = sized ? static_cast<size_t>(st.st_size) : 0;
  void* base = len > 0 ? ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0)
                       : nullptr;
  ::close(fd);  // the mapping keeps its own reference
  if (!sized || base == MAP_FAILED) {
    return Status::IOError("cannot map " + path);
  }
  MappedFile file;
  if (len == 0) return file;
  file.mapping.reset(base, [len](const void* p) {
    ::munmap(const_cast<void*>(p), len);
  });
  file.bytes = std::string_view(static_cast<const char*>(base), len);
  return file;
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !written) {
    return Status::IOError("write failed for " + path);
  }
  return Status::OK();
}

}  // namespace codec
}  // namespace deepbase
