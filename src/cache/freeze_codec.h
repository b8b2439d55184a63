// Byte-level writer/reader for the browser-cache freeze format.
//
// Cold clients in million-client fleets spill their browser caches to one
// flat byte string (see HttpCache::Freeze) instead of holding a live
// LruCache heap graph — hash map, recency list, entry nodes — per idle
// client. The encoding is a plain little-endian struct dump: no varints,
// no compression, because freeze/thaw sits on the simulation's client
// wake-up path and predictable O(bytes) memcpy speed matters more than
// the last 20% of density.
#ifndef SPEEDKIT_CACHE_FREEZE_CODEC_H_
#define SPEEDKIT_CACHE_FREEZE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace speedkit::cache {

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s);
  }
  // Bytes with no length prefix: the chunks of a string whose length was
  // written ahead of them.
  void Bytes(std::string_view s) { out_.append(s.data(), s.size()); }

  std::string Take() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  void Raw(const void* p, size_t n) {
    out_.append(static_cast<const char*>(p), n);
  }
  std::string out_;
};

// Bounds-checked reader: a short or corrupt blob flips `ok()` and every
// subsequent read returns zero/empty instead of running off the buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8() {
    if (!Ensure(1)) return 0;
    return static_cast<uint8_t>(data_[pos_++]);
  }
  uint32_t U32() { return ReadScalar<uint32_t>(); }
  uint64_t U64() { return ReadScalar<uint64_t>(); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  std::string_view Str() {
    uint32_t n = U32();
    if (!Ensure(n)) return {};
    std::string_view s = data_.substr(pos_, n);
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  // Marks the blob corrupt on a check the byte layer cannot see (a field
  // that decodes but refers to nothing).
  void Fail() { ok_ = false; }

 private:
  template <typename T>
  T ReadScalar() {
    if (!Ensure(sizeof(T))) return T{};
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  bool Ensure(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace speedkit::cache

#endif  // SPEEDKIT_CACHE_FREEZE_CODEC_H_
