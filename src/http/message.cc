#include "http/message.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <new>
#include <ostream>
#include <stdexcept>

namespace speedkit::http {

namespace {

// A joined block's length fields are 32 bits wide; a longer length throws
// rather than truncate.
uint32_t JoinedField(size_t n) {
  if (n > std::numeric_limits<uint32_t>::max()) {
    throw std::length_error("http::Body::Join: length exceeds 2^32 - 1");
  }
  return static_cast<uint32_t>(n);
}

}  // namespace

Body::Body(std::string_view bytes) {
  if (bytes.empty()) return;
  void* mem = ::operator new(sizeof(Block) + bytes.size());
  block_ = ::new (mem) Block(Kind::kFlat, bytes.size());
  std::copy(bytes.begin(), bytes.end(),
            static_cast<char*>(mem) + sizeof(Block));
}

Body::Body(std::shared_ptr<const std::string> shared) {
  if (shared == nullptr || shared->empty()) return;
  block_ = ::new (::operator new(sizeof(AdoptedBlock)))
      AdoptedBlock(std::move(shared));
}

Body Body::Join(std::string_view head, std::vector<Body> parts,
                std::string_view separator, std::string_view tail) {
  // The parts start right after the header, so it must keep them aligned.
  static_assert(sizeof(Block) == 16 && sizeof(JoinedBlock) == 32);
  static_assert(sizeof(JoinedBlock) % alignof(Body) == 0);
  size_t size = head.size() + tail.size();
  for (const Body& part : parts) size += part.size();
  if (!parts.empty()) size += separator.size() * (parts.size() - 1);
  if (size == 0) return Body();
  const uint32_t part_count = JoinedField(parts.size());
  const uint32_t head_size = JoinedField(head.size());
  const uint32_t separator_size = JoinedField(separator.size());
  const uint32_t tail_size = JoinedField(tail.size());
  void* mem = ::operator new(sizeof(JoinedBlock) +
                             parts.size() * sizeof(Body) + head.size() +
                             separator.size() + tail.size());
  auto* joined = ::new (mem)
      JoinedBlock(size, part_count, head_size, separator_size, tail_size);
  Body* slots = reinterpret_cast<Body*>(joined + 1);
  std::uninitialized_move(parts.begin(), parts.end(), slots);
  char* text = reinterpret_cast<char*>(slots + parts.size());
  text = std::copy(head.begin(), head.end(), text);
  text = std::copy(separator.begin(), separator.end(), text);
  std::copy(tail.begin(), tail.end(), text);
  Body body;
  body.block_ = joined;
  return body;
}

void Body::Release() noexcept {
  if (block_ == nullptr) return;
  // The acq_rel pairs every holder's last reads of the block with the
  // destruction by whichever holder drops the last reference.
  if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    switch (block_->kind) {
      case Kind::kFlat:
        block_->~Block();
        break;
      case Kind::kAdopted:
        static_cast<AdoptedBlock*>(block_)->~AdoptedBlock();
        break;
      case Kind::kJoined: {
        auto* joined = static_cast<JoinedBlock*>(block_);
        std::destroy_n(reinterpret_cast<Body*>(joined + 1),
                       joined->part_count);
        joined->~JoinedBlock();
        break;
      }
    }
    ::operator delete(static_cast<void*>(block_));
  }
  block_ = nullptr;
}

size_t Body::capacity() const {
  if (block_ == nullptr) return 0;
  switch (block_->kind) {
    case Kind::kFlat:
      return block_->size;
    case Kind::kAdopted:
      return static_cast<const AdoptedBlock*>(block_)->bytes->capacity();
    case Kind::kJoined: {
      const JoinedBlock& joined = *static_cast<const JoinedBlock*>(block_);
      size_t total = size_t{joined.head_size} + joined.separator_size +
                     joined.tail_size;
      for (uint32_t i = 0; i < joined.part_count; ++i) {
        total += joined.parts()[i].capacity();
      }
      return total;
    }
  }
  return 0;
}

void Body::AppendTo(std::string* out) const {
  out->reserve(out->size() + size());
  ForEachChunk([out](std::string_view chunk) { out->append(chunk); });
}

std::string Body::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

bool Body::Equals(std::string_view bytes) const {
  if (size() != bytes.size()) return false;
  bool equal = true;
  size_t at = 0;
  ForEachChunk([&](std::string_view chunk) {
    equal = equal && bytes.substr(at, chunk.size()) == chunk;
    at += chunk.size();
  });
  return equal;
}

bool operator==(const Body& a, const Body& b) {
  if (a.block_ == b.block_) return true;
  if (a.size() != b.size()) return false;
  // Walk a's chunks against b's, neither body flattened.
  std::vector<std::string_view> chunks;
  b.ForEachChunk(
      [&chunks](std::string_view chunk) { chunks.push_back(chunk); });
  bool equal = true;
  size_t next = 0;
  std::string_view rest;
  a.ForEachChunk([&](std::string_view chunk) {
    while (equal && !chunk.empty()) {
      if (rest.empty()) rest = chunks[next++];
      size_t n = std::min(chunk.size(), rest.size());
      equal = chunk.substr(0, n) == rest.substr(0, n);
      chunk.remove_prefix(n);
      rest.remove_prefix(n);
    }
  });
  return equal;
}

std::ostream& operator<<(std::ostream& os, const Body& body) {
  body.ForEachChunk([&os](std::string_view chunk) { os << chunk; });
  return os;
}

std::string_view MethodName(Method m) {
  switch (m) {
    case Method::kGet:
      return "GET";
    case Method::kHead:
      return "HEAD";
    case Method::kPost:
      return "POST";
    case Method::kPut:
      return "PUT";
    case Method::kPatch:
      return "PATCH";
    case Method::kDelete:
      return "DELETE";
  }
  return "GET";
}

bool IsCacheableMethod(Method m) {
  return m == Method::kGet || m == Method::kHead;
}

CacheControl HttpResponse::GetCacheControl() const {
  return headers.GetCacheControl();
}

void HttpResponse::SetCacheControl(const CacheControl& cc) {
  headers.Set("Cache-Control", cc.ToString());
}

std::string HttpResponse::ETag() const {
  auto value = headers.Get("ETag");
  return value.has_value() ? std::string(*value) : std::string();
}

void HttpResponse::SetETag(std::string_view etag) {
  headers.Set("ETag", etag);
}

size_t HttpResponse::WireSize() const {
  return 17 /* status line */ + headers.WireSize() + body.size();
}

HttpResponse MakeOkResponse(Body body, const CacheControl& cc,
                            uint64_t object_version, SimTime generated_at) {
  HttpResponse resp;
  resp.status_code = 200;
  resp.body = std::move(body);
  resp.SetCacheControl(cc);
  resp.object_version = object_version;
  resp.generated_at = generated_at;
  return resp;
}

HttpResponse MakeNotModified(std::string_view etag, const CacheControl& cc,
                             uint64_t object_version, SimTime generated_at) {
  HttpResponse resp;
  resp.status_code = 304;
  resp.SetETag(etag);
  resp.SetCacheControl(cc);
  resp.object_version = object_version;
  resp.generated_at = generated_at;
  return resp;
}

HttpResponse MakeNotFound() {
  static const Body kBody("not found");
  HttpResponse resp;
  resp.status_code = 404;
  resp.body = kBody;
  return resp;
}

HttpResponse MakeServiceUnavailable() {
  static const Body kBody("service unavailable");
  HttpResponse resp;
  resp.status_code = 503;
  resp.body = kBody;
  return resp;
}

}  // namespace speedkit::http
