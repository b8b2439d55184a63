#include "http/message.h"

#include <algorithm>
#include <ostream>

namespace speedkit::http {

Body::Body(std::string bytes) {
  if (bytes.empty()) return;
  bytes.shrink_to_fit();
  rep_ = std::make_shared<const FlatRep>(std::move(bytes));
}

Body::Body(std::shared_ptr<const std::string> shared) {
  if (shared == nullptr || shared->empty()) return;
  rep_ = std::make_shared<const AdoptedRep>(std::move(shared));
}

Body Body::Join(std::string_view head, std::vector<Body> parts,
                std::string_view separator, std::string_view tail) {
  size_t size = head.size() + tail.size();
  for (const Body& part : parts) size += part.size();
  if (!parts.empty()) size += separator.size() * (parts.size() - 1);
  if (size == 0) return Body();
  auto joined = std::make_shared<JoinedRep>();
  joined->size = size;
  joined->head = head;
  parts.shrink_to_fit();
  joined->parts = std::move(parts);
  joined->separator = separator;
  joined->tail = tail;
  Body body;
  body.rep_ = std::move(joined);
  return body;
}

size_t Body::size() const {
  if (rep_ == nullptr) return 0;
  switch (rep_->kind) {
    case Kind::kFlat:
      return static_cast<const FlatRep&>(*rep_).bytes.size();
    case Kind::kAdopted:
      return static_cast<const AdoptedRep&>(*rep_).bytes->size();
    case Kind::kJoined:
      return static_cast<const JoinedRep&>(*rep_).size;
  }
  return 0;
}

size_t Body::capacity() const {
  if (rep_ == nullptr) return 0;
  switch (rep_->kind) {
    case Kind::kFlat:
      return static_cast<const FlatRep&>(*rep_).bytes.capacity();
    case Kind::kAdopted:
      return static_cast<const AdoptedRep&>(*rep_).bytes->capacity();
    case Kind::kJoined: {
      const JoinedRep& joined = static_cast<const JoinedRep&>(*rep_);
      size_t total = joined.head.capacity() + joined.separator.capacity() +
                     joined.tail.capacity();
      for (const Body& part : joined.parts) total += part.capacity();
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
  if (a.rep_ == b.rep_) return true;
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
  auto value = headers.Get("Cache-Control");
  return value.has_value() ? CacheControl::Parse(*value) : CacheControl{};
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
