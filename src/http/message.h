// HTTP request/response model.
//
// This is the message vocabulary every layer of the stack speaks: the client
// proxy, the browser cache, the CDN edges and the origin. Two fields exist
// purely as simulation instrumentation and would not appear on a real wire:
// `object_version` (logical version of the backing record, used by the
// staleness tracker to verify Δ-atomicity) and `generated_at` (origin
// render time on the simulated clock, used to compute Age).
#ifndef SPEEDKIT_HTTP_MESSAGE_H_
#define SPEEDKIT_HTTP_MESSAGE_H_

#include <concepts>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "http/cache_control.h"
#include "http/headers.h"
#include "http/url.h"

namespace speedkit::http {

// An immutable, reference-counted response payload. Copying a Body shares
// its buffer instead of duplicating the bytes, so one rendered version can
// sit in the origin's render cache, an edge, every browser cache and every
// spilled cache's handle list as a single allocation (the serialize-once
// store of Voras & Žagar's cache daemon). Nothing can modify the bytes once
// built, and a buffer built from a string is trimmed to exactly its size,
// so long-lived cache entries never pin growth slack. An empty Body holds
// no allocation.
class Body {
 public:
  Body() = default;
  Body(std::string bytes);  // NOLINT(google-explicit-constructor)
  Body(const char* bytes)   // NOLINT(google-explicit-constructor)
      : Body(std::string(bytes)) {}
  // Adopts an already-shared immutable buffer (the memoized sketch
  // snapshot) without copying it.
  explicit Body(std::shared_ptr<const std::string> shared)
      : buf_(std::move(shared)) {}

  std::string_view view() const {
    return buf_ != nullptr ? std::string_view(*buf_) : std::string_view();
  }
  operator std::string_view() const { return view(); }  // NOLINT
  const char* data() const { return view().data(); }
  size_t size() const { return buf_ != nullptr ? buf_->size() : 0; }
  bool empty() const { return size() == 0; }
  size_t find(std::string_view needle, size_t pos = 0) const {
    return view().find(needle, pos);
  }
  // Bytes the buffer reserves: size() for anything past std::string's
  // inline capacity.
  size_t capacity() const { return buf_ != nullptr ? buf_->capacity() : 0; }
  // Whether both bodies are the same buffer, not merely equal bytes.
  bool SharesBufferWith(const Body& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }

  friend bool operator==(const Body& a, const Body& b) {
    return a.view() == b.view();
  }
  template <typename T>
    requires std::convertible_to<const T&, std::string_view>
  friend bool operator==(const Body& a, const T& b) {
    return a.view() == std::string_view(b);
  }
  friend std::ostream& operator<<(std::ostream& os, const Body& body);

 private:
  std::shared_ptr<const std::string> buf_;
};

enum class Method { kGet, kHead, kPost, kPut, kPatch, kDelete };

std::string_view MethodName(Method m);

// GET and HEAD are the only cacheable methods (RFC 7231 §4.2.3).
bool IsCacheableMethod(Method m);

struct HttpRequest {
  Method method = Method::kGet;
  Url url;
  HeaderMap headers;
  std::string body;

  static HttpRequest Get(const Url& url) {
    return HttpRequest{Method::kGet, url, {}, {}};
  }

  // True when the request carries an If-None-Match validator.
  bool IsConditional() const { return headers.Has("If-None-Match"); }
};

struct HttpResponse {
  int status_code = 200;
  HeaderMap headers;
  Body body;

  // --- simulation instrumentation (not wire data) ---
  // Logical version of the record this response was rendered from.
  uint64_t object_version = 0;
  // Origin render time; lets caches compute Age without wall clocks.
  SimTime generated_at;
  // Server-side processing cost for producing this response (DB access,
  // templating, or a render-cache hit); charged onto request latency by
  // whoever called the origin.
  Duration server_time = Duration::Zero();

  bool ok() const { return status_code >= 200 && status_code < 300; }
  bool IsNotModified() const { return status_code == 304; }

  CacheControl GetCacheControl() const;
  void SetCacheControl(const CacheControl& cc);

  std::string ETag() const;
  void SetETag(std::string_view etag);

  // Approximate wire size (status line + headers + body) used by the
  // bandwidth model and the bytes-from-cache accounting.
  size_t WireSize() const;
};

// Builds a 200 response with the given body and caching policy.
HttpResponse MakeOkResponse(Body body, const CacheControl& cc,
                            uint64_t object_version, SimTime generated_at);

// Builds a 304 Not Modified carrying only the validator; freshness headers
// are replayed so caches can extend the stored entry's lifetime.
HttpResponse MakeNotModified(std::string_view etag, const CacheControl& cc,
                             uint64_t object_version, SimTime generated_at);

HttpResponse MakeNotFound();
HttpResponse MakeServiceUnavailable();

}  // namespace speedkit::http

#endif  // SPEEDKIT_HTTP_MESSAGE_H_
