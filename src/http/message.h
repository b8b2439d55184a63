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
#include <vector>

#include "http/cache_control.h"
#include "http/headers.h"
#include "http/url.h"

namespace speedkit::http {

// An immutable, reference-counted response payload. Copying a Body shares
// its rep instead of duplicating the bytes, so one rendered version can
// sit in the origin's render cache, an edge, every browser cache and every
// spilled cache's handle list as a single allocation (the serialize-once
// store of Voras & Žagar's cache daemon). Nothing can modify the bytes once
// built, and a buffer built from a string is trimmed to exactly its size,
// so long-lived cache entries never pin growth slack. An empty Body holds
// no allocation.
//
// A body is flat (one buffer of its own or one adopted buffer) or joined:
// a head, shared parts with a separator between each pair, and a tail
// (see Join). A joined body is never flattened behind the caller's back
// and keeps no flat copy of itself: its bytes come out chunk by chunk
// (ForEachChunk), and ToString()/AppendTo() copy them where contiguous
// bytes are needed.
class Body {
 public:
  Body() = default;
  Body(std::string bytes);  // NOLINT(google-explicit-constructor)
  Body(const char* bytes)   // NOLINT(google-explicit-constructor)
      : Body(std::string(bytes)) {}
  // Adopts an already-shared immutable buffer (the memoized sketch
  // snapshot) without copying it.
  explicit Body(std::shared_ptr<const std::string> shared);

  // `head`, then `parts` with `separator` between each pair, then `tail`.
  // The parts are shared, not copied, so bodies built from the same parts
  // (successive versions of a query result) hold their bytes once. The
  // total size is computed here.
  static Body Join(std::string_view head, std::vector<Body> parts,
                   std::string_view separator, std::string_view tail);

  size_t size() const;
  bool empty() const { return rep_ == nullptr; }
  // Bytes the buffers reserve: size() for anything past std::string's
  // inline capacity; a joined body counts its parts and its own strings.
  size_t capacity() const;

  // Calls fn(std::string_view) for each non-empty run of bytes, in order.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const;
  void AppendTo(std::string* out) const;
  std::string ToString() const;

  // Whether both bodies are copies of one body, not merely equal bytes.
  bool SharesBufferWith(const Body& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  friend bool operator==(const Body& a, const Body& b);
  template <typename T>
    requires std::convertible_to<const T&, std::string_view>
  friend bool operator==(const Body& a, const T& b) {
    return a.Equals(std::string_view(b));
  }
  friend std::ostream& operator<<(std::ostream& os, const Body& body);

 private:
  enum class Kind : uint8_t { kFlat, kAdopted, kJoined };
  struct Rep {
    Kind kind;
  };
  struct FlatRep : Rep {
    explicit FlatRep(std::string b) : Rep{Kind::kFlat}, bytes(std::move(b)) {}
    std::string bytes;
  };
  struct AdoptedRep : Rep {
    explicit AdoptedRep(std::shared_ptr<const std::string> b)
        : Rep{Kind::kAdopted}, bytes(std::move(b)) {}
    std::shared_ptr<const std::string> bytes;
  };
  struct JoinedRep : Rep {
    JoinedRep() : Rep{Kind::kJoined} {}
    size_t size = 0;
    std::string head;
    std::vector<Body> parts;
    std::string separator;
    std::string tail;
  };

  bool Equals(std::string_view bytes) const;

  std::shared_ptr<const Rep> rep_;
};

template <typename Fn>
void Body::ForEachChunk(Fn&& fn) const {
  if (rep_ == nullptr) return;
  switch (rep_->kind) {
    case Kind::kFlat:
      fn(std::string_view(static_cast<const FlatRep&>(*rep_).bytes));
      return;
    case Kind::kAdopted:
      fn(std::string_view(*static_cast<const AdoptedRep&>(*rep_).bytes));
      return;
    case Kind::kJoined: {
      const JoinedRep& joined = static_cast<const JoinedRep&>(*rep_);
      if (!joined.head.empty()) fn(std::string_view(joined.head));
      for (size_t i = 0; i < joined.parts.size(); ++i) {
        if (i > 0 && !joined.separator.empty()) {
          fn(std::string_view(joined.separator));
        }
        joined.parts[i].ForEachChunk(fn);
      }
      if (!joined.tail.empty()) fn(std::string_view(joined.tail));
      return;
    }
  }
}

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
