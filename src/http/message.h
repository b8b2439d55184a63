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

#include <atomic>
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

// An immutable, reference-counted response payload: one pointer to one
// intrusively counted heap block. Copying a Body shares its block instead
// of duplicating the bytes, so one rendered version can sit in the origin's
// render cache, an edge, every browser cache and every spilled cache's
// handle list as a single allocation (the serialize-once store of Voras &
// Žagar's cache daemon). Nothing can modify the bytes once built, and a
// flat block holds exactly its bytes, so long-lived cache entries never pin
// growth slack. An empty Body holds no allocation. The count is atomic, so
// copies of one body may live and die on different threads.
//
// A body is flat (its bytes in its own block, or one adopted buffer) or
// joined: a head, shared parts with a separator between each pair, and a
// tail (see Join). A joined body is never flattened behind the caller's
// back and keeps no flat copy of itself: its bytes come out chunk by chunk
// (ForEachChunk), and ToString()/AppendTo() copy them where contiguous
// bytes are needed.
class Body {
 public:
  Body() = default;
  Body(const std::string& bytes)  // NOLINT(google-explicit-constructor)
      : Body(std::string_view(bytes)) {}
  Body(const char* bytes)  // NOLINT(google-explicit-constructor)
      : Body(std::string_view(bytes)) {}
  explicit Body(std::string_view bytes);
  // Adopts an already-shared immutable buffer (the memoized sketch
  // snapshot) without copying it.
  explicit Body(std::shared_ptr<const std::string> shared);

  Body(const Body& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Body(Body&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  Body& operator=(const Body& other) noexcept {
    Body(other).swap(*this);
    return *this;
  }
  Body& operator=(Body&& other) noexcept {
    Body(std::move(other)).swap(*this);
    return *this;
  }
  ~Body() { Release(); }

  // `head`, then `parts` with `separator` between each pair, then `tail`.
  // The parts move into the joined block and stay shared, not copied, so
  // bodies built from the same parts (successive versions of a query
  // result) hold their bytes once. The total size is computed here. Throws
  // std::length_error if the part count or a string's length exceeds
  // 2^32 - 1.
  static Body Join(std::string_view head, std::vector<Body> parts,
                   std::string_view separator, std::string_view tail);

  size_t size() const { return block_ == nullptr ? 0 : block_->size; }
  bool empty() const { return block_ == nullptr; }
  // Bytes the blocks hold for the content: size() for a flat body, the
  // buffer's capacity for an adopted one; a joined body counts its parts
  // and its own head, separator and tail.
  size_t capacity() const;

  // Calls fn(std::string_view) for each non-empty run of bytes, in order.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const;
  void AppendTo(std::string* out) const;
  std::string ToString() const;

  // Whether both bodies are copies of one body, not merely equal bytes.
  bool SharesBufferWith(const Body& other) const {
    return block_ != nullptr && block_ == other.block_;
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
  // Every block starts with this header. A flat block's bytes follow it.
  struct Block {
    Block(Kind k, size_t n) : kind(k), size(n) {}
    std::atomic<uint32_t> refs{1};
    Kind kind;
    size_t size;  // of the whole body, so size() is O(1) for every kind
  };
  struct AdoptedBlock : Block {
    explicit AdoptedBlock(std::shared_ptr<const std::string> b)
        : Block(Kind::kAdopted, b->size()), bytes(std::move(b)) {}
    std::shared_ptr<const std::string> bytes;
  };
  // Followed by `part_count` Body values, then the head, separator and
  // tail bytes.
  struct JoinedBlock : Block {
    JoinedBlock(size_t n, uint32_t parts, uint32_t head, uint32_t separator,
                uint32_t tail)
        : Block(Kind::kJoined, n),
          part_count(parts),
          head_size(head),
          separator_size(separator),
          tail_size(tail) {}
    const Body* parts() const {
      return reinterpret_cast<const Body*>(this + 1);
    }
    const char* text() const {
      return reinterpret_cast<const char*>(parts() + part_count);
    }
    std::string_view head() const { return {text(), head_size}; }
    std::string_view separator() const {
      return {text() + head_size, separator_size};
    }
    std::string_view tail() const {
      return {text() + head_size + separator_size, tail_size};
    }

    uint32_t part_count;
    uint32_t head_size;
    uint32_t separator_size;
    uint32_t tail_size;
  };
  static const char* FlatBytes(const Block* block) {
    return reinterpret_cast<const char*>(block + 1);
  }

  bool Equals(std::string_view bytes) const;
  void Release() noexcept;
  void swap(Body& other) noexcept { std::swap(block_, other.block_); }

  Block* block_ = nullptr;  // null: no bytes
};

template <typename Fn>
void Body::ForEachChunk(Fn&& fn) const {
  if (block_ == nullptr) return;
  switch (block_->kind) {
    case Kind::kFlat:
      fn(std::string_view(FlatBytes(block_), block_->size));
      return;
    case Kind::kAdopted:
      fn(std::string_view(*static_cast<const AdoptedBlock*>(block_)->bytes));
      return;
    case Kind::kJoined: {
      const JoinedBlock& joined = *static_cast<const JoinedBlock*>(block_);
      if (joined.head_size != 0) fn(joined.head());
      const Body* parts = joined.parts();
      for (uint32_t i = 0; i < joined.part_count; ++i) {
        if (i > 0 && joined.separator_size != 0) fn(joined.separator());
        parts[i].ForEachChunk(fn);
      }
      if (joined.tail_size != 0) fn(joined.tail());
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

  // Read from the header block's memo (HeaderMap::GetCacheControl), so
  // every cache that stores this version shares one parse. Set stores
  // cc.ToString(), and the memo is the parse of that text: whole seconds.
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
