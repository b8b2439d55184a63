#include "http/headers.h"

#include <algorithm>
#include <limits>
#include <new>
#include <stdexcept>

#include "common/strings.h"

namespace speedkit::http {

static_assert(sizeof(HeaderMap) == 8);

namespace {

constexpr std::string_view kCacheControl = "Cache-Control";
constexpr size_t kLengthBytes = 2 * sizeof(uint32_t);  // per entry
constexpr size_t kMaxBlockBytes = std::numeric_limits<uint32_t>::max();
constexpr int64_t kMicrosPerSecond = 1000000;

enum MemoFlag : uint32_t {
  kMemoSet = 1u << 0,
  kNoStore = 1u << 1,
  kNoCache = 1u << 2,
  kMustRevalidate = 1u << 3,
  kPublic = 1u << 4,
  kPrivate = 1u << 5,
  kImmutable = 1u << 6,
  kMaxAge = 1u << 7,
  kSMaxage = 1u << 8,
  kStaleWhileRevalidate = 1u << 9,
};

bool IsCacheControl(std::string_view name) {
  return EqualsIgnoreCase(name, kCacheControl);
}

// Packs `d` as whole seconds into *seconds and `flag` into *flags; false
// when it is not a whole count in [0, 2^32 - 1].
bool PackSeconds(const std::optional<Duration>& d, uint32_t flag,
                 uint32_t* seconds, uint32_t* flags) {
  if (!d.has_value()) return true;
  int64_t us = d->micros();
  if (us < 0 || us % kMicrosPerSecond != 0 ||
      us / kMicrosPerSecond > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *seconds = static_cast<uint32_t>(us / kMicrosPerSecond);
  *flags |= flag;
  return true;
}

}  // namespace

HeaderMap::Memo HeaderMap::MemoOf(std::optional<std::string_view> value) {
  Memo memo;
  if (!value.has_value()) {
    memo.flags = kMemoSet;
    return memo;
  }
  CacheControl cc = CacheControl::Parse(*value);
  uint32_t flags = kMemoSet;
  if (cc.no_store) flags |= kNoStore;
  if (cc.no_cache) flags |= kNoCache;
  if (cc.must_revalidate) flags |= kMustRevalidate;
  if (cc.is_public) flags |= kPublic;
  if (cc.is_private) flags |= kPrivate;
  if (cc.immutable) flags |= kImmutable;
  if (PackSeconds(cc.max_age, kMaxAge, &memo.max_age, &flags) &&
      PackSeconds(cc.s_maxage, kSMaxage, &memo.s_maxage, &flags) &&
      PackSeconds(cc.stale_while_revalidate, kStaleWhileRevalidate,
                  &memo.stale_while_revalidate, &flags)) {
    memo.flags = flags;
  }
  return memo;
}

CacheControl HeaderMap::GetCacheControl() const {
  if (block_ == nullptr) return CacheControl{};
  const Memo& memo = block_->memo;
  if ((memo.flags & kMemoSet) == 0) {
    return CacheControl::Parse(Get(kCacheControl).value_or(""));
  }
  // Duration::Seconds of a whole count, as CacheControl::Parse builds it.
  auto seconds = [&memo](uint32_t flag, uint32_t count) {
    return (memo.flags & flag) != 0
               ? std::optional<Duration>(
                     Duration::Seconds(static_cast<double>(count)))
               : std::nullopt;
  };
  CacheControl cc;
  cc.no_store = (memo.flags & kNoStore) != 0;
  cc.no_cache = (memo.flags & kNoCache) != 0;
  cc.must_revalidate = (memo.flags & kMustRevalidate) != 0;
  cc.is_public = (memo.flags & kPublic) != 0;
  cc.is_private = (memo.flags & kPrivate) != 0;
  cc.immutable = (memo.flags & kImmutable) != 0;
  cc.max_age = seconds(kMaxAge, memo.max_age);
  cc.s_maxage = seconds(kSMaxage, memo.s_maxage);
  cc.stale_while_revalidate =
      seconds(kStaleWhileRevalidate, memo.stale_while_revalidate);
  return cc;
}

void HeaderMap::Set(std::string_view name, std::string_view value) {
  Rebuild(name, Field{name, value});
}

void HeaderMap::Add(std::string_view name, std::string_view value) {
  Rebuild(std::nullopt, Field{name, value});
}

void HeaderMap::Remove(std::string_view name) {
  if (Has(name)) Rebuild(name, std::nullopt);
}

std::optional<std::string_view> HeaderMap::Get(std::string_view name) const {
  for (const auto& [k, v] : *this) {
    if (EqualsIgnoreCase(k, name)) return v;
  }
  return std::nullopt;
}

std::vector<std::string_view> HeaderMap::GetAll(std::string_view name) const {
  std::vector<std::string_view> out;
  for (const auto& [k, v] : *this) {
    if (EqualsIgnoreCase(k, name)) out.emplace_back(v);
  }
  return out;
}

bool operator==(const HeaderMap& a, const HeaderMap& b) {
  if (a.block_ == b.block_) return true;
  // Only an empty map holds no block, and the packed entries decode one
  // way, so equal entries are equal bytes.
  if (a.block_ == nullptr || b.block_ == nullptr) return false;
  return a.block_->count == b.block_->count &&
         a.block_->bytes == b.block_->bytes &&
         std::memcmp(a.Entries(), b.Entries(), a.block_->bytes) == 0;
}

void HeaderMap::Rebuild(std::optional<std::string_view> drop,
                        std::optional<Field> append) {
  auto kept = [&drop](std::string_view name) {
    return !drop.has_value() || !EqualsIgnoreCase(name, *drop);
  };
  size_t count = 0;
  size_t text_bytes = 0;
  for (const auto& [name, value] : *this) {
    if (!kept(name)) continue;
    ++count;
    text_bytes += name.size() + value.size();
  }
  if (append.has_value()) {
    ++count;
    text_bytes += append->first.size() + append->second.size();
  }
  Builder builder(count, text_bytes);
  for (const auto& [name, value] : *this) {
    if (kept(name)) builder.Append(name, value);
  }
  if (append.has_value()) builder.Append(append->first, append->second);
  if (block_ != nullptr && !(drop.has_value() && IsCacheControl(*drop)) &&
      !(append.has_value() && IsCacheControl(append->first))) {
    builder.kept_memo_ = &block_->memo;
  }
  // The old block stays alive until here, so `append` may view into it.
  *this = builder.Finish();
}

void HeaderMap::Release() noexcept {
  // The acq_rel pairs every holder's last reads of the block with the
  // destruction by whichever holder drops the last reference.
  if (block_ != nullptr &&
      block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block_->~Block();
    ::operator delete(static_cast<void*>(block_));
  }
  block_ = nullptr;
}

HeaderMap::Builder::Builder(size_t count, size_t text_bytes)
    : pending_(count) {
  if (count == 0) return;
  if (count > kMaxBlockBytes / kLengthBytes ||
      text_bytes > kMaxBlockBytes - count * kLengthBytes) {
    throw std::length_error("http::HeaderMap: head exceeds 2^32 - 1 bytes");
  }
  const size_t bytes = count * kLengthBytes + text_bytes;
  block_ = ::new (::operator new(sizeof(Block) + bytes)) Block;
  block_->count = static_cast<uint32_t>(count);
  block_->bytes = static_cast<uint32_t>(bytes);
  next_ = reinterpret_cast<char*>(block_ + 1);
  end_ = next_ + bytes;
}

HeaderMap::Builder::~Builder() {
  if (block_ != nullptr) {
    block_->~Block();
    ::operator delete(static_cast<void*>(block_));
  }
}

void HeaderMap::Builder::Append(std::string_view name, std::string_view value) {
  if (pending_ == 0 || static_cast<size_t>(end_ - next_) <
                           kLengthBytes + name.size() + value.size()) {
    throw std::logic_error("http::HeaderMap::Builder: more than announced");
  }
  const uint32_t lengths[2] = {static_cast<uint32_t>(name.size()),
                               static_cast<uint32_t>(value.size())};
  std::memcpy(next_, lengths, sizeof(lengths));
  char* text = std::copy(name.begin(), name.end(), next_ + sizeof(lengths));
  if (!cache_control_.has_value() && IsCacheControl(name)) {
    cache_control_ = std::string_view(text, value.size());
  }
  next_ = std::copy(value.begin(), value.end(), text);
  --pending_;
}

HeaderMap HeaderMap::Builder::Finish() {
  if (pending_ != 0 || next_ != end_) {
    throw std::logic_error("http::HeaderMap::Builder: fewer than announced");
  }
  HeaderMap map;
  if (block_ == nullptr) return map;
  block_->memo = kept_memo_ != nullptr ? *kept_memo_ : MemoOf(cache_control_);
  map.block_ = std::exchange(block_, nullptr);
  return map;
}

}  // namespace speedkit::http
