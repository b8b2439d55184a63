// Randomized differential test: HeaderMap against a vector of string pairs,
// over seeded Set/Add/Remove/copy/move/assign steps on a few maps at once,
// so blocks are shared, split and dropped in every order. Names come in
// mixed case; values sit on both sides of 15 bytes, and the Cache-Control
// values include fractional, huge, negative and malformed counts. After
// every step each map's lookups, iteration, wire size, equality and
// memoized Cache-Control are checked against the model and a fresh parse.
#include <gtest/gtest.h>

#include <cctype>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "http/cache_control.h"
#include "http/headers.h"

namespace speedkit::http {
namespace {

using Model = std::vector<std::pair<std::string, std::string>>;

void ModelRemove(Model* model, std::string_view name) {
  std::erase_if(*model, [name](const auto& entry) {
    return EqualsIgnoreCase(entry.first, name);
  });
}

const std::vector<std::string> kNames = {
    "Cache-Control", "ETag", "Vary", "X-A",
    "X-SpeedKit-Source-Of-This-Response", ""};

const std::vector<std::string> kValues = {
    "",
    "1",
    "\"v1\"",
    "fifteen-bytes!!",
    "sixteen-bytes!!!",
    "a value well past fifteen bytes, beyond any small-string buffer",
};

const std::vector<std::string> kCacheControlValues = {
    "public, max-age=60, stale-while-revalidate=6",
    "no-cache, max-age=0",
    "private, no-store",
    "must-revalidate, immutable, s-maxage=300",
    "max-age=1.5",                 // fractional: not an integer
    "max-age=-5",                  // negative: a sign is malformed
    "max-age=abc, s-maxage=7",     // malformed beside a valid one
    "max-age=\"30\"",              // quoted
    "max-age=4294967295",          // the largest count the memo holds
    "max-age=4294967296",          // one past it: no memo
    "s-maxage=1000000000000",      // huge: no memo
    "stale-while-revalidate=99999999999, public",
    "max-age=5, max-age=abc",      // a later malformed value wins
    "",
};

std::string MixCase(std::string s, Pcg32& rng) {
  for (char& c : s) {
    if (rng.NextBounded(2) == 0) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    } else {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
  }
  return s;
}

void ExpectSameCacheControl(const CacheControl& got,
                            const CacheControl& want) {
  EXPECT_EQ(got.no_store, want.no_store);
  EXPECT_EQ(got.no_cache, want.no_cache);
  EXPECT_EQ(got.must_revalidate, want.must_revalidate);
  EXPECT_EQ(got.is_public, want.is_public);
  EXPECT_EQ(got.is_private, want.is_private);
  EXPECT_EQ(got.immutable, want.immutable);
  EXPECT_EQ(got.max_age, want.max_age);
  EXPECT_EQ(got.s_maxage, want.s_maxage);
  EXPECT_EQ(got.stale_while_revalidate, want.stale_while_revalidate);
}

void ExpectMatches(const HeaderMap& map, const Model& model) {
  ASSERT_EQ(map.size(), model.size());
  EXPECT_EQ(map.empty(), model.empty());
  size_t wire = 0;
  size_t i = 0;
  for (const auto& [name, value] : map) {
    ASSERT_LT(i, model.size());
    EXPECT_EQ(name, model[i].first);
    EXPECT_EQ(value, model[i].second);
    wire += model[i].first.size() + model[i].second.size() + 4;
    ++i;
  }
  EXPECT_EQ(i, model.size());
  EXPECT_EQ(map.WireSize(), wire);
  for (const std::string& name : kNames) {
    std::vector<std::string_view> all;
    for (const auto& [n, v] : model) {
      if (EqualsIgnoreCase(n, name)) all.emplace_back(v);
    }
    EXPECT_EQ(map.GetAll(name), all) << name;
    EXPECT_EQ(map.Has(name), !all.empty()) << name;
    std::optional<std::string_view> first = map.Get(name);
    ASSERT_EQ(first.has_value(), !all.empty()) << name;
    if (first.has_value()) {
      EXPECT_EQ(*first, all.front()) << name;
    }
  }
  std::optional<std::string_view> cc = map.Get("cache-control");
  ExpectSameCacheControl(map.GetCacheControl(),
                         cc.has_value() ? CacheControl::Parse(*cc)
                                        : CacheControl{});
}

TEST(HeaderMapFuzz, MatchesReferenceModel) {
  constexpr int kMaps = 4;
  constexpr int kSteps = 12000;
  Pcg32 rng(0x4eade7);
  std::vector<HeaderMap> maps(kMaps);
  std::vector<Model> models(kMaps);
  for (int step = 0; step < kSteps; ++step) {
    const int a = static_cast<int>(rng.NextBounded(kMaps));
    const int b = static_cast<int>(rng.NextBounded(kMaps));
    const std::string name =
        MixCase(kNames[rng.NextBounded(kNames.size())], rng);
    const std::vector<std::string>& values =
        EqualsIgnoreCase(name, "Cache-Control") ? kCacheControlValues
                                                : kValues;
    const std::string& value = values[rng.NextBounded(values.size())];
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
        maps[a].Set(name, value);
        ModelRemove(&models[a], name);
        models[a].emplace_back(name, value);
        break;
      case 2:
      case 3:
        maps[a].Add(name, value);
        models[a].emplace_back(name, value);
        break;
      case 4:
        maps[a].Remove(name);
        ModelRemove(&models[a], name);
        break;
      case 5: {  // copy construction, then the copy replaces map b
        HeaderMap copy(maps[a]);
        maps[b] = copy;
        models[b] = models[a];
        break;
      }
      case 6:  // copy assignment, self-assignment included
        maps[b] = maps[a];
        models[b] = models[a];
        break;
      case 7:  // move assignment leaves the source empty
        if (a == b) break;
        maps[b] = std::move(maps[a]);
        models[b] = std::move(models[a]);
        models[a].clear();
        break;
    }
    for (int i = 0; i < kMaps; ++i) {
      SCOPED_TRACE(testing::Message() << "step " << step << " map " << i);
      ExpectMatches(maps[i], models[i]);
      for (int j = 0; j < kMaps; ++j) {
        EXPECT_EQ(maps[i] == maps[j], models[i] == models[j]);
      }
    }
    if (HasFatalFailure() || HasNonfatalFailure()) return;
  }
}

}  // namespace
}  // namespace speedkit::http
