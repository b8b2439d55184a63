// The ring is the placement contract of the socketed tier: the loadgen's
// client-side router, `speedkit_edged --ring`, and operators reasoning
// about topology changes all assume (1) placement is a pure function of
// the member list, (2) vnodes smooth the load split, and (3) membership
// changes move only the keys in the lost/gained arcs. Each property is
// pinned here.
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/hash_ring.h"

namespace speedkit::net {
namespace {

std::vector<std::string> Keys(size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    keys.push_back("https://shop.example.com/api/records/rec-" +
                   std::to_string(i));
  }
  return keys;
}

TEST(HashRingTest, EmptyRingOwnsNothing) {
  HashRing ring;
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.NodeFor("anything"), "");
  EXPECT_TRUE(ring.NodesFor("anything", 3).empty());
}

TEST(HashRingTest, PlacementIsAPureFunctionOfMembership) {
  // Two rings built with the same members — in different insertion order —
  // place every key identically: placement depends on hashes, not history.
  HashRing a(200);
  a.AddNode("edge-a");
  a.AddNode("edge-b");
  a.AddNode("edge-c");
  HashRing b(200);
  b.AddNode("edge-c");
  b.AddNode("edge-a");
  b.AddNode("edge-b");
  for (const std::string& key : Keys(2000)) {
    EXPECT_EQ(a.NodeFor(key), b.NodeFor(key)) << key;
  }
  EXPECT_EQ(a.num_vnodes(), 600u);
}

TEST(HashRingTest, RepeatedAddIsANoOp) {
  HashRing ring(100);
  ring.AddNode("edge-a");
  ring.AddNode("edge-a");
  EXPECT_EQ(ring.num_nodes(), 1u);
  EXPECT_EQ(ring.num_vnodes(), 100u);
}

TEST(HashRingTest, VnodesKeepTheLoadSplitNearUniform) {
  // The docs promise max/mean <= ~1.25 at 200 vnodes; gate at exactly
  // 1.25 so a hash or vnode-labeling regression that skews placement
  // fails loudly.
  HashRing ring(200);
  for (const char* n : {"edge-a", "edge-b", "edge-c", "edge-d", "edge-e"}) {
    ring.AddNode(n);
  }
  std::map<std::string_view, size_t> load;
  const size_t kKeys = 20000;
  for (const std::string& key : Keys(kKeys)) load[ring.NodeFor(key)]++;
  ASSERT_EQ(load.size(), 5u);
  const double mean = static_cast<double>(kKeys) / 5.0;
  for (const auto& [node, n] : load) {
    EXPECT_LT(static_cast<double>(n) / mean, 1.25)
        << node << " owns " << n << " of " << kKeys;
    EXPECT_GT(static_cast<double>(n) / mean, 0.75)
        << node << " owns " << n << " of " << kKeys;
  }
}

TEST(HashRingTest, RemovingANodeOnlyMovesItsOwnKeys) {
  HashRing before(200);
  for (const char* n : {"edge-a", "edge-b", "edge-c", "edge-d"}) {
    before.AddNode(n);
  }
  HashRing after(200);
  for (const char* n : {"edge-a", "edge-b", "edge-c", "edge-d"}) {
    after.AddNode(n);
  }
  ASSERT_TRUE(after.RemoveNode("edge-d"));

  size_t moved = 0;
  size_t owned_by_removed = 0;
  std::vector<std::string> keys = Keys(8000);
  for (const std::string& key : keys) {
    std::string_view was = before.NodeFor(key);
    std::string_view now = after.NodeFor(key);
    if (was == "edge-d") {
      ++owned_by_removed;
      EXPECT_NE(now, "edge-d");
    } else {
      // Minimal disruption: a key not owned by the removed node must not
      // move at all.
      EXPECT_EQ(was, now) << key;
    }
    if (was != now) ++moved;
  }
  // Exactly the removed node's keys moved — roughly 1/4 of the space.
  EXPECT_EQ(moved, owned_by_removed);
  EXPECT_GT(owned_by_removed, keys.size() / 8);
  EXPECT_LT(owned_by_removed, keys.size() / 2);
}

TEST(HashRingTest, AddingANodeOnlyStealsKeys) {
  HashRing before(200);
  before.AddNode("edge-a");
  before.AddNode("edge-b");
  HashRing after(200);
  after.AddNode("edge-a");
  after.AddNode("edge-b");
  after.AddNode("edge-c");

  for (const std::string& key : Keys(4000)) {
    std::string_view now = after.NodeFor(key);
    // Every movement must be INTO the new node; keys never shuffle
    // between pre-existing members.
    if (now != before.NodeFor(key)) {
      EXPECT_EQ(now, "edge-c") << key;
    }
  }
}

TEST(HashRingTest, NodesForReturnsDistinctReplicaSet) {
  HashRing ring(200);
  for (const char* n : {"edge-a", "edge-b", "edge-c"}) ring.AddNode(n);
  for (const std::string& key : Keys(50)) {
    std::vector<std::string_view> set = ring.NodesFor(key, 2);
    ASSERT_EQ(set.size(), 2u);
    EXPECT_NE(set[0], set[1]);
    EXPECT_EQ(set[0], ring.NodeFor(key));
    // Asking for more nodes than exist returns all of them, once each.
    EXPECT_EQ(ring.NodesFor(key, 10).size(), 3u);
  }
}

TEST(HashRingTest, RemoveUnknownNodeIsRejected) {
  HashRing ring;
  ring.AddNode("edge-a");
  EXPECT_FALSE(ring.RemoveNode("edge-zzz"));
  EXPECT_EQ(ring.num_nodes(), 1u);
}

}  // namespace
}  // namespace speedkit::net
