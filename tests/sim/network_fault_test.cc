// Network behaviour under an attached fault schedule — and, just as
// important, the guarantee that an attached-but-empty schedule changes
// nothing, including the RNG draw sequence.
#include <gtest/gtest.h>

#include "sim/network.h"

namespace speedkit::sim {
namespace {

TEST(NetworkFaultTest, DeliveredWithoutScheduleNeverFails) {
  Network net(NetworkConfig::Instant(), Pcg32(1));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(net.Delivered(Link::kClientEdge));
  }
}

TEST(NetworkFaultTest, CertainLossAlwaysFails) {
  FaultScheduleConfig config;
  config.edge_origin.loss_probability = 1.0;
  Network net(NetworkConfig::Instant(), Pcg32(3));
  net.SetFaults(&config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(net.Delivered(Link::kEdgeOrigin));
  }
}

TEST(NetworkFaultTest, PartialLossFailsSometimes) {
  FaultScheduleConfig config;
  config.client_edge.loss_probability = 0.5;
  Network net(NetworkConfig::Instant(), Pcg32(5));
  net.SetFaults(&config);
  int lost = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!net.Delivered(Link::kClientEdge)) ++lost;
  }
  EXPECT_GT(lost, 400);
  EXPECT_LT(lost, 600);
}

TEST(NetworkFaultTest, EmptyScheduleKeepsRngSequenceBitIdentical) {
  NetworkConfig nc;  // default lossy-free jittery links
  Network plain(nc, Pcg32(42));
  Network scheduled(nc, Pcg32(42));
  FaultScheduleConfig empty;
  scheduled.SetFaults(&empty);
  for (int i = 0; i < 200; ++i) {
    // Delivered must not consume a draw on a lossless link, so the RTT
    // sample streams stay aligned.
    ASSERT_TRUE(scheduled.Delivered(Link::kClientEdge));
    EXPECT_EQ(plain.SampleRtt(Link::kClientEdge),
              scheduled.SampleRtt(Link::kClientEdge))
        << i;
  }
}

}  // namespace
}  // namespace speedkit::sim
