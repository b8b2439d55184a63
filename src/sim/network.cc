#include "sim/network.h"

#include <cmath>

namespace speedkit::sim {

NetworkConfig NetworkConfig::Instant() {
  NetworkConfig config;
  // Bandwidth 0 disables transfer-time modelling entirely.
  config.client_edge = LinkSpec{Duration::Zero(), 0.0, 0.0};
  config.client_origin = LinkSpec{Duration::Zero(), 0.0, 0.0};
  config.edge_origin = LinkSpec{Duration::Zero(), 0.0, 0.0};
  return config;
}

Network::Network(const NetworkConfig& config, Pcg32 rng)
    : config_(config), rng_(rng) {}

const LinkSpec& Network::spec(Link link) const {
  switch (link) {
    case Link::kClientEdge:
      return config_.client_edge;
    case Link::kClientOrigin:
      return config_.client_origin;
    case Link::kEdgeOrigin:
      return config_.edge_origin;
  }
  return config_.client_origin;
}

Duration Network::SampleRtt(Link link) {
  const LinkSpec& s = spec(link);
  Duration rtt = s.median_rtt;
  // Lognormal with median m: m * exp(N(0, sigma)).
  if (rtt != Duration::Zero() && s.log_sigma > 0.0) {
    double factor = rng_.LogNormal(0.0, s.log_sigma);
    rtt = Duration::Micros(static_cast<int64_t>(rtt.micros() * factor));
  }
  Histogram* h = rtt_hist_[static_cast<size_t>(link)];
  if (h != nullptr) h->Add(rtt.micros());
  return rtt;
}

bool Network::Delivered(Link link) {
  if (faults_ == nullptr) return true;
  const LinkFaults& f = link == Link::kClientEdge     ? faults_->client_edge
                        : link == Link::kClientOrigin ? faults_->client_origin
                                                      : faults_->edge_origin;
  // No draw on lossless links: an attached-but-quiet schedule must not
  // change any downstream latency sample.
  if (f.loss_probability <= 0.0) return true;
  return !rng_.WithProbability(f.loss_probability);
}

Duration Network::TransferTime(Link link, size_t bytes) const {
  const LinkSpec& s = spec(link);
  if (s.bandwidth_bytes_per_sec <= 0.0) return Duration::Zero();
  return Duration::Seconds(static_cast<double>(bytes) /
                           s.bandwidth_bytes_per_sec);
}

Duration Network::RequestTime(Link link, size_t response_bytes) {
  return SampleRtt(link) + TransferTime(link, response_bytes);
}

}  // namespace speedkit::sim
