#include "schedule.h"

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "workload/write_process.h"
#include "workload/zipf.h"

namespace perfbench {

namespace sk = speedkit;
namespace wl = speedkit::workload;

namespace {

// Salts of the independent streams forked off the workload seed.
constexpr uint64_t kCatalogSalt = 0xca7a;
constexpr uint64_t kWriteSalt = 1000;
constexpr uint64_t kSessionSalt = 3000;
constexpr uint64_t kSocketSalt = 0x50c;

// Session streams cap out here even if `max_ops` was not reached.
constexpr double kMaxHorizonSeconds = 8 * 3600.0;

std::vector<Op> GenerateOps(const SimSpec& spec, const wl::Catalog& catalog,
                            uint64_t seed, double horizon_s) {
  std::vector<Op> ops;
  const int64_t horizon_us = static_cast<int64_t>(horizon_s * 1e6);
  const uint32_t first_product = CategoryUrlIndex(spec.categories);

  wl::ZipfGenerator popularity(catalog.num_products(),
                               spec.session.product_skew);
  for (size_t i = 0; i < spec.clients; ++i) {
    sk::Pcg32 root(seed, kSessionSalt + i);
    wl::SessionGenerator sessions(&catalog, spec.session, &popularity,
                                  root.Fork(1));
    sk::Pcg32 gaps = root.Fork(2);
    // Stagger session starts across the first minute.
    int64_t t = static_cast<int64_t>(gaps.Uniform(0.0, 60.0) * 1e6);
    while (t < horizon_us) {
      for (const wl::PageView& view : sessions.NextSession()) {
        t += view.think_time_before.micros();
        if (t >= horizon_us) break;
        Op op;
        op.at_us = t;
        op.client = static_cast<uint32_t>(i);
        switch (view.type) {
          case wl::PageType::kHome:
            op.target = 0;
            break;
          case wl::PageType::kCategory:
            op.target = CategoryUrlIndex(view.category);
            break;
          case wl::PageType::kProduct:
            op.target =
                first_product + static_cast<uint32_t>(view.product_rank);
            break;
          case wl::PageType::kCart:
            continue;  // rendered on-device, no request
        }
        ops.push_back(op);
      }
      t += static_cast<int64_t>(
          gaps.Exponential(1.0 / spec.mean_session_gap.seconds()) * 1e6);
    }
  }

  if (spec.writes_per_sec > 0) {
    wl::WriteProcess writes(catalog.num_products(), spec.writes_per_sec,
                            spec.write_skew, sk::Pcg32(seed, kWriteSalt));
    sk::SimTime from = sk::SimTime::Origin();
    while (true) {
      wl::WriteEvent ev = writes.Next(from);
      if (ev.at.micros() >= horizon_us) break;
      Op op;
      op.at_us = ev.at.micros();
      op.target = static_cast<uint32_t>(ev.object_rank);
      op.kind = OpKind::kWrite;
      ops.push_back(op);
      from = ev.at;
    }
  }

  if (spec.sweeps) {
    for (int64_t t = spec.sweep_interval.micros(); t < horizon_us;
         t += spec.sweep_interval.micros()) {
      Op op;
      op.at_us = t;
      op.kind = OpKind::kSweep;
      ops.push_back(op);
    }
  }

  // Same-instant ops keep generation order: fetches, then writes, then
  // sweeps.
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.at_us < b.at_us;
  });
  return ops;
}

}  // namespace

SimSpec BrowseSpec() {
  SimSpec spec;
  spec.name = "browse";
  // Past the ClientPool spill threshold (4096), so SpillMode::kAuto
  // freezes idle browser caches and later requests thaw them.
  spec.clients = 4500;
  spec.writes_per_sec = 2.0;
  spec.sweeps = true;
  spec.unit_ops = 80000;
  return spec;
}

SimSpec WriteStormSpec() {
  SimSpec spec;
  spec.name = "write-storm";
  // Below the spill threshold: freeze/thaw never runs.
  spec.clients = 256;
  // About ten writes per read: 256 clients read ~12 pages per sim-second.
  spec.writes_per_sec = 120.0;
  spec.unit_ops = 200000;
  return spec;
}

wl::Catalog MakeCatalog(const SimSpec& spec) {
  wl::CatalogConfig config;
  config.num_products = spec.products;
  config.num_categories = spec.categories;
  return wl::Catalog(config, sk::Pcg32(spec.catalog_seed, kCatalogSalt));
}

SimSchedule BuildSimSchedule(const SimSpec& spec, const wl::Catalog& catalog,
                             uint64_t seed) {
  const size_t max_ops = spec.unit_ops;
  SimSchedule schedule;
  schedule.urls.push_back("https://shop.example.com/pages/home");
  for (int c = 0; c < spec.categories; ++c) {
    schedule.urls.push_back(catalog.CategoryUrl(c));
  }
  for (size_t rank = 0; rank < catalog.num_products(); ++rank) {
    schedule.urls.push_back(catalog.ProductUrl(rank));
  }

  // Grow the sim-time horizon until the schedule holds max_ops ops; every
  // stream restarts from its seed, so the result depends on the seed only.
  double horizon_s = 120;
  std::vector<Op> ops = GenerateOps(spec, catalog, seed, horizon_s);
  while (ops.size() < max_ops && horizon_s < kMaxHorizonSeconds) {
    double per_s = static_cast<double>(std::max<size_t>(ops.size(), 1)) /
                   horizon_s;
    horizon_s = std::min(
        kMaxHorizonSeconds,
        std::max(horizon_s * 2, 1.1 * static_cast<double>(max_ops) / per_s));
    ops = GenerateOps(spec, catalog, seed, horizon_s);
  }
  if (ops.size() > max_ops) ops.resize(max_ops);
  schedule.ops = std::move(ops);
  for (const Op& op : schedule.ops) {
    schedule.fetches += op.kind == OpKind::kFetch;
  }
  return schedule;
}

uint64_t SimSchedule::Digest() const {
  uint64_t h = kFnvBasis;
  for (const Op& op : ops) {
    h = Mix(h, static_cast<uint64_t>(op.at_us));
    h = Mix(h, op.client);
    h = Mix(h, op.target);
    h = Mix(h, static_cast<uint64_t>(op.kind));
  }
  return h;
}

SocketSpec EdgeSocketSpec() {
  SocketSpec spec;
  spec.reference_rate = 4000;
  spec.warmup_share = 0.05;
  spec.reference_share = 0.2;
  // Steps of 25%, up to far past what one loop thread serves.
  for (double rate = 16000; rate < 250000; rate *= 1.25) {
    spec.ladder.push_back(std::round(rate));
  }
  spec.passes = 5;
  spec.step_share = 0.0125;
  spec.slice_share = 0.0025;
  // Loose enough that the scheduling jitter of a shared host does not trip
  // it; a backlog does within one step.
  spec.p99_limit_us = 10000;
  return spec;
}

std::vector<SocketPhase> SocketPhases(const SocketSpec& spec, double seconds) {
  auto phase = [seconds](double rate, double share, int pass) {
    return SocketPhase{rate, pass, static_cast<int64_t>(share * seconds * 1e9)};
  };
  std::vector<SocketPhase> phases = {
      phase(spec.reference_rate, spec.warmup_share, -1),
      phase(spec.reference_rate, spec.reference_share, -1)};
  for (int pass = 0; pass < spec.passes; ++pass) {
    for (double rate : spec.ladder) {
      phases.push_back(phase(rate, spec.step_share, pass));
    }
  }
  return phases;
}

void SocketPhaseRequests(const SocketSpec& spec, const SocketPhase& phase,
                         size_t index, uint64_t seed,
                         std::vector<SocketRequest>* out) {
  wl::ZipfGenerator popularity(std::min(spec.hot_products, spec.products),
                               spec.zipf_s);
  sk::Pcg32 rng(seed, kSocketSalt + index);
  out->clear();
  double t_ns = 0;
  while (true) {
    t_ns += rng.Exponential(phase.rate) * 1e9;
    if (t_ns >= static_cast<double>(phase.duration_ns)) break;
    SocketRequest req;
    req.due_ns = static_cast<int64_t>(t_ns);
    req.product = static_cast<uint32_t>(popularity.Sample(rng));
    req.identity = rng.NextBounded(spec.identities);
    out->push_back(req);
  }
}

uint64_t MixPhase(uint64_t h, const SocketPhase& phase,
                  const std::vector<SocketRequest>& requests) {
  h = Mix(h, static_cast<uint64_t>(phase.duration_ns));
  h = Mix(h, requests.size());
  for (const SocketRequest& r : requests) {
    h = Mix(h, static_cast<uint64_t>(r.due_ns));
    h = Mix(h, r.product);
    h = Mix(h, r.identity);
  }
  return h;
}

uint64_t SocketScheduleDigest(const SocketSpec& spec, uint64_t seed,
                              double seconds, size_t* requests) {
  uint64_t h = kFnvBasis;
  *requests = 0;
  const std::vector<SocketPhase> phases = SocketPhases(spec, seconds);
  std::vector<SocketRequest> reqs;
  for (size_t p = 0; p < phases.size(); ++p) {
    SocketPhaseRequests(spec, phases[p], p, seed, &reqs);
    h = MixPhase(h, phases[p], reqs);
    *requests += reqs.size();
  }
  return h;
}

}  // namespace perfbench
