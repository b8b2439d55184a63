#include "sim_workload.h"

#include <sys/resource.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <utility>

#include "common/random.h"
#include "http/url.h"
#include "probes.h"

namespace perfbench {

namespace sk = speedkit;
using sk::SimTime;
using sk::proxy::ServedFrom;

namespace {

constexpr uint64_t kPriceSalt = 0x77;
// The Δ-bound allowance for purge propagation, as the fault experiment
// (E14) arms it: any non-excused read staler than Δ + 2 s is a violation.
constexpr Duration kDeltaBoundMargin = Duration::Seconds(2.0);
// Units per run: at least this many untraced ones, whatever --seconds says.
constexpr size_t kMinUnits = 3;
constexpr size_t kMaxUnits = 64;
constexpr size_t kSetupOnlyInstances = 12;

}  // namespace

uint64_t HeapBytesInUse() {
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
  struct mallinfo2 mi = mallinfo2();
  return static_cast<uint64_t>(mi.uordblks) + static_cast<uint64_t>(mi.hblkhd);
#else
  return 0;
#endif
}

uint64_t PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<uint64_t>(ru.ru_maxrss) * 1024;  // kB on Linux
}

SimInstance::SimInstance(const SimSpec& spec, uint64_t seed)
    : spec_(spec), seed_(seed), catalog_(MakeCatalog(spec)) {
  Clock::time_point t0 = Clock::now();
  schedule_ = BuildSimSchedule(spec_, catalog_, seed_);
  product_ids_.reserve(catalog_.num_products());
  for (size_t rank = 0; rank < catalog_.num_products(); ++rank) {
    product_ids_.push_back(catalog_.ProductId(rank));
  }
  result_.wall_us.reserve(schedule_.fetches);
  result_.model_latency_us.reserve(schedule_.fetches);
  // Everything above is the benchmark's own memory; the heap metric
  // counts only what the stack and fleet allocate from here on.
  heap_baseline_ = HeapBytesInUse();

  sk::core::StackConfig config;
  config.seed = seed_;
  config.coherence.delta = spec_.delta;
  stack_ = std::make_unique<sk::core::SpeedKitStack>(config);
  stack_->staleness().SetDeltaBound(spec_.delta + kDeltaBoundMargin);
  catalog_.Populate(&stack_->store(), stack_->clock().Now());
  for (int c = 0; c < catalog_.num_categories(); ++c) {
    stack_->origin().RegisterQuery(catalog_.CategoryQuery(c));
    stack_->pipeline()->WatchQuery(catalog_.CategoryQuery(c),
                                   catalog_.CategoryUrl(c));
  }
  // Settle the population writes out of the sketch before traffic.
  stack_->Advance(Duration::Seconds(5));
  pool_ = stack_->MakeClientPool(sk::proxy::ClientPoolConfig{});
  sk::proxy::ProxyConfig proxy_config = stack_->DefaultProxyConfig();
  clients_.reserve(spec_.clients);
  for (size_t i = 0; i < spec_.clients; ++i) {
    clients_.push_back(pool_->MakeClient(proxy_config, i + 1));
  }
  start_ = stack_->clock().Now();
  setup_seconds_ = SecondsSince(t0);
}

void SimInstance::Snapshot(UnitResult* out) {
  out->proxy = pool_->stats();
  out->staleness = stack_->staleness().report();
  out->origin = stack_->origin().stats();
  out->pipeline = stack_->pipeline()->stats();
  out->edge = stack_->cdn().TotalStats();
  out->spill = pool_->SpillStats();
  out->wheel = stack_->events().wheel_stats();
  out->sketch_entries = stack_->sketch()->entries();
  out->snapshot_bytes = stack_->coherence_protocol()
                            .publication()
                            .Serialized(stack_->clock().Now())
                            ->size();
  uint64_t heap = HeapBytesInUse();
  out->heap_bytes = heap > heap_baseline_ ? heap - heap_baseline_ : 0;
  const sk::proxy::ProxyStats& p = out->proxy;
  for (uint64_t v : {p.requests, p.browser_hits, p.swr_serves, p.edge_hits,
                     p.origin_fetches, p.revalidations_304, p.sketch_bypasses,
                     p.errors, p.bytes_over_network, p.sketch_bytes,
                     out->staleness.stale_reads, out->origin.requests,
                     out->pipeline.keys_invalidated, out->sketch_entries}) {
    out->fingerprint = Mix(out->fingerprint, v);
  }
}

template <bool kTraced>
UnitResult SimInstance::RunLoop() {
  UnitResult& out = result_;
  const std::vector<Op>& ops = schedule_.ops;
  if (kTraced) out.spans.reserve(ops.size() * 3);
  uint64_t fingerprint = kFnvBasis;
  sk::sim::EventQueue& events = stack_->events();
  sk::coherence::StalenessTracker& staleness = stack_->staleness();
  sk::storage::ObjectStore& store = stack_->store();

  const Clock::time_point unit_start = Clock::now();
  auto span = [&](Layer layer, Clock::time_point begin, Clock::time_point end,
                  uint8_t tag) {
    out.spans.push_back(Span{
        static_cast<uint32_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                .count()),
        layer, tag});
  };

  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const SimTime at = start_ + Duration::Micros(op.at_us);

    const Clock::time_point op_start = Clock::now();
    out.events += events.RunUntil(at);
    const Clock::time_point t1 = kTraced ? Clock::now() : op_start;
    if (kTraced) span(Layer::kDispatch, op_start, t1, 0);

    switch (op.kind) {
      case OpKind::kFetch: {
        const std::string& url_text = schedule_.urls[op.target];
        auto url = sk::http::Url::Parse(url_text);
        const Clock::time_point t2 = kTraced ? Clock::now() : t1;
        if (kTraced) span(Layer::kUrlParse, t1, t2, 0);
        out.fetches++;
        if (!url.ok()) {
          out.failed++;
          break;
        }
        sk::proxy::FetchResult r = clients_[op.client]->Fetch(*url);
        const Clock::time_point t3 = Clock::now();
        if (kTraced) {
          span(Layer::kFetch, t2, t3, static_cast<uint8_t>(r.source));
        }
        out.wall_us.push_back(
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(t3 -
                                                                     op_start)
                    .count()) /
            1e3);
        if (r.source == ServedFrom::kError) out.failed++;
        if (IsTrackedUrl(op.target) && r.response.ok() &&
            r.response.object_version > 0) {
          // Offline serves trade freshness for availability on purpose;
          // they never count as Δ violations.
          staleness.RecordRead(url_text, r.response.object_version, at,
                               r.source == ServedFrom::kOfflineCache);
        }
        out.model_latency_us.push_back(
            static_cast<double>(r.latency.micros()));
        for (uint64_t v :
             {static_cast<uint64_t>(op.client),
              static_cast<uint64_t>(op.target),
              static_cast<uint64_t>(r.source),
              static_cast<uint64_t>(r.response.status_code),
              static_cast<uint64_t>(r.latency.micros()),
              r.response.object_version}) {
          fingerprint = Mix(fingerprint, v);
        }
        break;
      }
      case OpKind::kWrite: {
        sk::Pcg32 price_rng(seed_ ^ kPriceSalt, i);
        auto fields = catalog_.PriceUpdate(op.target, price_rng);
        const Clock::time_point t2 = kTraced ? Clock::now() : t1;
        uint64_t version = store.Update(product_ids_[op.target], fields, at);
        if (kTraced) span(Layer::kUpdate, t2, Clock::now(), 0);
        out.writes++;
        fingerprint = Mix(fingerprint, version);
        break;
      }
      case OpKind::kSweep: {
        size_t frozen = pool_->SpillIdle(at);
        if (kTraced) span(Layer::kSweep, t1, Clock::now(), 0);
        fingerprint = Mix(fingerprint, frozen);
        break;
      }
    }
  }
  out.seconds = SecondsSince(unit_start);
  out.ops = ops.size();
  out.fingerprint = fingerprint;
  Snapshot(&out);
  return std::move(result_);
}

UnitResult SimInstance::Run(bool traced) {
  return traced ? RunLoop<true>() : RunLoop<false>();
}

namespace {

// What a run keeps of its units.
struct Units {
  // Set-up samples of the set-up-only instances and the units: as timed,
  // the calibration kernel's time right before each, and scaled to the
  // reference host speed.
  std::vector<double> raw_setups, calibrations, setups;
  void AddSetup(double seconds, double calibration) {
    raw_setups.push_back(seconds);
    calibrations.push_back(calibration);
    setups.push_back(AtReferenceSpeed(seconds, calibration));
  }
  size_t count = 0;
  std::vector<double> rates_untraced, rates_traced;
  std::vector<double> wall_p50, wall_p99, heap;
  std::vector<Span> spans;  // every traced unit's, in order
  double traced_seconds = 0;
  uint64_t traced_fetches = 0;
  uint64_t traced_events = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  UnitResult first;        // outcomes, identical for every unit
  std::unique_ptr<SimInstance> last_traced;  // the probes' warm state
  uint64_t served_mismatches = 0;
  uint64_t request_mismatches = 0;
  uint64_t delta_violations = 0;
  uint64_t fingerprint_mismatches = 0;
  uint64_t schedule_digest = 0;
};

// Sets up and runs one unit; returns its measured seconds.
double RunUnit(const SimSpec& spec, uint64_t seed, bool traced, Units* units) {
  const double calibration = CalibrationSeconds();
  auto inst = std::make_unique<SimInstance>(spec, seed);
  units->AddSetup(inst->setup_seconds(), calibration);
  const bool first = ++units->count == 1;
  if (first) units->schedule_digest = inst->schedule().Digest();
  UnitResult r = inst->Run(traced);
  const double seconds = r.seconds;
  const double rate = Ratio(static_cast<double>(r.ops), r.seconds);
  units->attempted += r.ops;
  units->failed += r.failed;
  units->served_mismatches += r.proxy.ServedTotal() != r.proxy.requests;
  units->request_mismatches += r.proxy.requests != r.fetches;
  units->delta_violations += r.staleness.delta_violations;
  if (!first) {
    units->fingerprint_mismatches += r.fingerprint != units->first.fingerprint;
  }
  if (traced) {
    units->rates_traced.push_back(rate);
    units->traced_seconds += r.seconds;
    units->traced_fetches += r.fetches;
    units->traced_events += r.events;
    units->spans.insert(units->spans.end(), r.spans.begin(), r.spans.end());
    units->last_traced = std::move(inst);
  } else {
    units->rates_untraced.push_back(rate);
    units->wall_p50.push_back(Quantile(r.wall_us, 0.50));
    units->wall_p99.push_back(Quantile(r.wall_us, 0.99));
    units->heap.push_back(static_cast<double>(r.heap_bytes));
  }
  if (first) {
    r.spans.clear();
    units->first = std::move(r);
  }
  return seconds;
}

void AddEndToEnd(const SimSpec& spec, Units& units, Report* report) {
  const UnitResult& u = units.first;
  const sk::proxy::ProxyStats& p = u.proxy;
  const double requests = static_cast<double>(p.requests);
  const uint64_t n_units = units.rates_untraced.size();
  report->Set("setup_s", "s", Median(units.setups), units.setups.size());
  report->Set("ops_per_s", "ops/s", Median(units.rates_untraced), n_units);
  report->Set("wall_p50_us", "us", Median(units.wall_p50), n_units);
  report->Set("wall_p99_us", "us", Median(units.wall_p99), n_units);
  std::vector<double> model = u.model_latency_us;
  const uint64_t n = model.size();
  report->Set("model_p50_ms", "ms", Quantile(model, 0.50) / 1e3, n);
  report->Set("model_p99_ms", "ms", Quantile(model, 0.99) / 1e3, n);
  report->Set("hit_ratio", "ratio",
              1.0 - Ratio(static_cast<double>(p.origin_fetches), requests),
              p.requests);
  report->Set("heap_bytes_per_client", "B",
              Median(units.heap) / static_cast<double>(spec.clients), n_units);
  report->Set("peak_rss_mb", "MiB",
              static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0));
  report->Set("net_bytes_per_req", "B",
              Ratio(static_cast<double>(p.bytes_over_network + p.sketch_bytes +
                                        p.background_bytes),
                    requests),
              p.requests);
  report->Set("failed_ratio", "ratio",
              Ratio(static_cast<double>(p.errors), requests), p.requests);
  report->Set("stale_read_ratio", "ratio", u.staleness.StaleFraction(),
              u.staleness.reads);
}

void AddPerLayer(Units& units, Report* report) {
  const UnitResult& u = units.first;
  const sk::proxy::ProxyStats& p = u.proxy;
  const double requests = static_cast<double>(p.requests);
  const double traced_ns = units.traced_seconds * 1e9;

  std::vector<double> by_tier[3];  // browser, edge, origin
  std::vector<double> updates;
  double parse_ns = 0, fetch_ns = 0, dispatch_ns = 0, sweep_ns = 0,
         all_ns = 0;
  uint64_t parses = 0, sweeps = 0, other_tier = 0;
  for (const Span& s : units.spans) {
    const double d = s.duration_ns;
    all_ns += d;
    switch (s.layer) {
      case Layer::kDispatch: dispatch_ns += d; break;
      case Layer::kUrlParse: parse_ns += d; parses++; break;
      case Layer::kFetch:
        fetch_ns += d;
        switch (static_cast<ServedFrom>(s.tag)) {
          case ServedFrom::kBrowserCache: by_tier[0].push_back(d); break;
          case ServedFrom::kEdgeCache: by_tier[1].push_back(d); break;
          case ServedFrom::kOrigin: by_tier[2].push_back(d); break;
          default: other_tier++; break;
        }
        break;
      case Layer::kUpdate: updates.push_back(d); break;
      case Layer::kSweep: sweep_ns += d; sweeps++; break;
    }
  }
  const uint64_t tier_samples =
      by_tier[0].size() + by_tier[1].size() + by_tier[2].size() + other_tier;
  report->Check("fetch_tiers_cover_requests",
                tier_samples == units.traced_fetches,
                std::to_string(tier_samples) + " tier samples for " +
                    std::to_string(units.traced_fetches) + " fetches");

  report->Set("http.url_parse_ns", "ns", Ratio(parse_ns, parses), parses);
  report->SetPercentiles("proxy.fetch_ns.browser", "ns", std::move(by_tier[0]));
  report->SetPercentiles("proxy.fetch_ns.edge", "ns", std::move(by_tier[1]));
  report->SetPercentiles("proxy.fetch_ns.origin", "ns", std::move(by_tier[2]));
  report->Set("proxy.fetch_ns.other_count", "count",
              static_cast<double>(other_tier));
  report->Set("proxy.fetch_ns.requests", "count",
              static_cast<double>(units.traced_fetches));
  report->Set("proxy.fetch_busy_share", "ratio", Ratio(fetch_ns, traced_ns));
  report->Set("proxy.sketch_bypass_ratio", "ratio",
              Ratio(static_cast<double>(p.sketch_bypasses), requests),
              p.requests);
  report->Set("proxy.spill_sweep_ns", "ns", Ratio(sweep_ns, sweeps), sweeps);
  report->Set("proxy.spill_freezes", "count",
              static_cast<double>(u.spill.freezes));
  report->Set("proxy.spill_thaws", "count", static_cast<double>(u.spill.thaws));

  const sk::cache::HttpCacheStats& e = u.edge;
  const uint64_t lookups = e.fresh_hits + e.stale_hits + e.misses;
  report->Set("cache.edge_hit_ratio", "ratio",
              Ratio(static_cast<double>(e.fresh_hits),
                    static_cast<double>(lookups)),
              lookups);
  report->Set("origin.requests_per_req", "ratio",
              Ratio(static_cast<double>(u.origin.requests), requests),
              p.requests);
  const uint64_t renders =
      u.origin.render_cache_hits + u.origin.render_cache_misses;
  report->Set("origin.render_cache_hit_ratio", "ratio",
              Ratio(static_cast<double>(u.origin.render_cache_hits),
                    static_cast<double>(renders)),
              renders);
  report->SetPercentiles("storage.update_ns", "ns", std::move(updates));
  const double writes = static_cast<double>(u.writes);
  report->Set("invalidation.keys_per_write", "count",
              Ratio(static_cast<double>(u.pipeline.keys_invalidated), writes),
              u.writes);
  report->Set("invalidation.purges_per_write", "count",
              Ratio(static_cast<double>(u.pipeline.purges_scheduled), writes),
              u.writes);
  report->Set("sketch.snapshot_bytes", "B",
              static_cast<double>(u.snapshot_bytes));
  report->Set("sketch.entries", "count",
              static_cast<double>(u.sketch_entries));
  report->Set("sketch.refresh_bytes_per_req", "B",
              Ratio(static_cast<double>(p.sketch_bytes), requests),
              p.requests);
  report->Set("sim.dispatch_ns_per_event", "ns",
              Ratio(dispatch_ns, static_cast<double>(units.traced_events)),
              units.traced_events);
  report->Set("sim.events_per_op", "count",
              Ratio(static_cast<double>(u.events), static_cast<double>(u.ops)),
              u.ops);
  report->Set("sim.wheel_cascades", "count",
              static_cast<double>(u.wheel.cascaded));
  report->Set("coherence.stale_read_ratio", "ratio",
              u.staleness.StaleFraction(), u.staleness.reads);
  report->Set("bench.unattributed_share", "ratio",
              Ratio(traced_ns - all_ns, traced_ns));
  report->Set("bench.trace_overhead", "ratio",
              Ratio(Median(units.rates_untraced), Median(units.rates_traced)),
              units.rates_traced.size());

  // Probes of each layer's public functions on the final warm state.
  SimInstance& inst = *units.last_traced;
  const SimSchedule& schedule = inst.schedule();
  ProbeTargets targets;
  // The unit's last fetches: (client, URL) pairs whose entries are warm in
  // the clients' browser caches.
  for (size_t k = schedule.ops.size();
       k-- > 0 && targets.warm.size() < kProbeKeys;) {
    const Op& op = schedule.ops[k];
    if (op.kind != OpKind::kFetch) continue;
    targets.warm.push_back({inst.client(op.client), schedule.urls[op.target]});
  }
  for (int c = 0; c < inst.catalog().num_categories(); ++c) {
    targets.query_urls.push_back(inst.catalog().CategoryUrl(c));
  }
  for (size_t rank = 0; rank < inst.catalog().num_products(); ++rank) {
    targets.record_urls.push_back(inst.catalog().ProductUrl(rank));
  }
  ProbeCaches(inst.stack(), targets, report);
  ProbeOrigin(inst.stack(), targets, report);
  ProbeSketch(inst.stack(), report);
  ProbeWireParse(targets.record_urls, report);
}

}  // namespace

void RunSimWorkload(const SimSpec& spec, const RunOptions& options,
                    Report* report) {
  report->Info("spec.clients", static_cast<double>(spec.clients));
  report->Info("spec.writes_per_sec", spec.writes_per_sec);
  report->Info("spec.products", static_cast<double>(spec.products));
  report->Info("spec.categories", spec.categories);
  report->Info("spec.delta_s", spec.delta.seconds());
  report->Info("spec.unit_ops", static_cast<double>(spec.unit_ops));
  report->Info("spec.loop", "closed, one thread, one unsharded SpeedKitStack");

  // Set-ups that are timed and torn down unrun, so that setup_s is the
  // median of many samples past the first, cold-heap ones.
  Units units;
  for (size_t i = 0; i < kSetupOnlyInstances; ++i) {
    const double calibration = CalibrationSeconds();
    units.AddSetup(SimInstance(spec, options.seed).setup_seconds(),
                   calibration);
  }

  // Untraced units until --seconds of unit time are spent; a traced run
  // alternates untraced and traced units and ends on a traced one.
  double spent = 0;
  while (units.count < kMaxUnits) {
    units.last_traced.reset();  // one live stack at a time
    spent += RunUnit(spec, options.seed, false, &units);
    if (options.trace) spent += RunUnit(spec, options.seed, true, &units);
    if (spent >= options.seconds &&
        (options.trace || units.rates_untraced.size() >= kMinUnits)) {
      break;
    }
  }

  report->Info("schedule.digest", Hex(units.schedule_digest));
  report->Info("schedule.ops", static_cast<double>(units.first.ops));
  report->Info("units.untraced",
               static_cast<double>(units.rates_untraced.size()));
  report->Info("units.untraced_ops_per_s", units.rates_untraced);
  report->Info("setup.raw_samples_s", units.raw_setups);
  report->Info("setup.calibration_s", units.calibrations);
  report->Info("units.traced", static_cast<double>(units.rates_traced.size()));
  report->Info("fingerprint", Hex(units.first.fingerprint));
  report->Check("served_total", units.served_mismatches == 0,
                std::to_string(units.served_mismatches) +
                    " units where ServedTotal != requests");
  report->Check("requests_match_fetches", units.request_mismatches == 0,
                std::to_string(units.request_mismatches) +
                    " units where requests != fetch ops");
  report->Check("delta_violations", units.delta_violations == 0,
                std::to_string(units.delta_violations) + " reads staler than " +
                    (spec.delta + kDeltaBoundMargin).ToString());
  report->Check(options.trace ? "fingerprint_traced_vs_untraced"
                              : "fingerprint_repeat",
                units.fingerprint_mismatches == 0,
                std::to_string(units.fingerprint_mismatches) + " of " +
                    std::to_string(units.count - 1) +
                    " repeats differ from " + Hex(units.first.fingerprint));
  report->SetCounts(units.attempted, units.failed);
  if (options.trace) AddPerLayer(units, report);
  AddEndToEnd(spec, units, report);
}

}  // namespace perfbench
