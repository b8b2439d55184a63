// E17 -- socketed edge vs. simulator prediction.
//
// Boots a real speedkit_edged instance on an ephemeral localhost port,
// drives it over genuine TCP with the closed-loop load generator, then
// replays the IDENTICAL per-worker request streams through a pure
// simulation of the same stack. The two runs share every knob: seed,
// catalog, Zipf popularity, per-worker Pcg32 forks, flight mode. The
// point of the figure is the paper's implicit claim that the simulator
// PREDICTS the socketed system: cache hit rate must agree within a few
// points, and the latency gap is exactly the modeled network (the sim
// charges rtt/xfer; localhost charges microseconds).
//
// Gates (env-overridable):
//   SPEEDKIT_E17_MAX_HIT_GAP   |socket - sim| hit-rate gap, default 0.05
//   zero transport errors / zero 5xx from the socket run
//   single-flight visibly collapsing (joins > 0 under kCoalesce)
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "core/stack.h"
#include "http/url.h"
#include "net/edged_server.h"
#include "net/loadgen.h"
#include "proxy/client_pool.h"
#include "proxy/client_proxy.h"
#include "workload/catalog.h"
#include "workload/zipf.h"

namespace {

using speedkit::Duration;
using speedkit::Histogram;
using speedkit::Pcg32;

// Prints an object's fields as an aligned "key value" block.
void PrintFields(const speedkit::obs::JsonValue& object) {
  for (const auto& [key, value] : object.fields()) {
    std::printf("  %-26s %s\n", key.c_str(), value.Text(4).c_str());
  }
}

double EnvBudget(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return std::atof(raw);
}

struct SimReplay {
  uint64_t requests = 0;
  uint64_t origin_serves = 0;
  uint64_t flight_joins = 0;
  uint64_t origin_requests = 0;
  Histogram latency_us;

  double HitRate() const {
    if (requests == 0) return 0.0;
    return 1.0 -
           static_cast<double>(origin_serves) / static_cast<double>(requests);
  }
};

// Replays the loadgen's exact request streams inside the simulator: same
// catalog, same shared Zipf popularity, same per-worker Pcg32 forks, one
// sim client per worker. Workers interleave round-robin with a fixed
// inter-arrival so concurrent hot keys overlap origin flight windows the
// way the socket run's real concurrency does.
SimReplay ReplayInSim(const speedkit::core::StackConfig& stack_config,
                      const speedkit::net::LoadGenConfig& lg,
                      Duration warmup, Duration inter_arrival) {
  namespace workload = speedkit::workload;
  speedkit::core::SpeedKitStack stack(stack_config);
  workload::Catalog catalog(lg.catalog, stack.ForkRng(0xca7a10a));
  catalog.Populate(&stack.store(), stack.clock().Now());
  if (warmup > Duration::Zero()) stack.Advance(warmup);
  auto pool = stack.MakeClientPool(speedkit::proxy::ClientPoolConfig{});

  size_t hot = lg.hot_products;
  if (hot == 0 || hot > catalog.num_products()) hot = catalog.num_products();
  std::vector<speedkit::http::Url> urls;
  urls.reserve(hot);
  for (size_t rank = 0; rank < hot; ++rank) {
    urls.push_back(*speedkit::http::Url::Parse(catalog.ProductUrl(rank)));
  }
  workload::ZipfGenerator popularity(hot, lg.zipf_s);

  size_t workers = static_cast<size_t>(lg.workers);
  std::vector<Pcg32> rngs;
  std::vector<speedkit::proxy::ClientProxy*> clients;
  rngs.reserve(workers);
  clients.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    rngs.push_back(Pcg32(lg.seed).Fork(0x10ad0000 + w));
    clients.push_back(pool->MakeClient(stack.DefaultProxyConfig(), w));
  }

  SimReplay replay;
  for (uint64_t i = 0; i < lg.requests_per_worker; ++i) {
    for (size_t w = 0; w < workers; ++w) {
      stack.Advance(inter_arrival);
      const speedkit::http::Url& url = urls[popularity.Sample(rngs[w])];
      speedkit::proxy::FetchResult result = clients[w]->Fetch(url);
      replay.requests++;
      if (result.source == speedkit::proxy::ServedFrom::kOrigin) {
        replay.origin_serves++;
      }
      replay.latency_us.Add(result.latency.micros());
    }
  }
  replay.flight_joins = stack.cdn().flight_joins();
  replay.origin_requests = stack.origin().stats().requests;
  return replay;
}

}  // namespace

int main(int argc, char** argv) {
  namespace bench = speedkit::bench;
  namespace net = speedkit::net;
  bench::Harness h(argc, argv, "socketed");
  const speedkit::tools::Flags& flags = h.flags();

  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const int workers = static_cast<int>(flags.GetInt("workers", 4));
  const uint64_t requests =
      static_cast<uint64_t>(flags.GetInt("requests", 2000));
  const size_t products =
      static_cast<size_t>(flags.GetInt("products", 2000));
  const size_t hot_products =
      static_cast<size_t>(flags.GetInt("hot-products", 500));
  const double zipf_s = flags.GetDouble("zipf", 0.95);

  bench::PrintHeader(
      "E17", "socketed edge vs. simulator prediction",
      "the simulator as a predictor: the same stack served over real TCP "
      "sockets shows the same cache hit rate, and the latency gap is the "
      "modeled network");

  // --- socket run: real edged on an ephemeral port, real TCP clients ----
  net::EdgedConfig edged;
  edged.host = "127.0.0.1";
  edged.port = 0;
  edged.stack.seed = seed;
  edged.stack.origin_flight = speedkit::cache::OriginFlightMode::kCoalesce;
  edged.catalog.num_products = products;

  net::EdgedServer server(edged);
  if (!server.Start()) {
    std::fprintf(stderr, "FATAL: could not bind an ephemeral localhost port\n");
    return 1;
  }
  std::thread server_thread([&server] { server.Run(); });

  net::LoadGenConfig lg;
  lg.targets.push_back({edged.node_name, edged.host, server.port()});
  lg.workers = workers;
  lg.requests_per_worker = requests;
  lg.seed = seed;
  lg.zipf_s = zipf_s;
  lg.hot_products = hot_products;
  lg.catalog.num_products = products;

  net::LoadGenReport socket_report = net::RunLoadGen(lg);
  server.Stop();
  server_thread.join();

  const double socket_hit = socket_report.HitRate();
  const uint64_t socket_joins = server.stack().cdn().flight_joins();
  const Histogram& wall_us = socket_report.wall_latency_us;
  const Histogram& predicted_us = socket_report.predicted_us;
  bench::JsonValue socket = bench::JsonRow(
      {{"responses", socket_report.responses},
       {"transport_errors", socket_report.transport_errors},
       {"errors_5xx", socket_report.errors_5xx},
       {"hit_rate", socket_hit},
       {"throughput_rps",
        socket_report.wall_seconds > 0
            ? static_cast<double>(socket_report.responses) /
                  socket_report.wall_seconds
            : 0.0},
       {"flight_joins", socket_joins},
       {"origin_requests", server.stack().origin().stats().requests},
       {"wall_p50_us", wall_us.P50()},
       {"wall_p99_us", wall_us.P99()},
       {"predicted_p50_us", predicted_us.P50()}});
  bench::PrintSection("socket run (localhost TCP)");
  PrintFields(socket);
  std::string served = "requests " + std::to_string(socket_report.requests) +
                       ", 4xx " + std::to_string(socket_report.errors_4xx) +
                       ", wall p90 " + std::to_string(wall_us.P90()) +
                       " us, modeled p90/p99 " +
                       std::to_string(predicted_us.P90()) + "/" +
                       std::to_string(predicted_us.P99()) + " us; served from";
  for (const auto& [source, n] : socket_report.sources) {
    served += " " + source + " " + std::to_string(n);
  }
  bench::Note(served);

  // --- sim replay: identical streams, pure simulation ------------------
  // Inter-arrival matches the socket run's measured per-worker pacing, so
  // flight windows overlap comparably. Floor at 1us.
  int64_t inter_us = 1;
  if (socket_report.responses > 0 && socket_report.wall_seconds > 0) {
    inter_us = static_cast<int64_t>(
        socket_report.wall_seconds * 1e6 * workers /
        static_cast<double>(socket_report.responses));
    if (inter_us < 1) inter_us = 1;
  }
  speedkit::core::StackConfig sim_config = edged.stack;
  SimReplay sim =
      ReplayInSim(sim_config, lg, edged.warmup, Duration::Micros(inter_us));
  const double sim_hit = sim.HitRate();

  bench::JsonValue sim_fields = bench::JsonRow(
      {{"requests", sim.requests},
       {"hit_rate", sim_hit},
       {"flight_joins", sim.flight_joins},
       {"origin_requests", sim.origin_requests},
       {"p50_us", sim.latency_us.P50()},
       {"p99_us", sim.latency_us.P99()}});
  bench::PrintSection("sim replay (same streams, pure simulation)");
  PrintFields(sim_fields);
  bench::Note("sim latency p90 " + std::to_string(sim.latency_us.P90()) +
              " us");

  // --- comparison + gates ----------------------------------------------
  const double hit_gap = std::fabs(socket_hit - sim_hit);
  const double max_gap = EnvBudget("SPEEDKIT_E17_MAX_HIT_GAP", 0.05);

  bool ok = true;
  if (socket_report.transport_errors != 0 || socket_report.errors_5xx != 0) {
    std::fprintf(stderr,
                 "FATAL: socket run unhealthy: %llu transport errors, "
                 "%llu 5xx\n",
                 static_cast<unsigned long long>(
                     socket_report.transport_errors),
                 static_cast<unsigned long long>(socket_report.errors_5xx));
    ok = false;
  }
  if (hit_gap > max_gap) {
    std::fprintf(stderr,
                 "FATAL: socket/sim hit-rate gap %.4f exceeds budget %.4f "
                 "(socket %.4f, sim %.4f)\n",
                 hit_gap, max_gap, socket_hit, sim_hit);
    ok = false;
  }
  if (socket_joins == 0) {
    std::fprintf(stderr,
                 "FATAL: no single-flight joins observed under kCoalesce -- "
                 "concurrent origin fetches are not coalescing\n");
    ok = false;
  }

  bench::JsonValue verdict = bench::JsonRow(
      {{"hit_gap", hit_gap},
       {"max_hit_gap", max_gap},
       {"gate", ok ? "ok" : "FAIL"}});
  bench::PrintSection("socket vs. sim");
  PrintFields(verdict);

  bench::JsonValue report = bench::JsonRow(
      {{"seed", seed},
       {"workers", workers},
       {"requests_per_worker", requests},
       {"products", products},
       {"hot_products", hot_products},
       {"zipf_s", zipf_s},
       {"socket", std::move(socket)},
       {"sim", std::move(sim_fields)}});
  for (const auto& [key, value] : verdict.fields()) report.Set(key, value);
  h.Finish(nullptr, report);

  bench::Note(
      "expected shape: hit rates agree to within a few points (same code, "
      "same streams, only the substrate differs); wall p50 sits orders of "
      "magnitude under the modeled p50 because localhost replaces the "
      "simulated WAN; joins > 0 shows real concurrency riding the "
      "single-flight window");
  return ok ? 0 : 1;
}
