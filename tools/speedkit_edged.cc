// speedkit_edged: one edge node of the real-socket tier.
//
//   speedkit-edged --port=8080 --node=edge-a --ring=edge-a,edge-b,edge-c
//       --reject-misrouted --flight=coalesce --seed=42
//
// Serves plain HTTP/1.1; the request path runs the exact simulator stack
// (browser cache per X-SpeedKit-Client, Cache Sketch, CDN edge cache,
// origin) with wall time mapped onto the simulated clock. See
// docs/OPERATIONS.md for the full operator guide and flag reference.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "net/edged_server.h"
#include "tools/flags.h"

namespace {

speedkit::net::EdgedServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  if (g_server != nullptr) g_server->Interrupt();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  using speedkit::tools::Flags;
  Flags flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::printf(
        "speedkit-edged -- socketed Speed Kit edge node\n"
        "  --host=127.0.0.1         bind address (numeric IPv4)\n"
        "  --port=8080              bind port (0 = ephemeral, printed)\n"
        "  --node=edge-0            this node's ring identity\n"
        "  --ring=a,b,c             full ring member list (default: solo)\n"
        "  --ring-replicas=200      vnodes per ring member\n"
        "  --reject-misrouted       421 for keys owned by another member\n"
        "  --flight=coalesce        origin flights: instant|coalesce\n"
        "  --seed=42                stack RNG seed\n"
        "  --coherence=delta_atomic coherence protocol: delta_atomic|\n"
        "                           serializable|fixed_ttl\n"
        "  --edges=1                CDN edges inside the embedded stack\n"
        "  --products=2000          synthetic catalog size\n"
        "  --idle-timeout-ms=30000  drop idle connections after this\n");
    return 0;
  }

  speedkit::net::EdgedConfig config;
  config.host = flags.GetString("host", "127.0.0.1");
  config.port = static_cast<uint16_t>(flags.GetInt("port", 8080));
  config.node_name = flags.GetString("node", "edge-0");
  std::string ring = flags.GetString("ring", "");
  if (!ring.empty()) {
    for (std::string_view n : speedkit::SplitView(ring, ',')) {
      config.ring_nodes.emplace_back(n);
    }
  }
  config.ring_replicas = static_cast<int>(flags.GetInt("ring-replicas", 200));
  config.reject_misrouted = flags.GetBool("reject-misrouted", false);
  config.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle-timeout-ms", 30000));
  config.stack.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  if (speedkit::Status s = speedkit::coherence::ParseCoherenceMode(
          flags.GetString("coherence", "delta_atomic"),
          &config.stack.coherence.mode);
      !s.ok()) {
    std::fprintf(stderr, "--coherence: %s\n", s.ToString().c_str());
    return 2;
  }
  config.stack.cdn_edges = static_cast<int>(flags.GetInt("edges", 1));
  if (speedkit::Status s = speedkit::cache::ParseOriginFlightMode(
          flags.GetString("flight", "coalesce"), &config.stack.origin_flight);
      !s.ok()) {
    std::fprintf(stderr, "--flight: %s\n", s.ToString().c_str());
    return 2;
  }
  config.catalog.num_products = flags.GetCount("products", 2000);
  if (speedkit::tools::ReportBadFlags(flags, "speedkit-edged")) return 2;

  speedkit::net::EdgedServer server(config);
  if (!server.Start()) {
    std::fprintf(stderr, "speedkit-edged: failed to bind %s:%d\n",
                 config.host.c_str(), config.port);
    return 1;
  }
  g_server = &server;
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  std::printf("speedkit-edged: node %s serving on %s:%u (flight=%s)\n",
              config.node_name.c_str(), config.host.c_str(),
              unsigned{server.port()},
              std::string(speedkit::cache::OriginFlightModeName(
                              config.stack.origin_flight))
                  .c_str());
  std::fflush(stdout);
  server.Run();
  std::printf("speedkit-edged: shut down cleanly\n");
  return 0;
}
