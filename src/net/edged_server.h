// speedkit_edged — the real-socket edge front end.
//
// One EdgedServer is one edge node: an epoll event loop accepting plain
// HTTP/1.1 over TCP, whose request path runs the *same* SpeedKitStack /
// ClientProxy / HttpCache / CacheSketch code the simulator drives — no
// forked cache logic, only a different substrate. Wall-clock time maps
// 1:1 onto the embedded stack's simulated clock (the stack is advanced to
// `sim_start + wall_elapsed` before each request), so TTL expiry, sketch
// refresh intervals and origin-flight windows all play out in real time.
//
// Multiple instances form an edge tier through a consistent-hash ring
// (net/hash_ring.h): clients route keys to nodes themselves, like
// memcached clients; an instance can optionally reject keys the ring
// assigns elsewhere with 421 Misdirected Request. Concurrent requests for
// a key whose origin fetch is still in flight coalesce single-flight
// style when the embedded stack runs OriginFlightMode::kCoalesce — the
// wall-time mapping turns the sim's flight window into a real one.
//
// Request protocol (see docs/OPERATIONS.md for the operator view):
//   * client identity: X-SpeedKit-Client: <uint64> (default 0) selects the
//     per-client proxy — browser cache, sketch snapshot and PII stay per
//     client, exactly as in the simulation;
//   * the absolute cache URL is https://<Host header><target> — the edge
//     fronts the canonical origin, whose keys are https-scheme;
//   * responses carry X-SpeedKit-Source (which tier served) and
//     X-SpeedKit-Latency-Us (the latency the simulation model predicts
//     for this serve — what fig_socketed compares wall latency against).
// Admin endpoints: /healthz, /ringz, /metricsz (the obs::MetricsDocument
// of the net.* metrics plus a snapshot of the stack under the METRICS.md
// names).
#ifndef SPEEDKIT_NET_EDGED_SERVER_H_
#define SPEEDKIT_NET_EDGED_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/stack.h"
#include "net/connection.h"
#include "net/event_loop.h"
#include "net/hash_ring.h"
#include "net/http_codec.h"
#include "net/tcp_listener.h"
#include "obs/metrics.h"
#include "proxy/client_pool.h"
#include "workload/catalog.h"

namespace speedkit::net {

struct EdgedConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read back via port() after Start()

  // Ring topology: this node's name and the full member list (order
  // matters only for display; placement is name-hashed). An empty list
  // means a solo node. `reject_misrouted` returns 421 for keys the ring
  // assigns to another member; off, they are served anyway (useful while
  // a topology change propagates) and only counted.
  std::string node_name = "edge-0";
  std::vector<std::string> ring_nodes;
  int ring_replicas = 200;
  bool reject_misrouted = false;

  int idle_timeout_ms = 30000;  // connections idle longer are closed

  // The embedded stack. Callers pick the variant/seed/network exactly as
  // for a simulation; kCoalesce is the natural flight mode here (the
  // tools default to it) since the socket tier has real in-flight windows.
  core::StackConfig stack;

  // The synthetic catalog seeded into the origin's object store, so the
  // edge has content to serve out of the box.
  workload::CatalogConfig catalog;
};

// Sim-time advance applied once at construction, after the catalog is
// populated. A just-populated stack is in a cold-start transient: the TTL
// estimator has no samples and the published Cache Sketch still flags
// every catalog key, so requests arriving in the first sim moments bypass
// every cache. Warming past the transient makes the first socket request
// behave like a steady-state one.
inline constexpr Duration kEdgeWarmup = Duration::Seconds(1);

// Readies a stack built from `config.stack` the way a node does: populates
// the synthetic catalog, drawn from a fixed fork of the stack's RNG, then
// advances kEdgeWarmup. EdgedServer runs it on its own stack and
// fig_socketed on the simulated twin it replays the load generator's trace
// on, so the socket run and the replay start from one state.
void PrepareEdgeStack(const EdgedConfig& config, core::SpeedKitStack* stack);

class EdgedServer {
 public:
  explicit EdgedServer(const EdgedConfig& config);
  ~EdgedServer();
  EdgedServer(const EdgedServer&) = delete;
  EdgedServer& operator=(const EdgedServer&) = delete;

  // Binds and starts accepting; false on bind failure. Also pins the
  // wall->sim time origin, so call it just before Run().
  bool Start();

  // Blocks dispatching until Stop(). Run from a dedicated thread for
  // in-process harnesses (fig_socketed, tests).
  void Run();

  // Thread-safe graceful shutdown: stop accepting, flush and close every
  // connection, then return from Run().
  void Stop();

  // Async-signal-safe shutdown for SIGINT/SIGTERM handlers: just breaks
  // the loop out of Run() (a flag store and an eventfd write — no locks);
  // connections close with the process.
  void Interrupt();

  uint16_t port() const { return listener_.port(); }
  const EdgedConfig& config() const { return config_; }

  // Introspection for in-process harnesses. Only safe to read while the
  // loop is not running (before Start or after Run returns).
  core::SpeedKitStack& stack() { return *stack_; }
  const proxy::ProxyStats& proxy_stats() const { return pool_->stats(); }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

 private:
  void OnAccept(int fd);
  void OnData(Connection* conn);
  void OnConnectionClosed(Connection* conn);
  void ArmIdleSweep();

  // Advances the embedded stack to the sim instant corresponding to the
  // current wall clock.
  void SyncSimClock();

  WireResponse Handle(const WireRequest& req);
  WireResponse HandleCached(const WireRequest& req);
  proxy::ClientProxy* ClientFor(uint64_t client_id);

  EdgedConfig config_;
  EventLoop loop_;
  TcpListener listener_;
  HashRing ring_;

  std::unique_ptr<core::SpeedKitStack> stack_;
  std::unique_ptr<proxy::ClientPool> pool_;
  std::unordered_map<uint64_t, proxy::ClientProxy*> clients_;

  std::chrono::steady_clock::time_point wall_start_;
  SimTime sim_start_;

  // Keyed by pointer, not fd: by the time on_close fires the fd is gone.
  std::unordered_map<Connection*, std::unique_ptr<Connection>> conns_;
  EventLoop::TimerId idle_timer_ = EventLoop::kInvalidTimer;

  // net.* instruments (stable pointers into the registry).
  obs::MetricsRegistry metrics_;
  uint64_t* accepts_;
  int64_t* open_conns_;
  uint64_t* idle_timeouts_;
  uint64_t* protocol_errors_;
  uint64_t* requests_;
  uint64_t* responses_;
  uint64_t* bytes_in_;
  uint64_t* bytes_out_;
  Histogram* handle_us_;
  uint64_t* ring_misroutes_;
  uint64_t* flight_leaders_;
  uint64_t* flight_joins_;
};

}  // namespace speedkit::net

#endif  // SPEEDKIT_NET_EDGED_SERVER_H_
