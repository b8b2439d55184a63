#include "net/edged_server.h"

#include <chrono>
#include <utility>

#include "common/strings.h"
#include "net/net_metric_names.h"
#include "obs/export.h"
#include "proxy/client_proxy.h"

namespace speedkit::net {

namespace {

WireResponse PlainResponse(int status, std::string body) {
  WireResponse resp;
  resp.status_code = status;
  resp.headers.Set("Content-Type", "text/plain");
  resp.body = std::move(body);
  return resp;
}

WireResponse JsonResponse(const obs::JsonValue& body) {
  WireResponse resp;
  resp.status_code = 200;
  resp.headers.Set("Content-Type", "application/json");
  resp.body = body.Dump() + "\n";
  return resp;
}

}  // namespace

void PrepareEdgeStack(const EdgedConfig& config, core::SpeedKitStack* stack) {
  workload::Catalog catalog(config.catalog, stack->ForkRng(0xca7a10a));
  catalog.Populate(&stack->store(), stack->clock().Now());
  stack->Advance(kEdgeWarmup);
}

EdgedServer::EdgedServer(const EdgedConfig& config)
    : config_(config),
      listener_(&loop_),
      ring_(config.ring_replicas),
      stack_(std::make_unique<core::SpeedKitStack>(config.stack)) {
  if (config_.ring_nodes.empty()) {
    ring_.AddNode(config_.node_name);
  } else {
    for (const std::string& n : config_.ring_nodes) ring_.AddNode(n);
  }
  PrepareEdgeStack(config_, stack_.get());
  pool_ = stack_->MakeClientPool(proxy::ClientPoolConfig{});

  accepts_ = metrics_.Counter(kNetAccepts);
  open_conns_ = metrics_.Gauge(kNetOpenConnections);
  idle_timeouts_ = metrics_.Counter(kNetIdleTimeouts);
  protocol_errors_ = metrics_.Counter(kNetProtocolErrors);
  requests_ = metrics_.Counter(kNetRequests);
  responses_ = metrics_.Counter(kNetResponses);
  bytes_in_ = metrics_.Counter(kNetBytesIn);
  bytes_out_ = metrics_.Counter(kNetBytesOut);
  handle_us_ = metrics_.Histo(kNetHandleUs);
  ring_misroutes_ = metrics_.Counter(kNetRingMisroutes);
  flight_leaders_ = metrics_.Counter(kNetFlightLeaders);
  flight_joins_ = metrics_.Counter(kNetFlightJoins);
}

EdgedServer::~EdgedServer() = default;

bool EdgedServer::Start() {
  listener_.set_on_accept([this](int fd) { OnAccept(fd); });
  if (!listener_.Listen(config_.host, config_.port)) return false;
  wall_start_ = std::chrono::steady_clock::now();
  sim_start_ = stack_->clock().Now();
  ArmIdleSweep();
  return true;
}

void EdgedServer::Run() { loop_.Run(); }

void EdgedServer::Interrupt() { loop_.Stop(); }

void EdgedServer::Stop() {
  loop_.Post([this] {
    listener_.Close();
    for (auto& [ptr, conn] : conns_) conn->Close();
    loop_.Stop();
  });
}

void EdgedServer::SyncSimClock() {
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - wall_start_);
  stack_->AdvanceTo(sim_start_ + Duration::Micros(elapsed.count()));
}

void EdgedServer::OnAccept(int fd) {
  (*accepts_)++;
  auto conn = std::make_unique<Connection>(&loop_, fd);
  Connection* raw = conn.get();
  raw->set_on_data([this](Connection* c) { OnData(c); });
  raw->set_on_close([this](Connection* c) { OnConnectionClosed(c); });
  conns_.emplace(raw, std::move(conn));
  *open_conns_ = static_cast<int64_t>(conns_.size());
  raw->Start();
}

void EdgedServer::OnConnectionClosed(Connection* conn) {
  conns_.erase(conn);
  *open_conns_ = static_cast<int64_t>(conns_.size());
}

void EdgedServer::ArmIdleSweep() {
  int interval_ms = config_.idle_timeout_ms / 2;
  if (interval_ms < 1) interval_ms = 1;
  idle_timer_ = loop_.AddTimer(
      std::chrono::microseconds(int64_t{interval_ms} * 1000), [this] {
        auto cutoff = std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(config_.idle_timeout_ms);
        for (auto& [ptr, conn] : conns_) {
          if (!conn->closed() && conn->last_activity() < cutoff) {
            (*idle_timeouts_)++;
            conn->Close();
          }
        }
        ArmIdleSweep();
      });
}

void EdgedServer::OnData(Connection* conn) {
  // Parse as many pipelined requests as the buffer holds.
  while (!conn->closed()) {
    WireRequest req;
    size_t consumed = 0;
    ParseStatus st = ParseRequest(conn->input(), &req, &consumed);
    if (st == ParseStatus::kNeedMore) break;
    if (st == ParseStatus::kError) {
      (*protocol_errors_)++;
      conn->Send(SerializeResponse(400, http::HeaderMap{},
                                   "malformed request\n", false));
      conn->Close();
      break;
    }
    conn->Consume(consumed);
    *bytes_in_ += consumed;

    auto t0 = std::chrono::steady_clock::now();
    WireResponse resp = Handle(req);
    handle_us_->Add(std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());

    resp.keep_alive = resp.keep_alive && req.keep_alive;
    std::string wire = SerializeResponse(resp.status_code, resp.headers,
                                         resp.body, resp.keep_alive);
    *bytes_out_ += wire.size();
    (*responses_)++;
    conn->Send(wire);
    if (!resp.keep_alive) {
      conn->Close();
      break;
    }
  }
}

WireResponse EdgedServer::Handle(const WireRequest& req) {
  (*requests_)++;
  if (req.target == "/healthz") return PlainResponse(200, "ok\n");
  if (req.target == "/ringz") {
    obs::JsonValue nodes = obs::JsonValue::Array();
    for (const std::string& n : ring_.nodes()) nodes.Push(n);
    return JsonResponse(obs::JsonRow({{"node", config_.node_name},
                                      {"nodes", std::move(nodes)},
                                      {"replicas", ring_.default_replicas()},
                                      {"vnodes", ring_.num_vnodes()}}));
  }
  if (req.target == "/metricsz") {
    // A fresh registry per scrape: the live net.* instruments plus a
    // snapshot of the stack, whose histograms CollectMetrics merges.
    obs::MetricsRegistry scrape;
    scrape.MergeFrom(metrics_);
    stack_->CollectMetrics(&pool_->stats(), &scrape);
    return JsonResponse(
        obs::MetricsDocument(scrape, {{"node", config_.node_name}}));
  }
  if (req.method != http::Method::kGet) {
    return PlainResponse(405, "only GET is served here\n");
  }
  return HandleCached(req);
}

WireResponse EdgedServer::HandleCached(const WireRequest& req) {
  auto host = req.headers.Get("Host");
  if (!host.has_value() || host->empty()) {
    return PlainResponse(400, "Host header required\n");
  }
  uint64_t client_id = 0;
  if (auto cid = req.headers.Get("X-SpeedKit-Client"); cid.has_value()) {
    auto parsed = ParseInt64(*cid);
    if (!parsed.has_value() || *parsed < 0) {
      return PlainResponse(400, "bad X-SpeedKit-Client\n");
    }
    client_id = static_cast<uint64_t>(*parsed);
  }
  // The edge fronts the canonical (TLS) origin: cache identity lives in
  // https-scheme URLs even though this hop is plain TCP.
  auto url = http::Url::Parse("https://" + std::string(*host) + req.target);
  if (!url.ok()) return PlainResponse(400, "unparseable request URL\n");

  if (ring_.num_nodes() > 1) {
    std::string_view owner = ring_.NodeFor(url->CacheKey());
    if (owner != config_.node_name) {
      (*ring_misroutes_)++;
      if (config_.reject_misrouted) {
        WireResponse resp =
            PlainResponse(421, "key belongs to another ring member\n");
        resp.headers.Set("X-SpeedKit-Owner", owner);
        return resp;
      }
    }
  }

  SyncSimClock();
  uint64_t flights_before = stack_->cdn().flights_started();
  uint64_t joins_before = stack_->cdn().flight_joins();

  proxy::FetchResult result = ClientFor(client_id)->Fetch(*url);

  *flight_leaders_ += stack_->cdn().flights_started() - flights_before;
  *flight_joins_ += stack_->cdn().flight_joins() - joins_before;

  WireResponse resp;
  resp.status_code = result.response.status_code;
  resp.headers = result.response.headers;
  resp.body = result.response.body;
  resp.headers.Set("X-SpeedKit-Source",
                   proxy::ServedFromName(result.source));
  resp.headers.Set("X-SpeedKit-Latency-Us",
                   std::to_string(result.latency.micros()));
  return resp;
}

proxy::ClientProxy* EdgedServer::ClientFor(uint64_t client_id) {
  auto it = clients_.find(client_id);
  if (it != clients_.end()) return it->second;
  proxy::ClientProxy* client =
      pool_->MakeClient(stack_->DefaultProxyConfig(), client_id);
  clients_.emplace(client_id, client);
  return client;
}

}  // namespace speedkit::net
