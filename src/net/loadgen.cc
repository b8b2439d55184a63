#include "net/loadgen.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/strings.h"
#include "http/url.h"
#include "net/hash_ring.h"
#include "net/http_codec.h"
#include "net/tcp_listener.h"

namespace speedkit::net {

namespace {

// How long a worker waits for a connection to a node, and then for each
// response, before it counts a transport error. Both are far above what a
// loopback node takes, so only a hung or dead node trips them.
constexpr int kConnectTimeoutMs = 2000;
constexpr int kResponseTimeoutMs = 5000;

// Blocking socket with a receive deadline: the loadgen's closed loop has
// nothing useful to do while a response is in flight.
void MakeBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  struct timeval tv;
  tv.tv_sec = kResponseTimeoutMs / 1000;
  tv.tv_usec = (kResponseTimeoutMs % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n > 0) {
      data.remove_prefix(static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

// One request URL, pre-resolved: what the worker loop needs per send.
struct RequestPlan {
  std::string target;  // origin-form
  std::string host;
  size_t target_index;  // which LoadGenTarget serves this key
};

struct WorkerState {
  LoadGenReport report;
  // This worker's clients' fetches in trace order: (plan index, client id).
  std::vector<std::pair<size_t, uint64_t>> sends;
  std::vector<int> fds;  // one keep-alive connection per target, lazy
};

}  // namespace

double LoadGenReport::HitRate() const {
  if (responses == 0) return 0.0;
  uint64_t origin = 0;
  if (auto it = sources.find("origin"); it != sources.end()) {
    origin = it->second;
  }
  return 1.0 - static_cast<double>(origin) / static_cast<double>(responses);
}

double LoadGenReport::Throughput() const {
  if (wall_seconds <= 0) return 0.0;
  return static_cast<double>(responses) / wall_seconds;
}

Result<LoadGenReport> RunLoadGen(const LoadGenConfig& config,
                                 const workload::Trace& trace) {
  if (config.targets.empty() || config.workers < 1) {
    return Status::InvalidArgument("loadgen needs a target and a worker");
  }
  HashRing ring(config.ring_replicas);
  std::unordered_map<std::string, size_t> target_of;
  for (size_t i = 0; i < config.targets.size(); ++i) {
    ring.AddNode(config.targets[i].node_name);
    target_of[config.targets[i].node_name] = i;
  }
  // Resolve each distinct URL once (URL parse + ring routing) and deal the
  // fetches out by client id, so the closed loop stays send/recv-bound and
  // a bad trace is refused before the first byte goes out.
  std::vector<WorkerState> workers(static_cast<size_t>(config.workers));
  std::vector<RequestPlan> plans;
  std::unordered_map<std::string_view, size_t> plan_of;
  for (const workload::TraceEvent& ev : trace.events()) {
    if (ev.kind != workload::TraceEvent::Kind::kFetch) {
      return Status::InvalidArgument("loadgen sends only fetches, not the "
                                     "trace's write to " + ev.record_id);
    }
    auto [it, inserted] = plan_of.try_emplace(ev.url, plans.size());
    if (inserted) {
      auto url = http::Url::Parse(ev.url);
      if (!url.ok()) {
        return Status::InvalidArgument("unparseable trace URL: " + ev.url);
      }
      std::string target = url->path();
      if (!url->query().empty()) target += "?" + url->query();
      plans.push_back(
          {std::move(target), url->host(),
           target_of.at(std::string(ring.NodeFor(url->CacheKey())))});
    }
    workers[ev.client_id % workers.size()].sends.push_back(
        {it->second, ev.client_id});
  }

  auto run_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (size_t w = 0; w < workers.size(); ++w) {
    threads.emplace_back([&, w] {
      WorkerState& state = workers[w];
      LoadGenReport& rep = state.report;
      state.fds.assign(config.targets.size(), -1);
      std::string buf;

      for (const auto& [plan_index, client_id] : state.sends) {
        const RequestPlan& plan = plans[plan_index];
        int& fd = state.fds[plan.target_index];
        if (fd < 0) {
          const LoadGenTarget& t = config.targets[plan.target_index];
          fd = TcpConnect(t.host, t.port, kConnectTimeoutMs);
          if (fd < 0) {
            rep.requests++;
            rep.transport_errors++;
            continue;
          }
          MakeBlocking(fd);
        }

        http::HeaderMap headers;
        headers.Set("Host", plan.host);
        headers.Set("X-SpeedKit-Client", std::to_string(client_id));
        std::string wire =
            SerializeRequest(http::Method::kGet, plan.target, headers);

        rep.requests++;
        auto t0 = std::chrono::steady_clock::now();
        if (!SendAll(fd, wire)) {
          rep.transport_errors++;
          ::close(fd);
          fd = -1;
          continue;
        }

        WireResponse resp;
        bool got = false;
        buf.clear();
        while (true) {
          size_t consumed = 0;
          ParseStatus st = ParseResponse(buf, &resp, &consumed);
          if (st == ParseStatus::kOk) {
            got = true;
            break;
          }
          if (st == ParseStatus::kError) break;
          char chunk[16 * 1024];
          ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
          if (n <= 0) break;  // timeout, reset, or EOF mid-response
          buf.append(chunk, static_cast<size_t>(n));
        }
        if (!got) {
          rep.transport_errors++;
          ::close(fd);
          fd = -1;
          continue;
        }

        auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0);
        rep.responses++;
        rep.wall_latency_us.Add(elapsed.count());
        if (resp.status_code >= 500) {
          rep.errors_5xx++;
        } else if (resp.status_code >= 400) {
          rep.errors_4xx++;
        }
        if (auto src = resp.headers.Get("X-SpeedKit-Source")) {
          rep.sources[std::string(*src)]++;
        }
        if (auto lat = resp.headers.Get("X-SpeedKit-Latency-Us")) {
          if (auto us = ParseInt64(*lat)) rep.predicted_us.Add(*us);
        }
        if (!resp.keep_alive) {
          ::close(fd);
          fd = -1;
        }
      }
      for (int& fd : state.fds) {
        if (fd >= 0) ::close(fd);
        fd = -1;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  LoadGenReport total;
  for (const WorkerState& state : workers) {
    const LoadGenReport& r = state.report;
    total.requests += r.requests;
    total.responses += r.responses;
    total.errors_4xx += r.errors_4xx;
    total.errors_5xx += r.errors_5xx;
    total.transport_errors += r.transport_errors;
    for (const auto& [name, n] : r.sources) total.sources[name] += n;
    total.wall_latency_us.Merge(r.wall_latency_us);
    total.predicted_us.Merge(r.predicted_us);
  }
  total.wall_seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - run_start)
          .count();
  return total;
}

}  // namespace speedkit::net
