#include "socket_workload.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <deque>
#include <exception>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "http/url.h"
#include "net/edged_server.h"
#include "net/http_codec.h"
#include "net/net_metric_names.h"
#include "net/tcp_listener.h"
#include "probes.h"

namespace perfbench {

namespace sk = speedkit;

namespace {

enum Source : uint8_t { kBrowser, kEdge, kOrigin, kOtherSource, kNoResponse };

// How long a phase may wait for its last responses after its last due time.
constexpr int64_t kDrainLimitNs = 5'000'000'000;
// Pause between phases, and before the first one.
constexpr int64_t kPhaseGapNs = 50'000'000;
// Set-ups per run; setup_s is their median. The first few run on a cold
// heap and are slower; with this many the median lies past them.
constexpr int kSetups = 21;
constexpr size_t kBufferReserve = 1 << 20;

struct Outcome {
  float wall_us = std::numeric_limits<float>::infinity();  // from due time
  float lag_us = 0;        // how late the generator sent it
  int32_t model_us = -1;   // X-SpeedKit-Latency-Us
  uint32_t bytes_in = 0;   // response bytes on the wire
  Source source = kNoResponse;  // any parsed response sets it
  bool failed = true;      // no response, a transport error or a 5xx
  bool status_5xx = false;
};

struct GenConn {
  int fd = -1;
  std::string out;
  size_t out_off = 0;
  std::string in;
  size_t in_off = 0;
  std::deque<uint32_t> fifo;  // requests sent, responses pending
};

struct GenThread {
  GenConn conn;
  std::vector<uint32_t> plan;       // the phase's requests, in due order
  std::vector<uint64_t> bytes_out;  // per phase
  uint64_t transport_errors = 0;
};

struct PhaseVerdict {
  double rate = 0;
  double p50_us = 0;
  double p99_us = 0;   // median over the phase's slices
  double lag_p99_us = 0;
  size_t slices = 0;
  uint64_t requests = 0;
  uint64_t missing = 0;
  uint64_t responses = 0;  // parsed responses, 5xx included
  uint64_t status_5xx = 0;
  bool passed = false;
};

Source SourceOf(std::string_view name) {
  if (name == "browser") return kBrowser;
  if (name == "edge") return kEdge;
  if (name == "origin") return kOrigin;
  return kOtherSource;
}

// Room for a phase's Poisson request count: its mean plus six standard
// deviations.
size_t PhaseCapacity(const SocketPhase& phase) {
  const double mean =
      phase.rate * static_cast<double>(phase.duration_ns) / 1e9;
  return static_cast<size_t>(mean + 6 * std::sqrt(mean)) + 64;
}

class Generator {
 public:
  // Holds one phase's requests at a time; the first phase is ready on
  // return, and each later one is generated in the pause before it.
  Generator(const SocketSpec& spec, uint64_t seed, size_t threads,
            double seconds)
      : spec_(spec), seed_(seed), phases_(SocketPhases(spec, seconds)),
        slice_ns_(std::max<int64_t>(
            1, static_cast<int64_t>(spec.slice_share * seconds * 1e9))),
        threads_(threads) {
    // Buffers sized for the largest phase up front, so they never grow
    // inside the run and the heap metric never counts them.
    size_t capacity = 0;
    for (const SocketPhase& p : phases_) {
      capacity = std::max(capacity, PhaseCapacity(p));
    }
    requests_.reserve(capacity);
    outcomes_.reserve(capacity);
    for (GenThread& t : threads_) {
      t.plan.reserve(capacity / threads_.size() + 1);
      t.bytes_out.assign(phases_.size(), 0);
      t.conn.out.reserve(kBufferReserve);
      t.conn.in.reserve(kBufferReserve);
    }
    for (size_t rank = 0; rank < spec.products; ++rank) {
      sk::http::HeaderMap headers;
      headers.Set("Host", "shop.example.com");
      std::string wire = sk::net::SerializeRequest(
          sk::http::Method::kGet, "/api/records/p" + std::to_string(rank),
          headers);
      wire.resize(wire.size() - 2);  // reopen the header block
      wire_prefix_.push_back(wire + "X-SpeedKit-Client: ");
    }
    phase_start_.resize(phases_.size());
    verdicts_.resize(phases_.size());
    ran_.assign(phases_.size(), false);
    Prepare(0);
  }

  ~Generator() { Disconnect(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool Connect(uint16_t port) {
    port_ = port;
    for (GenThread& t : threads_) {
      t.conn.fd = sk::net::TcpConnect("127.0.0.1", port_, 2000);
      if (t.conn.fd < 0) return false;
    }
    return true;
  }

  void Disconnect() {
    for (GenThread& t : threads_) {
      if (t.conn.fd >= 0) ::close(t.conn.fd);
      t.conn.fd = -1;
    }
  }

  // Runs the warm-up, the reference phase and the ladder passes;
  // `on_reference_done` runs on one thread while every generator thread
  // waits at the end of the reference phase.
  template <typename Fn>
  void Run(Fn on_reference_done) {
    const std::vector<SocketPhase>& phases = phases_;
    auto completion = [this, &phases, &on_reference_done]() noexcept {
      const size_t p = current_phase_;
      Verdict(p);
      ran_[p] = true;
      if (p == kReferencePhase) on_reference_done();
      size_t next = p + 1;
      if (phases[p].pass >= 0 && !verdicts_[p].passed) {
        // Skip the rest of this pass.
        while (next < phases.size() && phases[next].pass == phases[p].pass) {
          ++next;
        }
      }
      if (next >= phases.size()) {
        stop_ = true;
        return;
      }
      Prepare(next);
      current_phase_ = next;
      phase_start_[next] = Clock::now() + std::chrono::nanoseconds(kPhaseGapNs);
    };
    std::barrier sync(static_cast<std::ptrdiff_t>(threads_.size()),
                      completion);
    current_phase_ = 0;
    phase_start_[0] = Clock::now() + std::chrono::nanoseconds(kPhaseGapNs);
    const Clock::time_point window_start = phase_start_[0];
    auto body = [&](size_t t) {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      try {
        while (true) {
          // current_phase_ and phase_start_ change only in the barrier's
          // completion step, which happens before any thread resumes.
          const size_t p = current_phase_;
          RunPhase(threads_[t], p, phase_start_[p]);
          sync.arrive_and_wait();
          if (stop_) break;
        }
      } catch (const std::exception& e) {
        // Leave the barrier so the other threads finish; this thread's
        // unanswered requests stay failed.
        std::fprintf(stderr, "perfbench: generator thread %zu: %s\n", t,
                     e.what());
        thread_errors_++;
        sync.arrive_and_drop();
      }
    };
    std::vector<std::thread> helpers;
    for (size_t t = 1; t < threads_.size(); ++t) helpers.emplace_back(body, t);
    body(0);
    for (std::thread& h : helpers) h.join();
    window_seconds_ = SecondsSince(window_start);
  }

  // The requests and outcomes of the phase that ran last.
  const std::vector<SocketRequest>& requests() const { return requests_; }
  const std::vector<Outcome>& outcomes() const { return outcomes_; }
  const std::vector<SocketPhase>& phases() const { return phases_; }
  const std::vector<PhaseVerdict>& verdicts() const { return verdicts_; }
  bool ran(size_t phase) const { return ran_[phase]; }
  // Digest of the requests of every phase that ran.
  uint64_t digest() const { return digest_; }
  double window_seconds() const { return window_seconds_; }
  uint64_t thread_errors() const { return thread_errors_; }
  uint64_t transport_errors() const {
    uint64_t n = 0;
    for (const GenThread& t : threads_) n += t.transport_errors;
    return n;
  }
  uint64_t bytes_out(size_t phase) const {
    uint64_t n = 0;
    for (const GenThread& t : threads_) n += t.bytes_out[phase];
    return n;
  }

 private:
  // Generates phase p's requests and deals them out to the threads.
  void Prepare(size_t p) {
    SocketPhaseRequests(spec_, phases_[p], p, seed_, &requests_);
    digest_ = MixPhase(digest_, phases_[p], requests_);
    outcomes_.assign(requests_.size(), Outcome{});
    for (GenThread& t : threads_) t.plan.clear();
    for (size_t r = 0; r < requests_.size(); ++r) {
      threads_[r % threads_.size()].plan.push_back(static_cast<uint32_t>(r));
    }
  }

  // Drops the connection and its pending requests (they stay failed), then
  // reconnects.
  void Fail(GenThread& t, size_t* outstanding) {
    GenConn& c = t.conn;
    t.transport_errors++;
    *outstanding -= c.fifo.size();
    c.fifo.clear();
    if (c.fd >= 0) ::close(c.fd);
    c.out.clear();
    c.out_off = 0;
    c.in.clear();
    c.in_off = 0;
    c.fd = sk::net::TcpConnect("127.0.0.1", port_, 2000);
  }

  void RunPhase(GenThread& t, size_t p, Clock::time_point start) {
    const std::vector<uint32_t>& plan = t.plan;
    const std::vector<SocketRequest>& reqs = requests_;
    const int64_t last_due = plan.empty() ? 0 : reqs[plan.back()].due_ns;
    GenConn& c = t.conn;
    size_t next = 0;
    size_t outstanding = 0;
    char chunk[64 * 1024];
    while (true) {
      int64_t now = NanosSince(start);
      while (next < plan.size() && reqs[plan[next]].due_ns <= now) {
        const uint32_t r = plan[next++];
        const SocketRequest& req = reqs[r];
        outcomes_[r].lag_us = static_cast<float>(now - req.due_ns) / 1e3f;
        if (c.fd < 0) continue;  // stays failed
        const size_t before = c.out.size();
        c.out += wire_prefix_[req.product];
        c.out += std::to_string(req.identity);
        c.out += "\r\n\r\n";
        t.bytes_out[p] += c.out.size() - before;
        c.fifo.push_back(r);
        outstanding++;
      }
      if (c.fd >= 0 && c.out_off < c.out.size()) {
        ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                           c.out.size() - c.out_off,
                           MSG_DONTWAIT | MSG_NOSIGNAL);
        if (n > 0) {
          c.out_off += static_cast<size_t>(n);
          if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
          }
        } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
          Fail(t, &outstanding);
        }
      }
      if (next == plan.size() && outstanding == 0) break;
      if (next == plan.size() && now > last_due + kDrainLimitNs) {
        Fail(t, &outstanding);
        break;
      }

      int64_t wait_ns = next < plan.size() ? reqs[plan[next]].due_ns - now
                                           : last_due + kDrainLimitNs - now;
      wait_ns = std::clamp<int64_t>(wait_ns, 0, 10'000'000);
      pollfd pfd{c.fd,
                 static_cast<short>(
                     POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)),
                 0};
      timespec ts{0, static_cast<long>(wait_ns)};
      if (::ppoll(&pfd, 1, &ts, nullptr) <= 0 ||
          (pfd.revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
        continue;
      }
      bool broken = false;
      while (true) {
        ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (n > 0) {
          c.in.append(chunk, static_cast<size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EINTR)) broken = true;
        break;
      }
      const float recv_us = static_cast<float>(NanosSince(start)) / 1e3f;
      while (!c.fifo.empty()) {
        sk::net::WireResponse resp;
        size_t consumed = 0;
        sk::net::ParseStatus st = sk::net::ParseResponse(
            std::string_view(c.in).substr(c.in_off), &resp, &consumed);
        if (st == sk::net::ParseStatus::kNeedMore) break;
        if (st == sk::net::ParseStatus::kError) {
          broken = true;
          break;
        }
        c.in_off += consumed;
        const uint32_t r = c.fifo.front();
        c.fifo.pop_front();
        outstanding--;
        Outcome& o = outcomes_[r];
        o.wall_us = recv_us - static_cast<float>(reqs[r].due_ns) / 1e3f;
        o.bytes_in = static_cast<uint32_t>(consumed);
        o.status_5xx = resp.status_code >= 500;
        o.failed = o.status_5xx;
        o.source = kOtherSource;
        if (auto src = resp.headers.Get("X-SpeedKit-Source")) {
          o.source = SourceOf(*src);
        }
        if (auto lat = resp.headers.Get("X-SpeedKit-Latency-Us")) {
          if (auto us = sk::ParseInt64(*lat)) {
            o.model_us = static_cast<int32_t>(*us);
          }
        }
      }
      if (c.in_off == c.in.size()) {
        c.in.clear();
        c.in_off = 0;
      } else if (c.in_off > kBufferReserve / 2) {
        c.in.erase(0, c.in_off);
        c.in_off = 0;
      }
      if (broken) Fail(t, &outstanding);
    }
  }

  // A phase's p99 from due time, as the median of the p99s of its slices
  // (spec.slice_share of the run each): a stall of the shared host spoils
  // one slice, not the verdict. A request without a good response counts as
  // missing the limit.
  void Verdict(size_t p) {
    const SocketPhase& phase = phases_[p];
    PhaseVerdict& v = verdicts_[p];
    v.rate = phase.rate;
    v.requests = outcomes_.size();
    std::vector<double> all, lag;
    all.reserve(outcomes_.size());
    lag.reserve(outcomes_.size());
    for (const Outcome& o : outcomes_) {
      v.missing += o.failed;
      v.responses += o.source != kNoResponse;
      v.status_5xx += o.status_5xx;
      all.push_back(o.failed ? std::numeric_limits<double>::infinity()
                             : o.wall_us);
      lag.push_back(o.lag_us);
    }
    v.p50_us = Quantile(all, 0.50);
    v.lag_p99_us = Quantile(lag, 0.99);
    std::vector<std::vector<double>> slices(
        std::max<size_t>(1, static_cast<size_t>(std::round(
                                static_cast<double>(phase.duration_ns) /
                                static_cast<double>(slice_ns_)))));
    for (size_t r = 0; r < outcomes_.size(); ++r) {
      const Outcome& o = outcomes_[r];
      size_t slice = std::min(
          slices.size() - 1,
          static_cast<size_t>(requests_[r].due_ns / slice_ns_));
      slices[slice].push_back(o.failed ? std::numeric_limits<double>::infinity()
                                       : o.wall_us);
    }
    std::vector<double> p99s;
    for (std::vector<double>& slice : slices) {
      if (!slice.empty()) p99s.push_back(Quantile(slice, 0.99));
    }
    v.slices = p99s.size();
    v.p99_us = Median(p99s);
    v.passed = v.missing == 0 && v.p99_us <= spec_.p99_limit_us;
  }

  const SocketSpec& spec_;
  const uint64_t seed_;
  const std::vector<SocketPhase> phases_;
  int64_t slice_ns_;
  uint16_t port_ = 0;
  std::vector<SocketRequest> requests_;  // the current phase's
  std::vector<Outcome> outcomes_;        // one per request
  uint64_t digest_ = kFnvBasis;
  std::vector<GenThread> threads_;
  std::vector<std::string> wire_prefix_;
  std::vector<Clock::time_point> phase_start_;
  std::vector<PhaseVerdict> verdicts_;
  std::vector<bool> ran_;
  std::atomic<uint64_t> thread_errors_{0};
  size_t current_phase_ = 0;
  bool stop_ = false;
  double window_seconds_ = 0;
};

// The rate at which one ladder pass's p99 crosses the limit: log-linear
// between its last passing step (or the reference phase) and its first
// failing step. A pass that never fails reports its top rate and sets
// *exhausted; when even the reference phase missed the limit, its rate is
// scaled down by how far it missed.
double PassRateAtLimit(const std::vector<SocketPhase>& phases,
                       const std::vector<PhaseVerdict>& verdicts,
                       const Generator& gen, int pass, double limit_us,
                       bool* exhausted) {
  const PhaseVerdict& ref = verdicts[kReferencePhase];
  const PhaseVerdict* ok = ref.passed ? &ref : nullptr;
  const PhaseVerdict* fail = nullptr;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (phases[p].pass != pass || !gen.ran(p)) continue;
    if (!verdicts[p].passed) {
      fail = &verdicts[p];
      break;
    }
    ok = &verdicts[p];
  }
  if (fail == nullptr) {
    *exhausted = true;
    return ok != nullptr ? ok->rate : 0;
  }
  if (ok == nullptr) return ref.rate * Ratio(limit_us, ref.p99_us);
  if (!std::isfinite(fail->p99_us) || fail->p99_us <= ok->p99_us) {
    return ok->rate;
  }
  double f = (std::log(limit_us) - std::log(ok->p99_us)) /
             (std::log(fail->p99_us) - std::log(ok->p99_us));
  f = std::clamp(f, 0.0, 1.0);
  return ok->rate * std::pow(fail->rate / ok->rate, f);
}

sk::net::EdgedConfig ServerConfig(const SocketSpec& spec, uint64_t seed) {
  sk::net::EdgedConfig config;
  config.host = "127.0.0.1";
  config.port = 0;
  config.stack.seed = seed;
  config.stack.origin_flight = sk::cache::OriginFlightMode::kCoalesce;
  config.catalog.num_products = spec.products;
  return config;
}

// One edged node with its loop thread; stops and joins on destruction.
class Node {
 public:
  explicit Node(const sk::net::EdgedConfig& config) : server_(config) {}
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node() { Stop(); }

  bool Start() {
    if (!server_.Start()) return false;
    loop_ = std::thread([this] { server_.Run(); });
    return true;
  }
  void Stop() {
    if (!loop_.joinable()) return;
    server_.Stop();
    loop_.join();
  }
  sk::net::EdgedServer& server() { return server_; }

 private:
  sk::net::EdgedServer server_;
  std::thread loop_;
};

// `recent`: the requests of the phase that ran last.
void Probe(Node& node, const SocketSpec& spec,
           const std::vector<SocketRequest>& recent, Report* report) {
  sk::core::SpeedKitStack& stack = node.server().stack();
  sk::workload::CatalogConfig catalog_config;
  catalog_config.num_products = spec.products;
  sk::workload::Catalog catalog(catalog_config, sk::Pcg32(1));

  std::vector<std::string> hot_urls, cold_urls, query_urls;
  const size_t hot = std::min(spec.hot_products, spec.products);
  for (size_t rank = 0; rank < spec.products; ++rank) {
    (rank < hot ? hot_urls : cold_urls).push_back(catalog.ProductUrl(rank));
  }
  ProbeUrlParse(hot_urls, report);
  ProbeWireParse(hot_urls, report);

  // The listings the simulated workloads serve, for the origin and write
  // probes (edged registers none itself).
  for (int c = 0; c < catalog.num_categories(); ++c) {
    stack.origin().RegisterQuery(catalog.CategoryQuery(c));
    stack.pipeline()->WatchQuery(catalog.CategoryQuery(c),
                                 catalog.CategoryUrl(c));
    query_urls.push_back(catalog.CategoryUrl(c));
  }

  // Probe clients warmed with the stream's most recent product requests.
  constexpr int kWarmClients = 8;
  constexpr uint64_t kFirstWarmClient = 1u << 31;
  std::vector<std::unique_ptr<sk::proxy::ClientProxy>> clients;
  ProbeTargets targets;
  for (int c = 0; c < kWarmClients; ++c) {
    clients.push_back(stack.MakeClient(kFirstWarmClient + c));
  }
  for (size_t k = recent.size();
       k-- > 0 && targets.warm.size() < kProbeKeys;) {
    sk::proxy::ClientProxy* client = clients[k % kWarmClients].get();
    const std::string& url = hot_urls[recent[k].product % hot_urls.size()];
    client->Fetch(url);
    targets.warm.push_back({client, url});
  }
  targets.record_urls = hot_urls;
  targets.query_urls = query_urls;
  ProbeCaches(stack, targets, report);
  ProbeFetchTiers(stack, cold_urls, hot_urls, report);
  ProbeOrigin(stack, targets, report);
  ProbeSketch(stack, report);
  ProbeWrites(stack, catalog, report);
}

}  // namespace

void RunSocketWorkload(const SocketSpec& spec, const RunOptions& options,
                       Report* report) {
  const size_t cpus = sk::ThreadPool::AvailableCpus();
  const size_t gen_threads = cpus > 1 ? cpus - 1 : 1;
  report->Info("spec.products", static_cast<double>(spec.products));
  report->Info("spec.hot_products", static_cast<double>(spec.hot_products));
  report->Info("spec.zipf_s", spec.zipf_s);
  report->Info("spec.identities", static_cast<double>(spec.identities));
  report->Info("spec.reference_rate", spec.reference_rate);
  report->Info("spec.ladder", spec.ladder);
  report->Info("spec.p99_limit_us", spec.p99_limit_us);
  report->Info("spec.loop",
               "open, Poisson arrivals, loopback TCP, HTTP/1.1 pipelining");
  report->Info("generator.threads", static_cast<double>(gen_threads));
  report->Info("generator.connections", static_cast<double>(gen_threads));
  report->Info("edged.loop_threads", 1);

  // Set-up, kSetups times over (the last node and generator stay for the
  // run): the generator (buffers, warm-up requests), the node (construction
  // with populate and warm-up, start) and the connections.
  std::vector<double> raw_setups, calibrations, setups;
  std::unique_ptr<Generator> gen;
  std::unique_ptr<Node> node;
  uint64_t heap_baseline = 0;
  for (int s = 0; s < kSetups; ++s) {
    gen.reset();
    node.reset();
    calibrations.push_back(CalibrationSeconds());
    const Clock::time_point t0 = Clock::now();
    gen = std::make_unique<Generator>(spec, options.seed, gen_threads,
                                      options.seconds);
    // The generator's buffers are the benchmark's own memory; the heap
    // metric counts what the node allocates from here on.
    heap_baseline = HeapBytesInUse();
    node = std::make_unique<Node>(ServerConfig(spec, options.seed));
    if (!node->Start()) {
      report->Check("edged_start", false, "could not bind a loopback port");
      return;
    }
    if (!gen->Connect(node->server().port())) {
      report->Check("edged_connect", false, "could not connect");
      return;
    }
    raw_setups.push_back(SecondsSince(t0));
    setups.push_back(AtReferenceSpeed(raw_setups.back(), calibrations.back()));
  }

  // The reference phase: latencies and model outcomes over a fixed
  // request stream, read while the generator waits after it.
  uint64_t heap_after_reference = 0, rss_after_reference = 0;
  std::vector<double> model, lag;
  uint64_t origin_serves = 0, bytes_in = 0, answered = 0;
  gen->Run([&] {
    heap_after_reference = HeapBytesInUse();
    rss_after_reference = PeakRssBytes();
    for (const Outcome& o : gen->outcomes()) {
      lag.push_back(o.lag_us);
      if (o.failed) continue;
      answered++;
      if (o.model_us >= 0) model.push_back(o.model_us);
      if (o.source == kOrigin) origin_serves++;
      bytes_in += o.bytes_in;
    }
  });
  gen->Disconnect();
  node->Stop();
  sk::net::EdgedServer& server = node->server();

  const std::vector<SocketPhase>& phases = gen->phases();
  const std::vector<PhaseVerdict>& verdicts = gen->verdicts();
  uint64_t attempted = 0, failed = 0, failed_5xx = 0, responses = 0;
  for (size_t p = 0; p < phases.size(); ++p) {
    if (!gen->ran(p)) continue;
    attempted += verdicts[p].requests;
    failed += verdicts[p].missing;
    failed_5xx += verdicts[p].status_5xx;
    responses += verdicts[p].responses;
  }
  report->Info("schedule.digest_of_phases_run", Hex(gen->digest()));
  report->Info("schedule.requests_run", static_cast<double>(attempted));
  bool ladder_exhausted = false;
  std::vector<double> pass_rates;
  for (int pass = 0; pass < spec.passes; ++pass) {
    pass_rates.push_back(PassRateAtLimit(phases, verdicts, *gen, pass,
                                         spec.p99_limit_us,
                                         &ladder_exhausted));
  }
  const double rps = Median(pass_rates);

  report->SetCounts(attempted, failed);
  report->Set("setup_s", "s", Median(setups), setups.size());
  report->Set("ops_per_s", "ops/s", rps, pass_rates.size());
  const PhaseVerdict& ref_verdict = verdicts[kReferencePhase];
  const uint64_t ref_n = ref_verdict.requests;
  report->Set("wall_p50_us", "us", ref_verdict.p50_us, ref_n);
  report->Set("wall_p99_us", "us", ref_verdict.p99_us, ref_n);
  report->Info("wall_p99_us.slices", static_cast<double>(ref_verdict.slices));
  const uint64_t model_n = model.size();
  report->Set("model_p50_ms", "ms", Quantile(model, 0.50) / 1e3, model_n);
  report->Set("model_p99_ms", "ms", Quantile(model, 0.99) / 1e3, model_n);
  report->Set("hit_ratio", "ratio",
              1.0 - Ratio(static_cast<double>(origin_serves),
                          static_cast<double>(answered)),
              answered);
  report->Set("heap_bytes_per_client", "B",
              Ratio(static_cast<double>(heap_after_reference > heap_baseline
                                            ? heap_after_reference -
                                                  heap_baseline
                                            : 0),
                    spec.identities));
  report->Set("peak_rss_mb", "MiB",
              static_cast<double>(rss_after_reference) / (1024.0 * 1024.0));
  report->Set("net_bytes_per_req", "B",
              Ratio(static_cast<double>(gen->bytes_out(kReferencePhase) +
                                        bytes_in),
                    static_cast<double>(answered)),
              answered);
  report->Set("failed_ratio", "ratio",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              attempted);
  report->Info("window.seconds", gen->window_seconds());
  report->Info("ladder.exhausted", ladder_exhausted ? "yes" : "no");
  report->Info("ladder.pass_rates", pass_rates);
  report->Info("setup.raw_samples_s", raw_setups);
  report->Info("setup.calibration_s", calibrations);
  for (size_t p = 0; p < phases.size(); ++p) {
    if (!gen->ran(p)) continue;
    const PhaseVerdict& v = verdicts[p];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "pass=%d rate=%.0f/s p50=%.1fus p99=%.1fus "
                  "lag_p99=%.1fus n=%llu missing=%llu %s",
                  phases[p].pass, v.rate, v.p50_us, v.p99_us, v.lag_p99_us,
                  static_cast<unsigned long long>(v.requests),
                  static_cast<unsigned long long>(v.missing),
                  v.passed ? "pass" : "FAIL");
    report->Info("phase." + std::to_string(p), buf);
  }

  // Correctness: a healthy node answers every request.
  const uint64_t net_responses =
      server.metrics().Find(sk::net::kNetResponses)->counter;
  report->Check("generator_threads", gen->thread_errors() == 0,
                std::to_string(gen->thread_errors()) +
                    " generator threads stopped early");
  report->Check("no_transport_errors", gen->transport_errors() == 0,
                std::to_string(gen->transport_errors()) + " transport errors");
  report->Check("no_5xx", failed_5xx == 0,
                std::to_string(failed_5xx) + " 5xx responses");
  report->Check("responses_match_net", responses == net_responses,
                std::to_string(responses) + " generator responses vs " +
                    std::to_string(net_responses) + " net.responses");
  const sk::proxy::ProxyStats& ps = server.proxy_stats();
  report->Check("served_total", ps.ServedTotal() == ps.requests,
                "ServedTotal " + std::to_string(ps.ServedTotal()) +
                    " vs requests " + std::to_string(ps.requests));

  if (!options.trace) return;

  // Per-layer numbers: the node's own counters, then probes.
  const sk::obs::Metric* handle = server.metrics().Find(sk::net::kNetHandleUs);
  report->Set("net.handle_us.p50", "us",
              static_cast<double>(handle->histogram.P50()),
              handle->histogram.count());
  report->Set("net.handle_us.p99", "us",
              static_cast<double>(handle->histogram.P99()),
              handle->histogram.count());
  const double bytes_out = static_cast<double>(
      server.metrics().Find(sk::net::kNetBytesOut)->counter);
  report->Set("net.bytes_out_per_resp", "B",
              Ratio(bytes_out, static_cast<double>(net_responses)),
              net_responses);
  const double leaders = static_cast<double>(
      server.metrics().Find(sk::net::kNetFlightLeaders)->counter);
  const double joins = static_cast<double>(
      server.metrics().Find(sk::net::kNetFlightJoins)->counter);
  report->Set("net.flight_join_ratio", "ratio", Ratio(joins, leaders + joins));
  report->SetPercentiles("edge.gen_lag_us", "us", std::move(lag));

  sk::core::SpeedKitStack& stack = server.stack();
  const double requests = static_cast<double>(ps.requests);
  report->Set("proxy.sketch_bypass_ratio", "ratio",
              Ratio(static_cast<double>(ps.sketch_bypasses), requests),
              ps.requests);
  const sk::cache::HttpCacheStats e = stack.cdn().TotalStats();
  report->Set("cache.edge_hit_ratio", "ratio",
              Ratio(static_cast<double>(e.fresh_hits),
                    static_cast<double>(e.fresh_hits + e.stale_hits +
                                        e.misses)),
              e.fresh_hits + e.stale_hits + e.misses);
  const sk::origin::OriginStats& os = stack.origin().stats();
  report->Set("origin.requests_per_req", "ratio",
              Ratio(static_cast<double>(os.requests), requests), ps.requests);
  report->Set("origin.render_cache_hit_ratio", "ratio",
              Ratio(static_cast<double>(os.render_cache_hits),
                    static_cast<double>(os.render_cache_hits +
                                        os.render_cache_misses)),
              os.render_cache_hits + os.render_cache_misses);
  report->Set("sketch.entries", "count",
              static_cast<double>(stack.sketch()->entries()));
  report->Set("sketch.snapshot_bytes", "B",
              static_cast<double>(stack.coherence_protocol()
                                      .publication()
                                      .Serialized(stack.clock().Now())
                                      ->size()));
  report->Set("sketch.refresh_bytes_per_req", "B",
              Ratio(static_cast<double>(ps.sketch_bytes), requests),
              ps.requests);
  const sk::sim::TimingWheelStats& wheel = stack.events().wheel_stats();
  report->Set("sim.wheel_cascades", "count",
              static_cast<double>(wheel.cascaded));
  report->Set("sim.events_per_op", "count",
              Ratio(static_cast<double>(wheel.fired), requests), ps.requests);
  Probe(*node, spec, gen->requests(), report);
}

}  // namespace perfbench
