#include "proxy/client_pool.h"

namespace speedkit::proxy {

ClientPool::ClientPool(const ClientPoolConfig& config, const ProxyDeps& deps)
    : config_(config), deps_(deps) {
  deps_.stats_sink = &sink_;
}

ClientProxy* ClientPool::MakeClient(const ProxyConfig& config,
                                    uint64_t client_id) {
  return clients_.Emplace(config, client_id, deps_);
}

size_t ClientPool::SpillIdle(SimTime now) {
  ++sweeps_;
  if (!spill_enabled()) return 0;
  size_t frozen = 0;
  clients_.ForEach([&](ClientProxy& client) {
    if (client.browser_cache_frozen()) return;
    if (now - client.last_active() < kSpillIdleThreshold) return;
    uint64_t before = client.freeze_count();
    client.FreezeBrowserCache();
    // FreezeBrowserCache declines pristine caches; only count real spills.
    frozen += client.freeze_count() - before;
  });
  return frozen;
}

ClientPoolSpillStats ClientPool::SpillStats() const {
  ClientPoolSpillStats out;
  out.sweeps = sweeps_;
  clients_.ForEach([&](const ClientProxy& client) {
    out.freezes += client.freeze_count();
    out.thaws += client.thaw_count();
    if (client.browser_cache_frozen()) {
      ++out.frozen_clients;
      out.frozen_bytes += client.frozen_bytes();
    }
  });
  return out;
}

}  // namespace speedkit::proxy
