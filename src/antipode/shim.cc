#include "src/antipode/shim.h"

namespace antipode {

ThreadPool& Shim::BlockingWaitPool() {
  static auto* pool = new ThreadPool(16, "shim-wait");
  return *pool;
}

void Shim::WaitFrontierAsync(Region region, uint64_t cut_hlc, TimePoint deadline,
                             WaitCallback done) {
  (void)region;
  (void)cut_hlc;
  (void)deadline;
  done(Status::Unimplemented("shim does not publish a stabilization frontier: " + store_name()));
}

void Shim::WaitManyAsync(Region region, std::span<const WriteId> ids, TimePoint deadline,
                         WaitCallback done) {
  if (ids.empty()) {
    done(Status::Ok());
    return;
  }
  // Default adapter: fan out to per-id WaitAsync and gather. The launch token
  // (pending starts at ids.size() + 1) keeps `done` from firing while waits
  // are still being issued.
  struct Gather {
    std::atomic<size_t> pending;
    std::mutex mu;
    Status first_error = Status::Ok();
    WaitCallback done;
    explicit Gather(size_t n) : pending(n) {}
    void Complete(Status status) {
      if (!status.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = std::move(status);
      }
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        Status final = Status::Ok();
        {
          std::lock_guard<std::mutex> lock(mu);
          final = first_error;
        }
        done(std::move(final));
      }
    }
  };
  auto gather = std::make_shared<Gather>(ids.size() + 1);
  gather->done = std::move(done);
  for (const WriteId& id : ids) {
    WaitAsync(region, id, deadline,
              [gather](Status status) { gather->Complete(std::move(status)); });
  }
  gather->Complete(Status::Ok());  // release the launch token
}

std::string_view EnforcementBackendKindName(EnforcementBackendKind kind) {
  switch (kind) {
    case EnforcementBackendKind::kInherit:
      return "inherit";
    case EnforcementBackendKind::kLineage:
      return "lineage";
    case EnforcementBackendKind::kStableFrontier:
      return "stable_frontier";
  }
  return "unknown";
}

ShimRegistry& ShimRegistry::Default() {
  static auto* registry = new ShimRegistry();
  return *registry;
}

Status ShimRegistry::Register(Shim* shim) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = shims_.emplace(shim->store_name(), shim);
  if (!inserted) {
    if (!options_.allow_replace) {
      return Status::AlreadyExists("shim already registered for store: " + shim->store_name());
    }
    it->second = shim;
  }
  return Status::Ok();
}

void ShimRegistry::Unregister(const std::string& store_name) {
  std::lock_guard<std::mutex> lock(mu_);
  shims_.erase(store_name);
}

Shim* ShimRegistry::Lookup(const std::string& store_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = shims_.find(store_name);
  return it == shims_.end() ? nullptr : it->second;
}

void ShimRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  shims_.clear();
}

std::vector<std::string> ShimRegistry::RegisteredStores() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(shims_.size());
  for (const auto& [name, shim] : shims_) {
    out.push_back(name);
  }
  return out;
}

void ShimRegistry::ForEach(const std::function<void(Shim*)>& fn) const {
  // Snapshot under the lock, call outside it: `fn` may complete waits inline
  // (e.g. an already-covered frontier wait) and those completions must not run
  // under the registry mutex.
  std::vector<Shim*> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.reserve(shims_.size());
    for (const auto& [name, shim] : shims_) {
      snapshot.push_back(shim);
    }
  }
  for (Shim* shim : snapshot) {
    fn(shim);
  }
}

}  // namespace antipode
