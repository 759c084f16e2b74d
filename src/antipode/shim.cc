#include "src/antipode/shim.h"

#include "src/obs/metrics.h"

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

size_t PruneVisibleEverywhere(Lineage& lineage, const ShimRegistry& registry) {
  Lineage::DepVector& deps = lineage.deps_;
  if (deps.empty()) {
    return 0;
  }
  // Stores are contiguous in the sorted vector: one registry lookup per store
  // run, then a per-dependency probe. Compact in place.
  Shim* shim = nullptr;
  const std::string* current_store = nullptr;
  auto keep = deps.begin();
  for (auto& dep : deps) {
    if (current_store == nullptr || dep.store != *current_store) {
      current_store = &dep.store;
      shim = registry.Lookup(dep.store);
    }
    if (shim != nullptr) {
      // Narrow the locality scope region by region: a bit clears when the
      // store has no replica there (nothing of this write is readable at that
      // region) or the shim probes the write visible there. Visibility is
      // monotone, so a cleared bit stays sound forever; a scope narrowed to
      // zero is the per-dependency form of "visible everywhere" — drop it.
      RegionMask scope = dep.scope & shim->region_scope();
      for (int r = 0; r < kNumRegions; ++r) {
        const Region region = static_cast<Region>(r);
        if ((scope & RegionBit(region)) != 0 && shim->IsVisible(region, dep)) {
          scope = static_cast<RegionMask>(scope & ~RegionBit(region));
        }
      }
      if (scope == 0) {
        continue;  // prune
      }
      dep.scope = scope;
    }
    if (&*keep != &dep) {
      *keep = std::move(dep);
      if (current_store == &dep.store) {
        current_store = &keep->store;  // the run's name moved with the dependency
      }
    }
    ++keep;
  }
  const size_t pruned = static_cast<size_t>(deps.end() - keep);
  deps.erase(keep, deps.end());
  if (pruned != 0) {
    static Counter* const pruned_deps = MetricsRegistry::Default().GetCounter("lineage.pruned_deps");
    pruned_deps->Increment(pruned);
  }
  return pruned;
}

}  // namespace antipode
