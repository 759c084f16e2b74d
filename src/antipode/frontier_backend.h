// Okapi-style hybrid stabilization enforcement (DESIGN.md §12). Instead of
// one wait per dependency, the barrier folds its dependencies into a single
// HLC cut — the maximum stamp among the writes that supersede them — and
// waits, per involved ⟨store, region⟩, for the store's stabilization frontier
// to pass the cut (StoreVisibility::FrontierCovers). Soundness rests on two
// invariants the store layer maintains:
//   * stamps are monotone in each store's sequence numbers (seq and HLC are
//     assigned under one lock), so F(r) ≥ c proves every write stamped ≤ c
//     has applied at r;
//   * stamps are process-wide monotone (one HlcClock), so an idle store whose
//     region applied everything it ever issued can never hide a write below
//     any already-computed cut (the caught-up rule).
//
// Dependencies the cut cannot cover — stores without a frontier (foreign
// shims, caching disabled) or keys whose stamp the cache no longer knows —
// fall back to the lineage backend's batched per-dependency waits, so a mixed
// deployment degrades gracefully rather than failing.

#ifndef SRC_ANTIPODE_FRONTIER_BACKEND_H_
#define SRC_ANTIPODE_FRONTIER_BACKEND_H_

#include <functional>
#include <string_view>
#include <vector>

#include "src/antipode/enforcement.h"

namespace antipode {

class StableFrontierBackend : public EnforcementBackend {
 public:
  std::string_view name() const override { return "stable_frontier"; }

  // Frontier waits are inherently batched; Launch never blocks the caller.
  Status Launch(const Lineage& lineage, const std::vector<Region>& regions, TimePoint deadline,
                const BarrierOptions& options, std::function<void(Status)> done,
                bool* memoizable) override;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_FRONTIER_BACKEND_H_
