// Antipode's native enforcement strategy: per-dependency waits on the
// stores' replication watermarks, grouped by ⟨store, region⟩, gathered at one
// shared deadline (paper §6.3). Behaviour extracted verbatim from the
// pre-strategy barrier implementation — this is the reference backend the
// XCY checker and tier-1 suites pin down.

#ifndef SRC_ANTIPODE_LINEAGE_BACKEND_H_
#define SRC_ANTIPODE_LINEAGE_BACKEND_H_

#include <functional>
#include <string_view>
#include <vector>

#include "src/antipode/enforcement.h"

namespace antipode {

class LineageBarrierBackend : public EnforcementBackend {
 public:
  std::string_view name() const override { return "lineage"; }

  Status Launch(const Lineage& lineage, const std::vector<Region>& regions, TimePoint deadline,
                const BarrierOptions& options, std::function<void(Status)> done,
                bool* memoizable) override;
};

}  // namespace antipode

#endif  // SRC_ANTIPODE_LINEAGE_BACKEND_H_
