// The three benchmark workloads, each a Bed over product-default paths only:
// private stores + shims + a private ShimRegistry, lineage-backend barriers
// with every BarrierOptions field at its default (parallel waits, visibility
// cache on, locality scope on), the shared TimerService, and LineageApi in
// its default mode.
//
//   post_notif     §7.2 post-notification: EU writer does a KvStore post
//                  write plus a PubSub publish; a US subscriber runs a
//                  region-local barrier on the notification's lineage, then
//                  reads the post through the shim. Fresh key per request.
//   mesh_deep      LiveMesh over the default trace-mesh topology (admitted
//                  Alibaba-calibrated plans, 20–55 stateful calls, depth
//                  ≥ 5); writer side on the client thread, terminal barrier +
//                  read at US on a reader pool.
//   timeline_read  One post write (post + timeline entry on a KvStore
//                  replicated across EU/US/SG) per 16 reads; each read decodes
//                  a recent post's stored lineage, runs a region-local barrier
//                  at US or SG, and reads the post through the shim.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/src/loadgen.h"
#include "src/antipode/lineage.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  double nominal_rate;           // open-loop arrivals/s (about half of capacity)
  uint32_t saturation_outstanding;  // closed-loop requests in flight
  double warmup_s;               // open-loop warm-up inside each set-up
};

// nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

class Workload : public Bed {
 public:
  // Per-barrier-site accounting since the last ResetSiteCounters.
  struct SiteCounters {
    uint64_t sites = 0;
    uint64_t metadata_bytes = 0;  // EnforcementMetadataBytes at the barrier site
    uint64_t deps = 0;
  };
  SiteCounters site_counters() const;
  void ResetSiteCounters();

  // Captures up to `limit` request-context blobs (at the end of the writer
  // side) and serialized barrier-site lineages for the replay pass.
  void StartCapture(size_t limit);
  std::vector<std::string> TakeContexts();
  std::vector<std::string> TakeLineages();

 protected:
  void RecordBarrierSite(const antipode::Lineage& lineage);
  void CaptureCurrentContext();

 private:
  std::atomic<uint64_t> sites_{0};
  std::atomic<uint64_t> metadata_bytes_{0};
  std::atomic<uint64_t> deps_{0};

  std::atomic<size_t> capture_limit_{0};
  std::mutex capture_mu_;
  std::vector<std::string> contexts_;  // guarded by capture_mu_
  std::vector<std::string> lineages_;  // guarded by capture_mu_
};

// Builds the workload's stores/topology with store names made unique by
// `tag` (every set-up starts cold). Includes any pre-population the workload
// needs before its first request (timeline history).
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& tag);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
