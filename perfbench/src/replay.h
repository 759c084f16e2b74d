// Replay pass of the traced run: feeds the request contexts and lineages the
// traced window captured back into one layer's public function at a time,
// single-threaded, after the workload's bed is torn down. Model sleeps are
// switched off (TimeScale 0) for the duration so each figure is the layer's
// CPU cost, not the simulated WAN/replication delay it would also wait out.

#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <string>
#include <vector>

namespace perfbench {

struct ReplayInput {
  std::vector<std::string> contexts;  // serialized RequestContext blobs
  std::vector<std::string> lineages;  // serialized barrier-site lineages
  double mean_deps = 1.0;             // dependencies per barrier site
};

// Medians of per-operation time (ns) and mean allocations per operation.
struct ReplayResult {
  double rpc_hop_ns = 0;
  double rpc_hop_allocs = 0;
  double context_hop_ns = 0;
  double context_hop_allocs = 0;
  double context_blob_bytes = 0;
  double lineage_encode_ns = 0;
  double lineage_decode_ns = 0;
  double lineage_decode_allocs = 0;
  double shim_write_ns = 0;
  double shim_write_allocs = 0;
  double shim_read_ns = 0;
  double store_put_ns = 0;
  double store_put_allocs = 0;
  double barrier_probe_ns = 0;
  double cache_probe_ns = 0;
};

// `tag` makes the replay stores' names unique in the process.
ReplayResult RunReplays(const ReplayInput& input, const std::string& tag);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
