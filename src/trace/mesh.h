// Trace mesh: materializes sampled CallGraphGenerator request graphs as a
// live topology — hundreds of stateless RPC services layered by call depth,
// stateful calls bound to real replicated stores behind Antipode shims — so
// the paper's core claim (bolt-on XCY enforcement stays cheap on real
// microservice shapes) can be stressed on graphs with ≥20 stateful calls and
// depth ≥5, which the five hand-written apps (2–6 stateful calls) never
// reach. The Palette/Ditto move: sample representative traces, run them.
//
// Two halves, split so determinism is testable without spinning up threads:
//   * BuildMeshTopology — pure function of MeshOptions. Samples graphs,
//     admits the deep ones, and rewrites every node to a mesh-local target:
//     a stateless node at depth d becomes live service ⟨layer d, slot
//     service mod width⟩ (layer-monotone edges keep the live call graph a
//     DAG, so blocking RPC chains can never deadlock on per-service pools);
//     a stateful node becomes a binding ⟨stateful id mod width⟩ → shared
//     store ⟨id mod num_stores⟩ with its own key namespace.
//   * LiveMesh — materializes a topology: one RpcService per mesh service
//     (handlers execute a plan subtree), one ReplicatedStore + shim per
//     store index, pre-resolved RpcRoutes for every edge.
//
// Ordering contract (DESIGN.md §14): a handler executes its node's children
// strictly in plan order, stateful writes inline and stateless children as
// blocking RPC calls that return before the next sibling starts. Execution
// order therefore equals node-index order, and the lineage accumulates the
// plan's stateful calls depth-first exactly as the generator emitted them —
// `MeshPlan::last_stateful` is the final write of the request, the
// tightest-raced target for the terminal guarded read.

#ifndef SRC_TRACE_MESH_H_
#define SRC_TRACE_MESH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/antipode/antipode.h"
#include "src/rpc/rpc.h"
#include "src/store/kv_store.h"
#include "src/trace/call_graph.h"

namespace antipode {

struct MeshOptions {
  // Generator knobs (seed drives both sampling and remapping, so one seed
  // fully determines the topology).
  TraceGenOptions gen;

  // Plan admission window: the deep-graph regime the mesh exists to stress.
  // Graphs outside it are discarded (they remain counted in graphs_sampled).
  uint32_t min_stateful_calls = 20;
  uint32_t max_stateful_calls = 60;
  uint32_t min_depth = 5;
  // Reject pathologically wide graphs: one request's cost is proportional to
  // total calls, and the tail of the calibrated distribution reaches the
  // generator's 4000-call cap.
  uint32_t max_plan_calls = 400;

  // Sampling stops once both targets are met (or the sample cap is hit):
  // at least `num_plans` admitted plans AND at least `min_live_services`
  // distinct live services (stateless services + stateful bindings).
  uint32_t num_plans = 48;
  uint32_t min_live_services = 200;
  uint32_t max_plans = 192;            // hard cap while chasing live services
  uint64_t max_sampled_graphs = 200000;

  // Live-identity widths. A stateless node at depth d maps to slot
  // `service % stateless_layer_width` of layer d; a stateful node maps to
  // binding `service % stateful_width`.
  uint32_t stateless_layer_width = 24;
  uint32_t stateful_width = 64;
  uint32_t num_stores = 12;
};

// Identity of one live stateless service: ⟨depth layer, slot⟩.
struct MeshServiceKey {
  uint32_t layer = 0;
  uint32_t slot = 0;

  bool operator==(const MeshServiceKey&) const = default;
  bool operator<(const MeshServiceKey& other) const {
    return layer != other.layer ? layer < other.layer : slot < other.slot;
  }
};

// One live stateful binding: a key namespace (`service`, the remapped
// stateful id) on a shared store.
struct MeshBinding {
  uint32_t service = 0;  // remapped id; also the key-namespace tag
  uint32_t store = 0;    // index into the mesh's shared store set

  bool operator==(const MeshBinding&) const = default;
};

// One call of an admitted plan, rewritten to mesh-local targets. `target`
// indexes MeshTopology::services (stateless) or ::bindings (stateful).
struct MeshCall {
  bool stateful = false;
  uint32_t target = 0;
  uint32_t depth = 0;
  std::vector<uint32_t> children;  // indices into MeshPlan::calls, plan order

  bool operator==(const MeshCall&) const = default;
};

// A whole admitted request plan. calls[0] is the stateless root; a call
// always precedes its children (the generator's layout, preserved by the
// rewrite), so node-index order is execution order.
struct MeshPlan {
  std::vector<MeshCall> calls;
  uint32_t stateful_calls = 0;
  uint32_t max_depth = 0;
  // Index of the execution-order-last stateful call: the terminal guarded
  // read targets this write.
  uint32_t last_stateful = 0;

  bool operator==(const MeshPlan&) const = default;
};

// Graph-shape statistics over the admitted plan set (reported in the bench
// JSON so the acceptance regime — ≥20 stateful calls, depth ≥5 — is visible
// in the artifact).
struct MeshStats {
  uint64_t graphs_sampled = 0;
  uint32_t min_stateful_calls = 0;
  uint32_t max_stateful_calls = 0;
  double mean_stateful_calls = 0.0;
  uint32_t min_depth = 0;
  uint32_t max_depth = 0;
  double mean_depth = 0.0;
  double mean_total_calls = 0.0;
};

struct MeshTopology {
  MeshOptions options;
  // Distinct live identities in first-appearance order (deterministic).
  std::vector<MeshServiceKey> services;
  std::vector<MeshBinding> bindings;
  std::vector<MeshPlan> plans;
  MeshStats stats;

  size_t live_services() const { return services.size() + bindings.size(); }

  static std::string ServiceName(const MeshServiceKey& key);
  static std::string StoreName(uint32_t store, const std::string& tag);
};

// Samples and rewrites plans until the admission targets are met. Pure:
// identical options (seed included) yield an identical topology.
MeshTopology BuildMeshTopology(const MeshOptions& options);

struct LiveMeshOptions {
  bool antipode = true;
  bool use_scope = true;
  EnforcementBackendKind backend = EnforcementBackendKind::kLineage;
  // Where services run and writes land / where the terminal read executes.
  Region home = Region::kEu;
  Region read_region = Region::kUs;
  // Regions every store replicates across (home and read_region must be in).
  std::vector<Region> store_regions = {Region::kEu, Region::kUs};
  // Regions the terminal barrier enforces at. A singleton set uses the
  // region-local Barrier; larger sets use BarrierGlobal — include regions
  // outside store_regions to exercise locality scoping (scoped barriers skip
  // those ⟨store, region⟩ pairs, unscoped ones arm vacuous waits).
  std::vector<Region> barrier_regions = {Region::kUs};
  size_t threads_per_service = 2;
  // Uniquifies store names so consecutive LiveMesh instances start cold.
  std::string tag;
};

// A materialized topology: live services + stores, ready to execute plans.
// Construction registers everything and pre-resolves one RpcRoute per
// service; destruction shuts the executors down (all in-flight requests must
// have completed first — the bench drains before teardown).
class LiveMesh {
 public:
  LiveMesh(const MeshTopology* topology, LiveMeshOptions options);
  ~LiveMesh();

  LiveMesh(const LiveMesh&) = delete;
  LiveMesh& operator=(const LiveMesh&) = delete;

  struct WriterResult {
    Status status = Status::Ok();
    uint32_t plan = 0;
    // The lineage the request carried back to the writer after every RPC
    // response merged (empty on the no-antipode baseline).
    Lineage lineage;
  };

  // Runs plan `request_index % plans` write-side under the current request
  // context: one RPC into the root service, which executes the whole tree.
  // On Antipode meshes the caller context must be live (a fresh ScopedContext
  // per request); LineageApi::Root() is called internally.
  WriterResult RunWriterSide(uint64_t request_index);

  // Terminal read of the plan's last write at `read_region`, guarded by the
  // configured barrier on Antipode meshes. Returns true when the value was
  // found — false is an XCY violation.
  bool RunReaderSide(const WriterResult& writer, uint64_t request_index);

  void DrainReplication();

  const MeshTopology& topology() const { return *topology_; }
  const LiveMeshOptions& options() const { return options_; }

 private:
  Result<std::string> HandleCall(const std::string& payload);
  Status ExecuteChildren(uint32_t plan_index, uint32_t node_index, uint64_t request_index);
  std::string KeyFor(const MeshBinding& binding, uint32_t node_index,
                     uint64_t request_index) const;

  const MeshTopology* topology_;
  LiveMeshOptions options_;
  ServiceRegistry registry_;
  std::vector<std::unique_ptr<KvStore>> stores_;
  std::vector<std::unique_ptr<KvShim>> shims_;
  ShimRegistry shim_registry_;
  BarrierOptions barrier_options_;
  std::unique_ptr<RpcClient> client_;
  std::vector<RpcRoute> routes_;  // one per topology service, same order
};

}  // namespace antipode

#endif  // SRC_TRACE_MESH_H_
