#include "src/trace/mesh.h"

#include <algorithm>
#include <map>

#include "src/common/serialization.h"

namespace antipode {
namespace {

constexpr char kMeshMethod[] = "run";
constexpr char kMeshBody[] = "mesh-value";

// Call payload: ⟨plan, node, request⟩ varints. The node is the subtree root
// the callee executes the children of.
std::string EncodeCall(uint32_t plan, uint32_t node, uint64_t request) {
  Serializer s;
  s.WriteVarint(plan);
  s.WriteVarint(node);
  s.WriteVarint(request);
  return s.Release();
}

bool DecodeCall(const std::string& payload, uint32_t* plan, uint32_t* node, uint64_t* request) {
  Deserializer d(payload);
  auto p = d.ReadVarint();
  auto n = d.ReadVarint();
  auto r = d.ReadVarint();
  if (!p.ok() || !n.ok() || !r.ok()) {
    return false;
  }
  *plan = static_cast<uint32_t>(*p);
  *node = static_cast<uint32_t>(*n);
  *request = *r;
  return true;
}

}  // namespace

std::string MeshTopology::ServiceName(const MeshServiceKey& key) {
  return "mesh-l" + std::to_string(key.layer) + "-s" + std::to_string(key.slot);
}

std::string MeshTopology::StoreName(uint32_t store, const std::string& tag) {
  // Deliberately short: the name is copied into every WriteId a mesh write
  // creates, and keeping it inside std::string's SSO buffer (15 chars on
  // libstdc++) even with a store index and a bench phase tag appended keeps
  // lineage copies/deserializes allocation-free per dependency. A longer
  // prefix once crossed the SSO line for two-digit tags and skewed the
  // bench's allocs/request comparison across phases.
  std::string name = "mesh-s" + std::to_string(store);
  if (!tag.empty()) {
    name += "-" + tag;
  }
  return name;
}

MeshTopology BuildMeshTopology(const MeshOptions& options) {
  MeshTopology topology;
  topology.options = options;
  CallGraphGenerator generator(options.gen);

  std::map<MeshServiceKey, uint32_t> service_index;
  std::map<uint32_t, uint32_t> binding_index;
  uint64_t sampled = 0;
  uint64_t stateful_sum = 0;
  uint64_t depth_sum = 0;
  uint64_t calls_sum = 0;

  const auto want_more = [&] {
    if (topology.plans.size() < options.num_plans) {
      return true;
    }
    return topology.live_services() < options.min_live_services &&
           topology.plans.size() < options.max_plans;
  };

  while (want_more() && sampled < options.max_sampled_graphs) {
    CallGraph graph = generator.NextGraph();
    ++sampled;
    const CallGraphStats& stats = graph.stats;
    if (stats.stateful_calls < options.min_stateful_calls ||
        stats.stateful_calls > options.max_stateful_calls ||
        stats.max_depth < options.min_depth || stats.total_calls > options.max_plan_calls) {
      continue;
    }

    MeshPlan plan;
    plan.calls.reserve(graph.nodes.size());
    plan.stateful_calls = stats.stateful_calls;
    plan.max_depth = stats.max_depth;
    for (uint32_t i = 0; i < graph.nodes.size(); ++i) {
      const CallNode& node = graph.nodes[i];
      MeshCall call;
      call.stateful = node.stateful;
      call.depth = node.depth;
      call.children = node.children;
      if (node.stateful) {
        const uint32_t remapped = node.service % std::max<uint32_t>(1, options.stateful_width);
        auto [it, inserted] = binding_index.emplace(
            remapped, static_cast<uint32_t>(topology.bindings.size()));
        if (inserted) {
          topology.bindings.push_back(
              MeshBinding{remapped, remapped % std::max<uint32_t>(1, options.num_stores)});
        }
        call.target = it->second;
        plan.last_stateful = i;
      } else {
        const MeshServiceKey key{node.depth,
                                 node.service %
                                     std::max<uint32_t>(1, options.stateless_layer_width)};
        auto [it, inserted] =
            service_index.emplace(key, static_cast<uint32_t>(topology.services.size()));
        if (inserted) {
          topology.services.push_back(key);
        }
        call.target = it->second;
      }
      plan.calls.push_back(std::move(call));
    }
    stateful_sum += stats.stateful_calls;
    depth_sum += stats.max_depth;
    calls_sum += stats.total_calls;
    topology.plans.push_back(std::move(plan));
  }

  MeshStats& out = topology.stats;
  out.graphs_sampled = sampled;
  if (!topology.plans.empty()) {
    const double n = static_cast<double>(topology.plans.size());
    out.min_stateful_calls = topology.plans.front().stateful_calls;
    out.max_stateful_calls = 0;
    out.min_depth = topology.plans.front().max_depth;
    out.max_depth = 0;
    for (const MeshPlan& plan : topology.plans) {
      out.min_stateful_calls = std::min(out.min_stateful_calls, plan.stateful_calls);
      out.max_stateful_calls = std::max(out.max_stateful_calls, plan.stateful_calls);
      out.min_depth = std::min(out.min_depth, plan.max_depth);
      out.max_depth = std::max(out.max_depth, plan.max_depth);
    }
    out.mean_stateful_calls = static_cast<double>(stateful_sum) / n;
    out.mean_depth = static_cast<double>(depth_sum) / n;
    out.mean_total_calls = static_cast<double>(calls_sum) / n;
  }
  return topology;
}

LiveMesh::LiveMesh(const MeshTopology* topology, LiveMeshOptions options)
    : topology_(topology), options_(std::move(options)) {
  // Shared stores + shims first: handlers write through them.
  stores_.reserve(topology_->options.num_stores);
  shims_.reserve(topology_->options.num_stores);
  for (uint32_t i = 0; i < topology_->options.num_stores; ++i) {
    auto store_options =
        KvStore::DefaultOptions(MeshTopology::StoreName(i, options_.tag), options_.store_regions);
    // Pinned profile, like the load sweep: a real-time straggler mode would
    // dominate every latency percentile of a short window.
    store_options.replication.slow_mode_probability = 0.0;
    stores_.push_back(std::make_unique<KvStore>(std::move(store_options)));
    shims_.push_back(std::make_unique<KvShim>(stores_.back().get()));
    shim_registry_.Register(shims_.back().get());
  }
  barrier_options_ = BarrierOptions{.registry = &shim_registry_,
                                    .use_scope = options_.use_scope,
                                    .backend = options_.backend};

  for (const MeshServiceKey& key : topology_->services) {
    RpcService* service = registry_.RegisterService(MeshTopology::ServiceName(key),
                                                    options_.home, options_.threads_per_service);
    service->RegisterMethod(kMeshMethod,
                            [this](const std::string& payload) { return HandleCall(payload); });
  }
  client_ = std::make_unique<RpcClient>(&registry_, options_.home);
  routes_.reserve(topology_->services.size());
  for (const MeshServiceKey& key : topology_->services) {
    auto route = client_->Resolve(MeshTopology::ServiceName(key), kMeshMethod);
    routes_.push_back(route.ok() ? std::move(route.value()) : RpcRoute{});
  }
}

LiveMesh::~LiveMesh() { registry_.ShutdownAll(); }

std::string LiveMesh::KeyFor(const MeshBinding& binding, uint32_t node_index,
                             uint64_t request_index) const {
  return "s" + std::to_string(binding.service) + "/r" + std::to_string(request_index) + "n" +
         std::to_string(node_index);
}

Status LiveMesh::ExecuteChildren(uint32_t plan_index, uint32_t node_index,
                                 uint64_t request_index) {
  const MeshPlan& plan = topology_->plans[plan_index];
  for (uint32_t child : plan.calls[node_index].children) {
    const MeshCall& call = plan.calls[child];
    if (call.stateful) {
      const MeshBinding& binding = topology_->bindings[call.target];
      const std::string key = KeyFor(binding, child, request_index);
      if (options_.antipode) {
        Status status = shims_[binding.store]->WriteCtx(options_.home, key, kMeshBody);
        if (!status.ok()) {
          return status;
        }
      } else {
        stores_[binding.store]->Set(options_.home, key, kMeshBody);
      }
    } else {
      auto result =
          client_->Call(routes_[call.target], EncodeCall(plan_index, child, request_index));
      if (!result.ok()) {
        return result.status();
      }
    }
  }
  return Status::Ok();
}

Result<std::string> LiveMesh::HandleCall(const std::string& payload) {
  uint32_t plan = 0;
  uint32_t node = 0;
  uint64_t request = 0;
  if (!DecodeCall(payload, &plan, &node, &request) ||
      plan >= topology_->plans.size() || node >= topology_->plans[plan].calls.size()) {
    return Status::InvalidArgument("malformed mesh call payload");
  }
  Status status = ExecuteChildren(plan, node, request);
  if (!status.ok()) {
    return status;
  }
  return std::string();
}

LiveMesh::WriterResult LiveMesh::RunWriterSide(uint64_t request_index) {
  WriterResult result;
  if (topology_->plans.empty()) {
    result.status = Status::FailedPrecondition("mesh topology has no plans");
    return result;
  }
  result.plan = static_cast<uint32_t>(request_index % topology_->plans.size());
  if (options_.antipode) {
    LineageApi::Root();
  }
  const MeshPlan& plan = topology_->plans[result.plan];
  auto call = client_->Call(routes_[plan.calls[0].target],
                            EncodeCall(result.plan, 0, request_index));
  if (!call.ok()) {
    result.status = call.status();
  }
  if (options_.antipode) {
    auto lineage = LineageApi::Current();
    if (lineage.has_value()) {
      result.lineage = std::move(*lineage);
    }
  }
  return result;
}

bool LiveMesh::RunReaderSide(const WriterResult& writer, uint64_t request_index) {
  const MeshPlan& plan = topology_->plans[writer.plan];
  const MeshCall& last = plan.calls[plan.last_stateful];
  const MeshBinding& binding = topology_->bindings[last.target];
  const std::string key = KeyFor(binding, plan.last_stateful, request_index);
  if (!options_.antipode) {
    return stores_[binding.store]->GetValue(options_.read_region, key).has_value();
  }
  if (options_.barrier_regions.size() == 1) {
    Barrier(writer.lineage, options_.barrier_regions.front(), barrier_options_);
  } else {
    BarrierGlobal(writer.lineage, options_.barrier_regions, barrier_options_);
  }
  return shims_[binding.store]->Read(options_.read_region, key).ok();
}

void LiveMesh::DrainReplication() {
  for (auto& store : stores_) {
    store->DrainReplication();
  }
}

}  // namespace antipode
