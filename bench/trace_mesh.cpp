// Live trace-mesh macrobenchmark: materializes sampled Alibaba-calibrated
// call graphs (src/trace) as a running topology — hundreds of layered
// stateless RPC services plus stateful bindings on shared replicated stores —
// and drives it open-loop at one fixed rate per phase (bench/open_loop.h).
// Every request executes a real admitted plan: lineage flows through
// RequestContext baggage across every RPC hop, each stateful call is a
// shimmed store write, and a terminal read in a remote region is guarded by
// a barrier (lineage and stable-frontier backends, scoped and unscoped).
// This is the deep-graph regime (≥20 stateful calls, depth ≥5) the five
// hand-written apps never reach.
//
// Alongside the mesh phases, a lineage-carry micro-phase measures the per-hop
// context cost (deserialize → append → re-serialize) at 20/40/60
// dependencies, reporting p50 ns and allocations per hop.
//
// Phases: mesh_baseline (no enforcement — nonzero violations show the race
// is real), mesh_lineage, mesh_lineage_scoped /
// mesh_lineage_unscoped (deployment-wide BarrierGlobal with a region outside
// every store's replica set: scoped skips those pairs, unscoped arms vacuous
// waits), mesh_frontier. Antipode phases must complete with 0 violations —
// the exit code is nonzero otherwise, and validate_bench_json checks the
// emitted artifact too.
//
// Emits BENCH_trace_mesh.json (schema: DESIGN.md §14) at --json-out.
//
// Flags: --scale, --duration=<real s per phase>, --writers,
//        --quick (tiny CI run), --json-out=<path>.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/bench_util.h"
#include "bench/open_loop.h"
#include "src/antipode/antipode.h"
#include "src/common/histogram.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"
#include "src/obs/metrics.h"
#include "src/trace/mesh.h"

namespace antipode {
namespace {

std::atomic<uint64_t> g_mesh_counter{0};

struct MeshPhaseSpec {
  const char* name;
  bool antipode;
  EnforcementBackendKind backend = EnforcementBackendKind::kLineage;
  bool use_scope = true;
  std::vector<Region> barrier_regions = {Region::kUs};
};

struct PhaseResult {
  std::string name;
  std::string backend;
  bool antipode = false;
  bool use_scope = true;
  uint64_t scoped_skips = 0;
  WindowResult window;
  // Allocations from generation through full drain, per completed request:
  // everything a request costs — hops, lineage carry, store writes,
  // replication, barrier.
  double allocs_per_req = 0.0;
};

// Open-loop bed around one LiveMesh: writers execute plans, a reader pool
// runs the guarded terminal read and completes the request.
class MeshBed : public OpenLoopBed {
 public:
  MeshBed(const MeshTopology* topology, LiveMeshOptions options, ThreadPool* readers)
      : mesh_(topology, std::move(options)), readers_(readers) {}

  void Issue(uint64_t request_index, uint64_t send_ns) override {
    LiveMesh::WriterResult writer = mesh_.RunWriterSide(request_index);
    const bool submitted =
        readers_->Submit([this, writer = std::move(writer), request_index, send_ns]() mutable {
          Complete(writer, request_index, send_ns);
        });
    if (!submitted) {
      Complete(writer, request_index, send_ns);
    }
  }

  void Drain() override { mesh_.DrainReplication(); }

 private:
  void Complete(const LiveMesh::WriterResult& writer, uint64_t request_index, uint64_t send_ns) {
    const bool found = mesh_.RunReaderSide(writer, request_index);
    if (mesh_.options().antipode) {
      RecordMetadata(mesh_.options().backend, writer.lineage);
    }
    RecordCompletion(send_ns, found);
  }

  LiveMesh mesh_;
  ThreadPool* readers_;
};

PhaseResult RunPhase(const MeshTopology& topology, const MeshPhaseSpec& spec,
                     const WindowConfig& config) {
  PhaseResult result;
  result.name = spec.name;
  result.antipode = spec.antipode;
  result.use_scope = spec.use_scope;
  result.backend = spec.antipode ? std::string(EnforcementBackendKindName(spec.backend)) : "none";

  ThreadPool readers(static_cast<size_t>(config.writers), "mesh-readers");
  LiveMeshOptions options;
  options.antipode = spec.antipode;
  options.backend = spec.backend;
  options.use_scope = spec.use_scope;
  options.barrier_regions = spec.barrier_regions;
  options.tag = std::to_string(g_mesh_counter.fetch_add(1));
  auto bed = std::make_unique<MeshBed>(&topology, std::move(options), &readers);
  const uint64_t allocs_before = benchhook::AllocationCount();
  result.window = RunWindow(*bed, config);
  result.allocs_per_req =
      bed->completed() == 0
          ? 0.0
          : static_cast<double>(benchhook::AllocationCount() - allocs_before) /
                static_cast<double>(bed->completed());
  bed.reset();
  readers.Shutdown();
  result.scoped_skips = MetricsRegistry::Default().GetCounter("barrier.scoped_skip")->value();
  return result;
}

// Lineage-carry micro-phase: one RPC-hop's worth of context work — pull the
// wire blob into a context, append the hop's stateful writes, re-serialize
// for the next hop — at 20/40/60 carried dependencies. Deep-graph handlers
// perform several stateful writes between serializations; the native slot
// mutates the decoded lineage in place and serializes once at the hop
// boundary.
constexpr int kCarryAppendsPerHop = 4;

struct CarryPoint {
  int deps = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double allocs_per_hop = 0.0;
};

Lineage MakeCarryLineage(int deps) {
  Lineage lineage(1);
  for (int i = 0; i < deps; ++i) {
    WriteId id;
    id.store = "mesh-store-" + std::to_string(i % 12);
    id.key = "s" + std::to_string(i) + "/k0";
    id.version = 1 + static_cast<uint64_t>(i);
    lineage.Append(std::move(id));
  }
  return lineage;
}

CarryPoint RunCarryPoint(int deps, int iters) {
  CarryPoint point;
  point.deps = deps;

  std::string blob;
  {
    RequestContext context;
    ScopedContext scoped(std::move(context));
    LineageApi::Install(MakeCarryLineage(deps));
    blob = RequestContext::SerializeCurrent();
  }

  Histogram latency;
  size_t sink = 0;
  const int warmup = std::max(16, iters / 10);
  uint64_t allocs_before = 0;
  for (int i = -warmup; i < iters; ++i) {
    if (i == 0) {
      allocs_before = benchhook::AllocationCount();
    }
    WriteId ids[kCarryAppendsPerHop];
    for (int k = 0; k < kCarryAppendsPerHop; ++k) {
      ids[k].store = "mesh-store-hop";
      ids[k].key = "hop/k" + std::to_string(((i + warmup) * kCarryAppendsPerHop + k) & 7);
      ids[k].version = static_cast<uint64_t>((i + warmup) * kCarryAppendsPerHop + k + 1);
    }
    const uint64_t t0 = SteadyNowNanos();
    {
      ScopedContext scoped(RequestContext::Deserialize(blob));
      for (WriteId& id : ids) {
        LineageApi::Append(std::move(id));
      }
      sink += RequestContext::SerializeCurrent().size();
    }
    const uint64_t t1 = SteadyNowNanos();
    if (i >= 0) {
      latency.Record(static_cast<double>(t1 - t0));
    }
  }
  const uint64_t allocs_after = benchhook::AllocationCount();
  point.p50_ns = latency.Percentile(0.50);
  point.p99_ns = latency.Percentile(0.99);
  point.allocs_per_hop = static_cast<double>(allocs_after - allocs_before) / iters;
  if (sink == 0) {
    std::printf("# impossible\n");
  }
  return point;
}

void EmitJson(const MeshTopology& topology, const std::vector<CarryPoint>& carry,
              const std::vector<PhaseResult>& phases, const WindowConfig& config, bool quick,
              const std::string& path) {
  JsonReport json;
  json.BeginObject();
  json.Field("bench", "trace_mesh");
  json.Field("quick", quick);
  json.Field("duration_s", config.duration_s);

  const MeshStats& stats = topology.stats;
  json.BeginObject("graph");
  json.Field("live_services", static_cast<double>(topology.live_services()));
  json.Field("stateless_services", static_cast<double>(topology.services.size()));
  json.Field("stateful_bindings", static_cast<double>(topology.bindings.size()));
  json.Field("stores", static_cast<double>(topology.options.num_stores));
  json.Field("plans", static_cast<double>(topology.plans.size()));
  json.Field("graphs_sampled", static_cast<double>(stats.graphs_sampled));
  json.Field("min_stateful_calls", static_cast<double>(stats.min_stateful_calls));
  json.Field("max_stateful_calls", static_cast<double>(stats.max_stateful_calls));
  json.Field("mean_stateful_calls", stats.mean_stateful_calls);
  json.Field("min_depth", static_cast<double>(stats.min_depth));
  json.Field("max_depth", static_cast<double>(stats.max_depth));
  json.Field("mean_depth", stats.mean_depth);
  json.Field("mean_total_calls", stats.mean_total_calls);
  json.EndObject();

  json.BeginArray("carry");
  for (const CarryPoint& point : carry) {
    json.BeginObject();
    json.Field("deps", static_cast<double>(point.deps));
    json.Field("p50_ns", point.p50_ns);
    json.Field("p99_ns", point.p99_ns);
    json.Field("allocs_per_hop", point.allocs_per_hop);
    json.EndObject();
  }
  json.EndArray();

  json.BeginArray("phases");
  for (const PhaseResult& phase : phases) {
    json.BeginObject();
    json.Field("name", phase.name);
    json.Field("backend", phase.backend);
    json.Field("antipode", phase.antipode);
    json.Field("use_scope", phase.use_scope);
    json.Field("scoped_skips", phase.scoped_skips);
    json.Field("violations", phase.window.violations);
    EmitWindow(json, phase.window);
    json.Field("allocs_per_req", phase.allocs_per_req);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  if (json.WriteFile(path)) {
    std::printf("\n# wrote %s\n", path.c_str());
  }
}

int Main(int argc, char** argv) {
  BenchArgs args(argc, argv);
  const bool quick = args.HasFlag("quick");
  args.SetupTimeScale();

  // 100 req/s sits well below the knee (the retired rate ladder sustained
  // 384 req/s, its ceiling, in every phase).
  WindowConfig config{.rate = 100.0, .duration_s = 2.0, .drain_cap_s = 12.0, .writers = 8};
  int carry_iters = 4000;
  MeshOptions mesh_options;
  if (quick) {
    config = WindowConfig{.rate = 24.0, .duration_s = 0.5, .drain_cap_s = 6.0, .writers = 4};
    carry_iters = 600;
    mesh_options.num_plans = 8;
    mesh_options.min_live_services = 60;
    mesh_options.max_plans = 64;
    mesh_options.stateless_layer_width = 10;
    mesh_options.stateful_width = 32;
  }
  config.duration_s = args.GetDouble("duration", config.duration_s);
  config.writers = args.GetInt("writers", config.writers);
  const std::string json_out = args.GetString("json-out", "BENCH_trace_mesh.json");

  std::printf("# building mesh topology (seed %llu)...\n",
              static_cast<unsigned long long>(mesh_options.gen.seed));
  const MeshTopology topology = BuildMeshTopology(mesh_options);
  std::printf("# topology: %zu live services (%zu stateless + %zu stateful bindings on %u "
              "stores), %zu plans from %llu sampled graphs\n",
              topology.live_services(), topology.services.size(), topology.bindings.size(),
              topology.options.num_stores, topology.plans.size(),
              static_cast<unsigned long long>(topology.stats.graphs_sampled));
  std::printf("# plan shape: stateful calls [%u, %u] mean %.1f, depth [%u, %u] mean %.1f, "
              "mean total calls %.1f\n",
              topology.stats.min_stateful_calls, topology.stats.max_stateful_calls,
              topology.stats.mean_stateful_calls, topology.stats.min_depth,
              topology.stats.max_depth, topology.stats.mean_depth,
              topology.stats.mean_total_calls);
  if (topology.plans.empty()) {
    std::fprintf(stderr, "trace_mesh: no plans admitted — widen the admission window\n");
    return 1;
  }

  // Lineage-carry micro-phase (the per-hop context cost).
  std::printf("\n== lineage carry (per RPC hop: deserialize + %d appends + serialize) ==\n",
              kCarryAppendsPerHop);
  std::printf("%6s %12s %12s %14s\n", "deps", "p50 ns", "p99 ns", "allocs/hop");
  std::vector<CarryPoint> carry;
  for (int deps : {20, 40, 60}) {
    CarryPoint point = RunCarryPoint(deps, carry_iters);
    std::printf("%6d %12.0f %12.0f %14.2f\n", point.deps, point.p50_ns, point.p99_ns,
                point.allocs_per_hop);
    carry.push_back(point);
  }

  // The deployment-wide barrier set for the scoped/unscoped pair: kSg hosts
  // no mesh store replica, so scoping has pairs to skip.
  const std::vector<Region> kLocalBarrier = {Region::kUs};
  const std::vector<Region> kGlobalBarrier = {Region::kUs, Region::kSg};
  const MeshPhaseSpec specs[] = {
      {"mesh_baseline", false},
      {"mesh_lineage", true, EnforcementBackendKind::kLineage, true, kLocalBarrier},
      {"mesh_lineage_scoped", true, EnforcementBackendKind::kLineage, true, kGlobalBarrier},
      {"mesh_lineage_unscoped", true, EnforcementBackendKind::kLineage, false, kGlobalBarrier},
      {"mesh_frontier", true, EnforcementBackendKind::kStableFrontier, true, kLocalBarrier},
  };
  std::printf("\n# open-loop: %.0f req/s for %.2fs per phase, %d writers\n", config.rate,
              config.duration_s, config.writers);
  std::printf("%-24s %-16s %8s %8s %10s %10s %6s %12s %10s %8s\n", "phase", "backend", "issued",
              "done", "p50 ms", "p99 ms", "viol", "allocs/req", "md B/req", "skips");
  std::vector<PhaseResult> phases;
  uint64_t enforced_violations = 0;
  for (const MeshPhaseSpec& spec : specs) {
    MetricsRegistry::Default().SnapshotAndReset();
    const PhaseResult& phase = phases.emplace_back(RunPhase(topology, spec, config));
    const WindowResult& window = phase.window;
    std::printf("%-24s %-16s %8llu %8llu %10.2f %10.2f %6llu %12.0f %10.1f %8llu\n",
                phase.name.c_str(), phase.backend.c_str(),
                static_cast<unsigned long long>(window.issued),
                static_cast<unsigned long long>(window.completed), window.p50_ms, window.p99_ms,
                static_cast<unsigned long long>(window.violations), phase.allocs_per_req,
                window.metadata_bytes_per_req, static_cast<unsigned long long>(phase.scoped_skips));
    if (phase.antipode) {
      enforced_violations += window.violations;
    }
  }
  EmitJson(topology, carry, phases, config, quick, json_out);
  if (enforced_violations != 0) {
    std::fprintf(stderr, "trace_mesh: %llu XCY violations under enforcement\n",
                 static_cast<unsigned long long>(enforced_violations));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace antipode

int main(int argc, char** argv) { return antipode::Main(argc, argv); }
