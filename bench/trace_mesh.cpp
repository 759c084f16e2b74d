// Live trace-mesh macrobenchmark: materializes sampled Alibaba-calibrated
// call graphs (src/trace) as a running topology — hundreds of layered
// stateless RPC services plus stateful bindings on shared replicated stores —
// and drives it open-loop through the load_sweep rate ladder. Every request
// executes a real admitted plan: lineage flows through RequestContext baggage
// across every RPC hop, each stateful call is a shimmed store write, and a
// terminal read in a remote region is guarded by a barrier (lineage and
// stable-frontier backends, scoped and unscoped). This is the deep-graph
// regime (≥20 stateful calls, depth ≥5) the five hand-written apps never
// reach — the workload that exposed the small-vector lineage storage,
// interned-store wire format, native baggage slot, and route-cached RPC
// dispatch this PR adds.
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
// validate_bench_json enforces that on the emitted artifact.
//
// Emits BENCH_trace_mesh.json (schema: DESIGN.md §14) at --json-out.
//
// Flags: --scale, --duration=<real s per point>, --start-rate, --rate-factor,
//        --max-steps, --writers, --quick (tiny CI run), --json-out=<path>.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/alloc_hook.h"
#include "bench/bench_util.h"
#include "src/antipode/antipode.h"
#include "src/antipode/enforcement.h"
#include "src/common/histogram.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"
#include "src/obs/metrics.h"
#include "src/trace/mesh.h"

namespace antipode {
namespace {

constexpr double kMinDrainTailSlackS = 0.2;

std::atomic<uint64_t> g_mesh_counter{0};

uint64_t NowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct MeshSweepConfig {
  double duration_s = 1.0;
  double drain_cap_s = 12.0;
  double start_rate = 24.0;  // deep requests are ~two orders heavier than app ones
  double rate_factor = 2.0;
  int max_steps = 5;
  int writers = 8;
  int readers = 8;
  int carry_iters = 4000;
};

struct RatePoint {
  double offered_req_s = 0.0;
  double achieved_req_s = 0.0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t violations = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double metadata_bytes_per_req = 0.0;
  double allocs_per_req = 0.0;
  bool saturated = false;
};

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
  uint64_t violations = 0;
  std::vector<RatePoint> points;

  const RatePoint& Peak() const {
    const RatePoint* best = &points.front();
    for (const RatePoint& p : points) {
      const bool better = p.achieved_req_s > best->achieved_req_s;
      if ((!p.saturated && best->saturated) || (p.saturated == best->saturated && better)) {
        best = &p;
      }
    }
    return *best;
  }
};

// Open-loop bed around one LiveMesh: writers execute plans, a reader pool
// runs the guarded terminal read and completes the request.
class MeshBed {
 public:
  MeshBed(const MeshTopology* topology, LiveMeshOptions options, ThreadPool* readers)
      : mesh_(topology, std::move(options)), readers_(readers) {}

  void Issue(uint64_t request_index, uint64_t send_ns) {
    LiveMesh::WriterResult writer = mesh_.RunWriterSide(request_index);
    const bool submitted =
        readers_->Submit([this, writer = std::move(writer), request_index, send_ns]() mutable {
          Complete(writer, request_index, send_ns);
        });
    if (!submitted) {
      Complete(writer, request_index, send_ns);
    }
  }

  void Drain() { mesh_.DrainReplication(); }

  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  uint64_t violations() const { return violations_.load(std::memory_order_relaxed); }
  uint64_t metadata_bytes() const { return metadata_bytes_.load(std::memory_order_relaxed); }
  const ConcurrentHistogram& latency() const { return latency_; }

  bool AwaitCompletions(uint64_t issued, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(done_mu_);
    return done_cv_.wait_until(lock, deadline, [&] {
      return completed_.load(std::memory_order_relaxed) >= issued;
    });
  }

 private:
  void Complete(const LiveMesh::WriterResult& writer, uint64_t request_index, uint64_t send_ns) {
    const bool found = mesh_.RunReaderSide(writer, request_index);
    if (mesh_.options().antipode) {
      metadata_bytes_.fetch_add(
          EnforcementMetadataBytes(mesh_.options().backend, writer.lineage),
          std::memory_order_relaxed);
    }
    latency_.Record(static_cast<double>(NowNanos() - send_ns) / 1e6);
    if (!found) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(done_mu_);
    done_cv_.notify_all();
  }

  LiveMesh mesh_;
  ThreadPool* readers_;
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> violations_{0};
  std::atomic<uint64_t> metadata_bytes_{0};
  ConcurrentHistogram latency_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;
};

RatePoint RunLoadPoint(MeshBed& bed, double rate, const MeshSweepConfig& config) {
  ThreadPool writers(static_cast<size_t>(config.writers), "mesh-writers");

  const uint64_t allocs_before = benchhook::AllocationCount();
  const auto start = std::chrono::steady_clock::now();
  const auto gen_end = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(config.duration_s));
  const auto interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / rate));

  uint64_t issued = 0;
  auto next_arrival = start;
  while (next_arrival < gen_end) {
    std::this_thread::sleep_until(next_arrival);
    const auto now = std::chrono::steady_clock::now();
    while (next_arrival <= now && next_arrival < gen_end) {
      const uint64_t index = issued++;
      const uint64_t send_ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(next_arrival.time_since_epoch())
              .count());
      writers.Submit([&bed, index, send_ns] {
        RequestContext context;
        ScopedContext scoped(std::move(context));
        bed.Issue(index, send_ns);
      });
      next_arrival += interval;
    }
  }

  const auto drain_deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config.drain_cap_s));
  const bool drained = bed.AwaitCompletions(issued, drain_deadline);

  RatePoint point;
  point.offered_req_s = rate;
  point.issued = issued;
  point.completed = bed.completed();
  const double elapsed_s =
      std::chrono::duration_cast<std::chrono::duration<double>>(std::chrono::steady_clock::now() -
                                                                start)
          .count();
  const double drain_tail_s = elapsed_s - config.duration_s;
  point.saturated =
      !drained || drain_tail_s > std::max(0.5 * config.duration_s, kMinDrainTailSlackS);
  point.achieved_req_s = point.saturated
                             ? (elapsed_s > 0 ? static_cast<double>(point.completed) / elapsed_s
                                              : 0.0)
                             : static_cast<double>(point.completed) / config.duration_s;
  const Histogram latency = bed.latency().Snapshot();
  point.p50_ms = latency.Percentile(0.50);
  point.p99_ms = latency.Percentile(0.99);
  point.p999_ms = latency.Percentile(0.999);
  point.violations = bed.violations();
  point.metadata_bytes_per_req =
      point.completed == 0
          ? 0.0
          : static_cast<double>(bed.metadata_bytes()) / static_cast<double>(point.completed);

  writers.Shutdown();
  if (!drained) {
    bed.AwaitCompletions(issued, std::chrono::steady_clock::now() + std::chrono::hours(1));
  }
  bed.Drain();
  // Allocation accounting covers generation through full drain: everything a
  // request costs — hops, lineage carry, store writes, replication, barrier.
  point.allocs_per_req =
      bed.completed() == 0
          ? 0.0
          : static_cast<double>(benchhook::AllocationCount() - allocs_before) /
                static_cast<double>(bed.completed());
  return point;
}

PhaseResult RunPhase(const MeshTopology& topology, const MeshPhaseSpec& spec,
                     const MeshSweepConfig& config) {
  PhaseResult result;
  result.name = spec.name;
  result.antipode = spec.antipode;
  result.use_scope = spec.use_scope;
  result.backend = spec.antipode ? std::string(EnforcementBackendKindName(spec.backend)) : "none";

  std::printf("\n== phase %s ==\n", spec.name);
  std::printf("%12s %12s %8s %8s %10s %10s %6s %12s %6s\n", "offered/s", "achieved/s", "issued",
              "done", "p50 ms", "p99 ms", "viol", "allocs/req", "sat");

  double rate = config.start_rate;
  for (int step = 0; step < config.max_steps; ++step) {
    ThreadPool readers(static_cast<size_t>(config.readers), "mesh-readers");
    LiveMeshOptions options;
    options.antipode = spec.antipode;
    options.backend = spec.backend;
    options.use_scope = spec.use_scope;
    options.barrier_regions = spec.barrier_regions;
    options.tag = std::to_string(g_mesh_counter.fetch_add(1));
    auto bed = std::make_unique<MeshBed>(&topology, std::move(options), &readers);
    RatePoint point = RunLoadPoint(*bed, rate, config);
    bed.reset();
    readers.Shutdown();

    std::printf("%12.1f %12.1f %8llu %8llu %10.2f %10.2f %6llu %12.0f %6s\n",
                point.offered_req_s, point.achieved_req_s,
                static_cast<unsigned long long>(point.issued),
                static_cast<unsigned long long>(point.completed), point.p50_ms, point.p99_ms,
                static_cast<unsigned long long>(point.violations), point.allocs_per_req,
                point.saturated ? "yes" : "no");
    const bool stop = point.saturated;
    result.violations += point.violations;
    result.points.push_back(std::move(point));
    if (stop) {
      break;
    }
    rate *= config.rate_factor;
  }
  result.scoped_skips = MetricsRegistry::Default().GetCounter("barrier.scoped_skip")->value();

  const RatePoint& peak = result.Peak();
  std::printf("# peak sustained: %.1f req/s (p50 %.2f ms, p99 %.2f ms, violations %llu, "
              "allocs/req %.0f, scoped skips %llu)\n",
              peak.achieved_req_s, peak.p50_ms, peak.p99_ms,
              static_cast<unsigned long long>(result.violations), peak.allocs_per_req,
              static_cast<unsigned long long>(result.scoped_skips));
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
    const uint64_t t0 = NowNanos();
    {
      ScopedContext scoped(RequestContext::Deserialize(blob));
      for (WriteId& id : ids) {
        LineageApi::Append(std::move(id));
      }
      sink += RequestContext::SerializeCurrent().size();
    }
    const uint64_t t1 = NowNanos();
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
              const std::vector<PhaseResult>& phases, const MeshSweepConfig& config, bool quick,
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
    const RatePoint& peak = phase.Peak();
    json.BeginObject();
    json.Field("name", phase.name);
    json.Field("backend", phase.backend);
    json.Field("antipode", phase.antipode);
    json.Field("use_scope", phase.use_scope);
    json.Field("scoped_skips", static_cast<double>(phase.scoped_skips));
    json.Field("violations", static_cast<double>(phase.violations));
    json.Field("peak_req_s", peak.achieved_req_s);
    json.Field("p50_ms", peak.p50_ms);
    json.Field("p99_ms", peak.p99_ms);
    json.Field("p999_ms", peak.p999_ms);
    json.Field("metadata_bytes_per_req", peak.metadata_bytes_per_req);
    json.Field("allocs_per_req", peak.allocs_per_req);
    json.BeginArray("points");
    for (const RatePoint& point : phase.points) {
      json.BeginObject();
      json.Field("offered_req_s", point.offered_req_s);
      json.Field("achieved_req_s", point.achieved_req_s);
      json.Field("issued", point.issued);
      json.Field("completed", point.completed);
      json.Field("violations", static_cast<double>(point.violations));
      json.Field("p50_ms", point.p50_ms);
      json.Field("p99_ms", point.p99_ms);
      json.Field("p999_ms", point.p999_ms);
      json.Field("metadata_bytes_per_req", point.metadata_bytes_per_req);
      json.Field("allocs_per_req", point.allocs_per_req);
      json.Field("saturated", point.saturated);
      json.EndObject();
    }
    json.EndArray();
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
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--quick") {
      quick = true;
    }
  }
  args.SetupTimeScale();

  MeshSweepConfig config;
  MeshOptions mesh_options;
  if (quick) {
    config.duration_s = 0.25;
    config.drain_cap_s = 6.0;
    config.start_rate = 8.0;
    config.rate_factor = 3.0;
    config.max_steps = 2;
    config.writers = 4;
    config.readers = 4;
    config.carry_iters = 600;
    mesh_options.num_plans = 8;
    mesh_options.min_live_services = 60;
    mesh_options.max_plans = 64;
    mesh_options.stateless_layer_width = 10;
    mesh_options.stateful_width = 32;
  }
  config.duration_s = args.GetDouble("duration", config.duration_s);
  config.start_rate = args.GetDouble("start-rate", config.start_rate);
  config.rate_factor = args.GetDouble("rate-factor", config.rate_factor);
  config.max_steps = args.GetInt("max-steps", config.max_steps);
  config.writers = args.GetInt("writers", config.writers);
  config.readers = config.writers;
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
    CarryPoint point = RunCarryPoint(deps, config.carry_iters);
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
  std::vector<PhaseResult> phases;
  for (const MeshPhaseSpec& spec : specs) {
    MetricsRegistry::Default().SnapshotAndReset();
    phases.push_back(RunPhase(topology, spec, config));
  }

  std::printf("\n%-24s %-16s %12s %10s %10s %6s %12s %10s\n", "phase", "backend", "peak req/s",
              "p50 ms", "p99 ms", "viol", "allocs/req", "md B/req");
  for (const PhaseResult& phase : phases) {
    const RatePoint& peak = phase.Peak();
    std::printf("%-24s %-16s %12.1f %10.2f %10.2f %6llu %12.0f %10.1f\n", phase.name.c_str(),
                phase.backend.c_str(), peak.achieved_req_s, peak.p50_ms, peak.p99_ms,
                static_cast<unsigned long long>(phase.violations), peak.allocs_per_req,
                peak.metadata_bytes_per_req);
  }
  uint64_t enforced_violations = 0;
  for (const PhaseResult& phase : phases) {
    if (phase.antipode) {
      enforced_violations += phase.violations;
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
