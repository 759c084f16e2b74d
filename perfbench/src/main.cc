// perfbench: the repository benchmark binary. One run measures one
// workload (post_notif, mesh_deep, timeline_read; see workloads.h):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]
//
// Untraced run (--trace 0): three cold set-ups (stores + topology + warm-up;
// the median is `setup_s`), then an open-loop nominal window (60% of the
// run) and a closed-loop saturation window (40%). Traced run (--trace 1): one
// set-up, an untraced and a traced nominal window (half each, the difference
// is the tracing overhead), then the single-layer replay pass.
//
// Every line but the last is human-readable; the last line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero when a self-check fails: an enforced read missed its write, a
// request neither completed nor failed, a layer failed, or the generator ran
// late by more than kMaxLateShare of the arrival interval (median).

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/loadgen.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/workloads.h"
#include "src/common/clock.h"
#include "src/common/timer_service.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

constexpr double kTimeScale = 0.02;
constexpr int kUntracedSetups = 3;
constexpr double kNominalShare = 0.6;  // of --seconds, untraced run
// The generator's median lateness (release − scheduled arrival) may not
// exceed this share of the arrival interval.
constexpr double kMaxLateShare = 2.0;
// Hard wall-clock bound for one run; a hung layer ends the run nonzero.
constexpr double kWatchdogS = 170.0;
constexpr size_t kCaptureLimit = 256;
// Spans of the traced window's first requests are written out; all of them
// are summarized.
constexpr uint64_t kWrittenRequests = 5000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

// Ends the process if the run outlives its bound (a layer hung).
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds), [&] { return done_; })) {
            std::fprintf(stderr, "perfbench: run exceeded %.0f s, aborting\n", seconds);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

// Samples the summed timer queue depth of the shared TimerService.
class QueueDepthSampler {
 public:
  QueueDepthSampler() {
    const size_t shards = antipode::TimerService::Shared().num_shards();
    for (size_t i = 0; i < shards; ++i) {
      gauges_.push_back(antipode::MetricsRegistry::Default().GetGauge(
          "timer.queue_depth", {{"shard", std::to_string(i)}}));
    }
    thread_ = std::thread([this] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!cv_.wait_for(lock, std::chrono::milliseconds(5), [&] { return done_; })) {
        int64_t depth = 0;
        for (const antipode::Gauge* gauge : gauges_) {
          depth += gauge->value();
        }
        max_ = std::max(max_, depth);
      }
    });
  }
  ~QueueDepthSampler() { Stop(); }
  QueueDepthSampler(const QueueDepthSampler&) = delete;
  QueueDepthSampler& operator=(const QueueDepthSampler&) = delete;

  int64_t Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
      thread_.join();
    }
    return max_;
  }

 private:
  std::vector<antipode::Gauge*> gauges_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  int64_t max_ = 0;
  std::thread thread_;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t violations = 0;
  uint64_t failed = 0;
  uint64_t unfinished = 0;
  bool generator_late = false;
  bool request_limit_hit = false;

  void Add(const WindowResult& window, const char* label) {
    attempted += window.issued;
    violations += window.violations;
    failed += window.failed;
    unfinished += window.unfinished;
    if (window.issued >= Window::kMaxRequests) {
      std::printf("# window %s reached the %llu-request limit\n", label,
                  static_cast<unsigned long long>(Window::kMaxRequests));
      request_limit_hit = true;
    }
    std::printf("# window %-12s issued %8llu ok %8llu violations %llu failed %llu "
                "unfinished %llu  %.1f req/s\n",
                label, static_cast<unsigned long long>(window.issued),
                static_cast<unsigned long long>(window.ok),
                static_cast<unsigned long long>(window.violations),
                static_cast<unsigned long long>(window.failed),
                static_cast<unsigned long long>(window.unfinished), window.throughput_req_s);
  }

  // Open-loop windows only: the generator must keep up with its schedule.
  void CheckLateness(const WindowResult& window, const char* label) {
    const double late_p50 = Quantile(window.late_ms, 0.5);
    const double limit = kMaxLateShare * window.arrival_interval_ms;
    std::printf("# window %-12s generator late p50 %.4f ms (limit %.4f ms = %.2f x interval)\n",
                label, late_p50, limit, kMaxLateShare);
    if (late_p50 > limit) {
      generator_late = true;
    }
  }

  bool correct() const {
    return violations == 0 && failed == 0 && unfinished == 0 && !generator_late &&
           !request_limit_hit;
  }
};

using MetricList = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Put(MetricList& metrics, const std::string& name, double value, const std::string& unit) {
  metrics.push_back({name, {value, unit}});
}

double PerReq(double total, uint64_t requests) {
  return requests == 0 ? 0.0 : total / static_cast<double>(requests);
}

uint64_t Completed(const WindowResult& window) { return window.ok + window.violations; }

// Per-second figures, median over the window's whole seconds: a stall of a
// few seconds on a shared host moves them less than whole-window means. A
// window too short to hold whole seconds falls back to the whole-window figure.
double MaxReqS(const WindowResult& saturation) {
  return saturation.per_second_req_s.empty() ? saturation.throughput_req_s
                                             : Quantile(saturation.per_second_req_s, 0.5);
}

double CpuUsPerReq(const WindowResult& open) {
  return open.per_second_cpu_us_per_req.empty() ? PerReq(open.cpu_s * 1e6, Completed(open))
                                                : Quantile(open.per_second_cpu_us_per_req, 0.5);
}

WindowResult RunOpen(Workload& bed, const WorkloadSpec& spec, double seconds,
                     uint64_t* next_index) {
  WindowOptions options;
  options.rate = spec.nominal_rate;
  options.seconds = seconds;
  options.first_index = *next_index;
  Window window(&bed, options);
  WindowResult result = window.Run();
  *next_index += result.issued;
  return result;
}

WindowResult RunClosed(Workload& bed, const WorkloadSpec& spec, double seconds,
                       uint64_t* next_index) {
  WindowOptions options;
  options.closed_loop = true;
  options.outstanding = spec.saturation_outstanding;
  options.seconds = seconds;
  options.first_index = *next_index;
  Window window(&bed, options);
  WindowResult result = window.Run();
  *next_index += result.issued;
  return result;
}

// Builds the bed and warms it up; returns set-up seconds.
double SetUp(const Args& args, const WorkloadSpec& spec, int round, Tally* tally,
             uint64_t* next_index, std::unique_ptr<Workload>* bed) {
  const int64_t t0 = NowNs();
  // Every set-up replays the stream from its start on fresh stores.
  *next_index = 0;
  *bed = MakeWorkload(args.workload, args.seed, "s" + std::to_string(round));
  const WindowResult warmup = RunOpen(**bed, spec, spec.warmup_s, next_index);
  const double seconds = static_cast<double>(NowNs() - t0) / 1e9;
  tally->attempted += warmup.issued;
  tally->violations += warmup.violations;
  tally->failed += warmup.failed;
  tally->unfinished += warmup.unfinished;
  std::printf("# set-up %d: %.4f s (warm-up %llu requests)\n", round, seconds,
              static_cast<unsigned long long>(warmup.issued));
  return seconds;
}

void PrintResult(const Tally& tally, const MetricList& metrics) {
  for (const auto& [name, value] : metrics) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), value.first, value.second.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(tally.attempted, 1)),
              static_cast<unsigned long long>(tally.failed + tally.violations + tally.unfinished));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value.first, value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// --- Untraced run: end-to-end metrics ---------------------------------------

int RunUntraced(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  uint64_t next_index = 0;
  std::vector<double> setups;
  std::unique_ptr<Workload> bed;
  for (int round = 0; round < kUntracedSetups; ++round) {
    bed.reset();
    setups.push_back(SetUp(args, spec, round, &tally, &next_index, &bed));
  }

  antipode::MetricsRegistry::Default().SnapshotAndReset();
  bed->ResetSiteCounters();
  const WindowResult nominal = RunOpen(*bed, spec, kNominalShare * args.seconds, &next_index);
  const Workload::SiteCounters sites = bed->site_counters();
  const WindowResult saturation =
      RunClosed(*bed, spec, (1.0 - kNominalShare) * args.seconds, &next_index);
  bed.reset();

  tally.Add(nominal, "nominal");
  tally.CheckLateness(nominal, "nominal");
  tally.Add(saturation, "saturation");

  const uint64_t completed = Completed(nominal);
  const double violation_rate =
      PerReq(static_cast<double>(tally.violations + tally.failed + tally.unfinished),
             tally.attempted);
  std::printf("# time_scale %.3f, nominal rate %.0f req/s, saturation outstanding %u, "
              "violation_rate %.6f (must be 0)\n",
              antipode::TimeScale::Get(), spec.nominal_rate, spec.saturation_outstanding,
              violation_rate);
  MetricList metrics;
  Put(metrics, "p50_ms", Quantile(nominal.latency_ms, 0.50), "ms");
  Put(metrics, "p99_ms", Quantile(nominal.latency_ms, 0.99), "ms");
  std::printf("# saturation req/s per second:");
  for (const double rate : saturation.per_second_req_s) {
    std::printf(" %.0f", rate);
  }
  std::printf("\n# nominal cpu us/req per second:");
  for (const double cpu : nominal.per_second_cpu_us_per_req) {
    std::printf(" %.1f", cpu);
  }
  std::printf("\n");
  Put(metrics, "max_req_s", MaxReqS(saturation), "1/s");
  Put(metrics, "cpu_us_per_req", CpuUsPerReq(nominal), "us");
  Put(metrics, "allocs_per_req", PerReq(static_cast<double>(nominal.allocations), completed),
      "count");
  Put(metrics, "metadata_bytes_per_req",
      PerReq(static_cast<double>(sites.metadata_bytes), sites.sites), "B");
  Put(metrics, "setup_s", Quantile(setups, 0.5), "s");
  PrintResult(tally, metrics);
  return tally.correct() ? 0 : 1;
}

// --- Traced run: per-layer metrics ------------------------------------------

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  Tally tally;
  uint64_t next_index = 0;
  std::unique_ptr<Workload> bed;
  SetUp(args, spec, 0, &tally, &next_index, &bed);

  const double half = 0.5 * args.seconds;
  const WindowResult untraced = RunOpen(*bed, spec, half, &next_index);

  antipode::MetricsRegistry::Default().SnapshotAndReset();
  bed->ResetSiteCounters();
  bed->StartCapture(kCaptureLimit);
  SpanRecorder::SetEnabled(true);
  QueueDepthSampler sampler;
  const uint64_t first_traced = next_index;
  const WindowResult traced = RunOpen(*bed, spec, half, &next_index);
  const int64_t queue_depth_max = sampler.Stop();
  SpanRecorder::SetEnabled(false);
  const antipode::MetricsSnapshot snap = antipode::MetricsRegistry::Default().SnapshotAndReset();
  const Workload::SiteCounters sites = bed->site_counters();
  ReplayInput replay_input;
  replay_input.contexts = bed->TakeContexts();
  replay_input.lineages = bed->TakeLineages();
  replay_input.mean_deps = PerReq(static_cast<double>(sites.deps), sites.sites);
  bed.reset();

  tally.Add(untraced, "untraced");
  tally.CheckLateness(untraced, "untraced");
  tally.Add(traced, "traced");

  std::vector<SpanRecord> spans = SpanRecorder::TakeAll();
  if (!args.spans_out.empty()) {
    std::vector<SpanRecord> written;
    for (const SpanRecord& span : spans) {
      if (span.request < first_traced + kWrittenRequests) {
        written.push_back(span);
      }
    }
    if (WriteSpans(written, args.spans_out)) {
      std::printf("# wrote %zu of %zu spans to %s\n", written.size(), spans.size(),
                  args.spans_out.c_str());
    } else {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_out.c_str());
    }
  }
  const SpanSummary summary = Summarize(std::move(spans));
  const ReplayResult replay = RunReplays(replay_input, "r");

  const uint64_t completed = Completed(traced);
  const auto counter = [&](const char* name) {
    return static_cast<double>(snap.CounterTotal(name));
  };
  const auto per_req = [&](double total) { return PerReq(total, completed); };
  const auto span_ms = [&](SpanName name, double q) {
    return Quantile(summary.durations_ms[static_cast<size_t>(name)], q);
  };
  // mesh_deep calls Barrier inside LiveMesh::RunReaderSide: time that span.
  const SpanName barrier_span =
      summary.count[static_cast<size_t>(SpanName::kBarrier)] > 0 ? SpanName::kBarrier
                                                                 : SpanName::kReaderSide;
  const antipode::Histogram stall = snap.HistogramTotal("barrier.stall_model_ms");
  const antipode::Histogram lag = snap.HistogramTotal("store.replication_lag_model_ms");
  const antipode::Histogram dispatch = snap.HistogramTotal("timer.dispatch_lag_ms");
  const double hits = counter("barrier.cache_hit");
  const double misses = counter("barrier.cache_miss");

  MetricList m;
  Put(m, "process.cpu_us_per_req", CpuUsPerReq(untraced), "us");
  Put(m, "loadgen.late_p99_ms", Quantile(traced.late_ms, 0.99), "ms");
  Put(m, "loadgen.queue_wait_p99_ms", Quantile(traced.queue_wait_ms, 0.99), "ms");
  Put(m, "mesh.writer_side_ms_p50", span_ms(SpanName::kWriterSide, 0.50), "ms");
  Put(m, "mesh.writer_side_ms_p99", span_ms(SpanName::kWriterSide, 0.99), "ms");
  Put(m, "mesh.reader_side_ms_p50", span_ms(SpanName::kReaderSide, 0.50), "ms");
  Put(m, "rpc.hop_ns", replay.rpc_hop_ns, "ns");
  Put(m, "rpc.hop_allocs", replay.rpc_hop_allocs, "count");
  Put(m, "rpc.calls_per_req", per_req(counter("rpc.calls")), "count");
  Put(m, "rpc.failures",
      counter("rpc.retries") + counter("rpc.errors") + counter("rpc.deadline_exceeded"), "count");
  Put(m, "context.hop_ns", replay.context_hop_ns, "ns");
  Put(m, "context.hop_allocs", replay.context_hop_allocs, "count");
  Put(m, "context.blob_bytes", replay.context_blob_bytes, "B");
  Put(m, "lineage.encode_ns", replay.lineage_encode_ns, "ns");
  Put(m, "lineage.decode_ns", replay.lineage_decode_ns, "ns");
  Put(m, "lineage.decode_allocs", replay.lineage_decode_allocs, "count");
  Put(m, "lineage.deps_per_req", replay_input.mean_deps, "count");
  Put(m, "shim.write_ns", replay.shim_write_ns, "ns");
  Put(m, "shim.write_allocs", replay.shim_write_allocs, "count");
  Put(m, "shim.read_ns", replay.shim_read_ns, "ns");
  Put(m, "barrier.wait_ms_p50", span_ms(barrier_span, 0.50), "ms");
  Put(m, "barrier.wait_ms_p99", span_ms(barrier_span, 0.99), "ms");
  Put(m, "barrier.probe_ns", replay.barrier_probe_ns, "ns");
  Put(m, "visibility_cache.probe_ns", replay.cache_probe_ns, "ns");
  Put(m, "barrier.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  Put(m, "barrier.zero_wait_ratio",
      counter("barrier.calls") > 0 ? counter("barrier.zero_wait") / counter("barrier.calls") : 0.0,
      "ratio");
  Put(m, "barrier.stall_model_ms_p50", stall.Percentile(0.50), "ms");
  Put(m, "barrier.stall_model_ms_p99", stall.Percentile(0.99), "ms");
  Put(m, "barrier.failures", counter("barrier.errors"), "count");
  Put(m, "store.put_ns", replay.store_put_ns, "ns");
  Put(m, "store.put_allocs", replay.store_put_allocs, "count");
  Put(m, "store.replication_lag_model_ms_p50", lag.Percentile(0.50), "ms");
  Put(m, "store.replication_lag_model_ms_p99", lag.Percentile(0.99), "ms");
  Put(m, "store.writes_per_req", per_req(counter("store.writes")), "count");
  Put(m, "store.bytes_written_per_req", per_req(counter("store.bytes_written")), "B");
  Put(m, "store.retries", counter("store.apply_retries") + counter("queue.redeliveries"), "count");
  Put(m, "timer.dispatch_lag_ms_p99", dispatch.Percentile(0.99), "ms");
  Put(m, "timer.callbacks_per_req", per_req(counter("timer.callbacks_run")), "count");
  Put(m, "timer.queue_depth_max", static_cast<double>(queue_depth_max), "count");
  Put(m, "net.messages_per_req", per_req(counter("net.messages")), "count");
  Put(m, "net.bytes_per_req", per_req(counter("net.bytes")), "B");
  for (size_t n = 0; n < kNumSpanNames; ++n) {
    const std::string prefix = std::string("trace.") + SpanNameString(static_cast<SpanName>(n));
    Put(m, prefix + ".count_per_req", PerReq(static_cast<double>(summary.count[n]), summary.requests),
        "count");
    Put(m, prefix + ".self_us_per_req", PerReq(summary.self_ms[n] * 1e3, summary.requests), "us");
  }
  Put(m, "trace.overhead_p50_ms",
      Quantile(traced.latency_ms, 0.5) - Quantile(untraced.latency_ms, 0.5), "ms");
  Put(m, "trace.overhead_cpu_us_per_req", CpuUsPerReq(traced) - CpuUsPerReq(untraced), "us");
  PrintResult(tally, m);
  return tally.correct() ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans-out <path>]\n");
    return 2;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *found;
  antipode::TimeScale::Set(kTimeScale);
  std::printf("# perfbench workload=%s seed=%llu seconds=%.1f trace=%d time_scale=%.3f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, kTimeScale);
  Watchdog watchdog(kWatchdogS);
  return args.trace != 0 ? RunTraced(args, spec) : RunUntraced(args, spec);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
