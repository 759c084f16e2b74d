// Sustained-load saturation sweep over the two case-study apps.
//
// An open-loop generator (fixed inter-arrival interval, issued regardless of
// completion — the Ditto/Palette methodology) drives the post-notification
// and media-service request flows at increasing arrival rates across their
// multi-region ReplicatedStore topologies. Each phase ramps the offered rate
// geometrically until saturation: the first load point where the achieved
// completion rate falls below the sustainment threshold (95% of offered) or
// the drain deadline expires with requests still in flight. The phase reports
// its peak sustained req/s and the wall-clock p50/p99/p999 end-to-end latency
// at that point.
//
// Phases: post-notification {baseline, Antipode cache on, Antipode cache off,
// Antipode stable-frontier} and media-service {baseline, Antipode, Antipode
// stable-frontier}. End-to-end latency is writer send → reader/render
// completion (including the barrier on Antipode phases), measured on the
// steady wall clock — replication delays are scaled model time, so wall
// latency is what saturation actually degrades. Each phase also accounts the
// enforcement-metadata bytes its backend ships per request (lineage wire size
// vs one HLC-cut varint), giving the strategy head-to-head both axes.
//
// Replication profiles are pinned (no S3-style slow second mode): the sweep
// measures throughput collapse, and a 1.6 s real-time straggler mode would
// alias with genuine saturation at every rate.
//
// Emits the machine-readable BENCH_load_sweep.json (schema: DESIGN.md §11)
// at --json-out (default: repo-root filename in the working directory).
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

#include "bench/bench_util.h"
#include "src/antipode/antipode.h"
#include "src/common/histogram.h"
#include "src/common/serialization.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"
#include "src/obs/metrics.h"
#include "src/store/doc_store.h"
#include "src/store/kv_store.h"
#include "src/store/object_store.h"
#include "src/store/pubsub_store.h"
#include "src/store/queue_store.h"

namespace antipode {
namespace {

// A load point is sustained when the post-generation drain tail stays under
// max(half the window, this floor) — see RunLoadPoint.
constexpr double kMinDrainTailSlackS = 0.2;

std::atomic<uint64_t> g_bed_counter{0};

uint64_t NowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

struct SweepConfig {
  double duration_s = 1.5;    // generation window per load point
  double drain_cap_s = 8.0;   // extra real time allowed for in-flight drain
  double start_rate = 500.0;  // req/s
  double rate_factor = 2.0;
  int max_steps = 7;
  int writers = 8;
  int readers = 8;
  uint64_t seed = 7;
};

struct RatePoint {
  double offered_req_s = 0.0;
  double achieved_req_s = 0.0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double violation_rate = 0.0;
  // Mean enforcement-metadata bytes a request's barrier would ship with the
  // phase's backend (lineage wire size vs one HLC-cut varint); 0 on baseline
  // phases, which carry no lineage at all.
  double metadata_bytes_per_req = 0.0;
  bool saturated = false;
};

struct PhaseResult {
  std::string name;
  std::string app;
  bool antipode = false;
  bool cache = true;
  // True for the locality bed phases (three region-group-disjoint pairs
  // behind one deployment-wide barrier).
  bool locality = false;
  bool use_scope = true;
  std::string backend = "none";
  // barrier.scoped_skip accumulated over the phase: ⟨dependency, region⟩
  // pairs the barriers never armed because the dependency's locality scope
  // excluded the region.
  uint64_t scoped_skips = 0;
  std::vector<RatePoint> points;

  // Peak = the best non-saturated point; if every point saturated (the
  // generator outran the system even at the lowest rate), the highest
  // achieved throughput is still the honest answer.
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

// One request flow under test: Issue() runs the writer side (called from the
// generator's writer pool inside a fresh RequestContext), completions are
// counted by the bed's subscriber. Beds are rebuilt per load point so every
// point starts with cold stores and an empty timer backlog.
class Bed {
 public:
  virtual ~Bed() = default;
  // `send_ns` is the request's scheduled arrival time: latency is measured
  // from there, so writer-pool queueing (the first thing saturation inflates)
  // is part of every reported percentile.
  virtual void Issue(uint64_t request_index, uint64_t send_ns) = 0;
  virtual void Drain() = 0;

  uint64_t completed() const { return completed_.load(std::memory_order_relaxed); }
  uint64_t violations() const { return violations_.load(std::memory_order_relaxed); }
  uint64_t metadata_bytes() const { return metadata_bytes_.load(std::memory_order_relaxed); }
  const ConcurrentHistogram& latency() const { return latency_; }

 protected:
  // Called at the barrier site with the lineage the request actually carried:
  // accounts what the phase's enforcement strategy ships per request.
  void RecordMetadata(EnforcementBackendKind backend, const Lineage& lineage) {
    metadata_bytes_.fetch_add(EnforcementMetadataBytes(backend, lineage),
                              std::memory_order_relaxed);
  }

  void RecordCompletion(uint64_t send_ns, bool found) {
    latency_.Record(static_cast<double>(NowNanos() - send_ns) / 1e6);
    if (!found) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(done_mu_);
    done_cv_.notify_all();
  }

  // Waits until `issued` completions or `deadline`; true when fully drained.
  bool AwaitCompletions(uint64_t issued, std::chrono::steady_clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(done_mu_);
    return done_cv_.wait_until(lock, deadline, [&] {
      return completed_.load(std::memory_order_relaxed) >= issued;
    });
  }

  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> violations_{0};
  std::atomic<uint64_t> metadata_bytes_{0};
  ConcurrentHistogram latency_;
  std::mutex done_mu_;
  std::condition_variable done_cv_;

  friend RatePoint RunLoadPoint(Bed&, double, const SweepConfig&);
};

std::string EncodePayload(const std::string& id, uint64_t send_ns) {
  Serializer s;
  s.WriteString(id);
  s.WriteUint64(send_ns);
  return s.Release();
}

bool DecodePayload(const std::string& payload, std::string* id, uint64_t* send_ns) {
  Deserializer d(payload);
  auto decoded_id = d.ReadString();
  auto decoded_ns = d.ReadUint64();
  if (!decoded_id.ok() || !decoded_ns.ok()) {
    return false;
  }
  *id = std::move(*decoded_id);
  *send_ns = *decoded_ns;
  return true;
}

// Post-notification topology: Redis-like post storage + SNS-like notifier,
// writer in EU, reader in US (paper §7.2 placement).
class PostBed : public Bed {
 public:
  PostBed(bool antipode, bool use_cache, EnforcementBackendKind backend, ThreadPool* readers)
      : antipode_(antipode), backend_(backend),
        tag_(std::to_string(g_bed_counter.fetch_add(1))) {
    const std::vector<Region> regions = {Region::kEu, Region::kUs};
    auto post_options = KvStore::DefaultOptions("sweep-post-" + tag_, regions);
    post_options.replication.slow_mode_probability = 0.0;
    posts_ = std::make_unique<KvStore>(std::move(post_options));
    auto notif_options = PubSubStore::DefaultOptions("sweep-notif-" + tag_, regions);
    notif_options.replication.slow_mode_probability = 0.0;
    notifs_ = std::make_unique<PubSubStore>(std::move(notif_options));
    post_shim_ = std::make_unique<KvShim>(posts_.get());
    notif_shim_ = std::make_unique<PubSubShim>(notifs_.get());
    registry_.Register(post_shim_.get());
    registry_.Register(notif_shim_.get());
    barrier_options_ =
        BarrierOptions{.registry = &registry_, .use_cache = use_cache, .backend = backend};

    auto on_message = [this](const ConsumedMessage& message) {
      std::string post_id;
      uint64_t send_ns = 0;
      if (!DecodePayload(message.payload, &post_id, &send_ns)) {
        return;
      }
      if (antipode_) {
        RecordMetadata(backend_, message.lineage);
        Barrier(message.lineage, Region::kUs, barrier_options_);
      }
      const bool found = antipode_ ? post_shim_->ReadCtx(Region::kUs, post_id).ok()
                                   : posts_->GetValue(Region::kUs, post_id).has_value();
      RecordCompletion(send_ns, found);
    };
    if (antipode_) {
      notif_shim_->Subscribe(Region::kUs, kTopic, readers, on_message);
    } else {
      notifs_->Subscribe(Region::kUs, kTopic, readers,
                         [on_message](const BrokerMessage& message) {
                           on_message(ConsumedMessage{std::string(message.payload()), Lineage(),
                                                      message.delivered_at});
                         });
    }
  }

  void Issue(uint64_t request_index, uint64_t send_ns) override {
    const std::string post_id = "p" + tag_ + "-" + std::to_string(request_index);
    if (antipode_) {
      LineageApi::Root();
      post_shim_->WriteCtx(Region::kEu, post_id, kPostBody);
      notif_shim_->PublishCtx(Region::kEu, kTopic, EncodePayload(post_id, send_ns));
    } else {
      posts_->Set(Region::kEu, post_id, kPostBody);
      notifs_->Publish(Region::kEu, kTopic, EncodePayload(post_id, send_ns));
    }
  }

  void Drain() override {
    posts_->DrainReplication();
    notifs_->DrainReplication();
  }

 private:
  static constexpr char kTopic[] = "new-posts";
  static constexpr char kPostBody[] = "post-body";

  bool antipode_;
  EnforcementBackendKind backend_;
  std::string tag_;
  std::unique_ptr<KvStore> posts_;
  std::unique_ptr<PubSubStore> notifs_;
  std::unique_ptr<KvShim> post_shim_;
  std::unique_ptr<PubSubShim> notif_shim_;
  ShimRegistry registry_;
  BarrierOptions barrier_options_;
};

// Media-service topology: S3-like blob + Mongo-like review doc + RabbitMQ-
// like event queue; render worker in EU enforces both read dependencies
// through one lineage.
class MediaBed : public Bed {
 public:
  MediaBed(bool antipode, bool use_cache, EnforcementBackendKind backend, ThreadPool* renderers)
      : antipode_(antipode), backend_(backend),
        tag_(std::to_string(g_bed_counter.fetch_add(1))) {
    const std::vector<Region> regions = {Region::kUs, Region::kEu};
    auto media_options = ObjectStore::DefaultOptions("sweep-media-" + tag_, regions);
    media_options.replication.median_millis = 900.0;
    media_options.replication.slow_mode_probability = 0.0;
    media_ = std::make_unique<ObjectStore>(std::move(media_options));
    reviews_ = std::make_unique<DocStore>(
        DocStore::DefaultOptions("sweep-reviews-" + tag_, regions));
    events_ = std::make_unique<QueueStore>(
        QueueStore::DefaultOptions("sweep-events-" + tag_, regions));
    media_shim_ = std::make_unique<ObjectShim>(media_.get());
    review_shim_ = std::make_unique<DocShim>(reviews_.get());
    event_shim_ = std::make_unique<QueueShim>(events_.get());
    registry_.Register(media_shim_.get());
    registry_.Register(review_shim_.get());
    registry_.Register(event_shim_.get());
    barrier_options_ =
        BarrierOptions{.registry = &registry_, .use_cache = use_cache, .backend = backend};

    auto render = [this](const ConsumedMessage& message) {
      std::string review_id;
      uint64_t send_ns = 0;
      if (!DecodePayload(message.payload, &review_id, &send_ns)) {
        return;
      }
      if (antipode_) {
        RecordMetadata(backend_, message.lineage);
        Barrier(message.lineage, Region::kEu, barrier_options_);
      }
      bool found = false;
      std::optional<Document> review;
      if (antipode_) {
        auto result = review_shim_->FindByIdCtx(Region::kEu, "reviews", review_id);
        if (result.ok()) {
          review = std::move(*result);
        }
      } else {
        review = reviews_->FindById(Region::kEu, "reviews", review_id);
      }
      if (review.has_value()) {
        auto media_key = review->Get("media");
        if (media_key.has_value() && media_key->is_string()) {
          found = antipode_
                      ? media_shim_->GetObjectCtx(Region::kEu, "media",
                                                  media_key->as_string()).ok()
                      : media_->GetObject(Region::kEu, "media",
                                          media_key->as_string()).has_value();
        }
      }
      RecordCompletion(send_ns, found);
    };
    if (antipode_) {
      event_shim_->Subscribe(Region::kEu, kQueue, renderers, render);
    } else {
      events_->Subscribe(Region::kEu, kQueue, renderers,
                         [render](const BrokerMessage& message) {
                           render(ConsumedMessage{std::string(message.payload()), Lineage(),
                                                  message.delivered_at});
                         });
    }
  }

  void Issue(uint64_t request_index, uint64_t send_ns) override {
    const std::string media_key = "poster-" + tag_ + "-" + std::to_string(request_index);
    const std::string review_id = "review-" + tag_ + "-" + std::to_string(request_index);
    Document review{{"media", Value(media_key)}, {"stars", Value(static_cast<int64_t>(5))}};
    if (antipode_) {
      LineageApi::Root();
      media_shim_->PutObjectCtx(Region::kUs, "media", media_key, kBlob);
      review_shim_->InsertDocCtx(Region::kUs, "reviews", review_id, std::move(review));
      event_shim_->PublishCtx(Region::kUs, kQueue, EncodePayload(review_id, send_ns));
    } else {
      media_->PutObject(Region::kUs, "media", media_key, kBlob);
      reviews_->InsertDoc(Region::kUs, "reviews", review_id, review);
      events_->Publish(Region::kUs, kQueue, EncodePayload(review_id, send_ns));
    }
  }

  void Drain() override {
    media_->DrainReplication();
    reviews_->DrainReplication();
    events_->DrainReplication();
  }

 private:
  static constexpr char kQueue[] = "review-events";
  static constexpr char kBlob[] = "media-blob";

  bool antipode_;
  EnforcementBackendKind backend_;
  std::string tag_;
  std::unique_ptr<ObjectStore> media_;
  std::unique_ptr<DocStore> reviews_;
  std::unique_ptr<QueueStore> events_;
  std::unique_ptr<ObjectShim> media_shim_;
  std::unique_ptr<DocShim> review_shim_;
  std::unique_ptr<QueueShim> event_shim_;
  ShimRegistry registry_;
  BarrierOptions barrier_options_;
};

// Locality bed: three independent post-notification locality pairs, one per
// region group — ⟨US,EU⟩, ⟨EU,SG⟩, ⟨SG,Local⟩ — in one process. Every pair's
// stores replicate only within the pair, but the reader's barrier is the
// conservative deployment-wide BarrierGlobal over all four regions: exactly
// the shape where locality scoping pays. Scoped barriers (use_scope=true)
// skip the out-of-pair ⟨store, region⟩ pairs outright (barrier.scoped_skip);
// unscoped barriers probe the cache and arm a vacuous wait for each of them.
// The three pairs also live in three distinct region groups, so the phase
// drives the per-group HLC clocks concurrently instead of one shared clock.
class LocalityBed : public Bed {
 public:
  LocalityBed(bool use_cache, EnforcementBackendKind backend, bool use_scope,
              ThreadPool* readers)
      : backend_(backend), tag_(std::to_string(g_bed_counter.fetch_add(1))) {
    static constexpr Region kPairs[kNumPairs][2] = {
        {Region::kEu, Region::kUs},     // group 0 (home US)
        {Region::kSg, Region::kEu},     // group 1 (home EU)
        {Region::kLocal, Region::kSg},  // group 2 (home SG)
    };
    for (int g = 0; g < kNumPairs; ++g) {
      Pair& pair = pairs_[g];
      pair.writer = kPairs[g][0];
      pair.reader = kPairs[g][1];
      const std::vector<Region> regions = {pair.writer, pair.reader};
      const std::string name = "sweep-local" + std::to_string(g) + "-" + tag_;
      auto post_options = KvStore::DefaultOptions(name + "-post", regions);
      post_options.replication.slow_mode_probability = 0.0;
      pair.posts = std::make_unique<KvStore>(std::move(post_options));
      auto notif_options = PubSubStore::DefaultOptions(name + "-notif", regions);
      notif_options.replication.slow_mode_probability = 0.0;
      pair.notifs = std::make_unique<PubSubStore>(std::move(notif_options));
      pair.post_shim = std::make_unique<KvShim>(pair.posts.get());
      pair.notif_shim = std::make_unique<PubSubShim>(pair.notifs.get());
      pair.registry.Register(pair.post_shim.get());
      pair.registry.Register(pair.notif_shim.get());
      pair.options = BarrierOptions{.registry = &pair.registry,
                                    .use_cache = use_cache,
                                    .use_scope = use_scope,
                                    .backend = backend};

      auto on_message = [this, &pair](const ConsumedMessage& message) {
        std::string post_id;
        uint64_t send_ns = 0;
        if (!DecodePayload(message.payload, &post_id, &send_ns)) {
          return;
        }
        RecordMetadata(backend_, message.lineage);
        BarrierGlobal(message.lineage, kBarrierRegions, pair.options);
        const bool found = pair.post_shim->ReadCtx(pair.reader, post_id).ok();
        RecordCompletion(send_ns, found);
      };
      pair.notif_shim->Subscribe(pair.reader, kTopic, readers, on_message);
    }
  }

  void Issue(uint64_t request_index, uint64_t send_ns) override {
    Pair& pair = pairs_[request_index % kNumPairs];
    const std::string post_id = "p" + tag_ + "-" + std::to_string(request_index);
    LineageApi::Root();
    pair.post_shim->WriteCtx(pair.writer, post_id, kPostBody);
    pair.notif_shim->PublishCtx(pair.writer, kTopic, EncodePayload(post_id, send_ns));
  }

  void Drain() override {
    for (Pair& pair : pairs_) {
      pair.posts->DrainReplication();
      pair.notifs->DrainReplication();
    }
  }

 private:
  static constexpr int kNumPairs = 3;
  static constexpr char kTopic[] = "new-posts";
  static constexpr char kPostBody[] = "post-body";
  // The deployment-wide enforcement set a locality-oblivious app would use.
  static inline const std::vector<Region> kBarrierRegions = {Region::kUs, Region::kEu,
                                                             Region::kSg, Region::kLocal};

  struct Pair {
    Region writer = Region::kEu;
    Region reader = Region::kUs;
    std::unique_ptr<KvStore> posts;
    std::unique_ptr<PubSubStore> notifs;
    std::unique_ptr<KvShim> post_shim;
    std::unique_ptr<PubSubShim> notif_shim;
    ShimRegistry registry;
    BarrierOptions options;
  };

  EnforcementBackendKind backend_;
  std::string tag_;
  Pair pairs_[kNumPairs];
};

// Runs one open-loop load point: issues at `rate` for the generation window,
// then waits for in-flight requests up to the drain cap. Writer jobs run on a
// dedicated pool; the generator releases arrivals by wall clock and never
// waits for completions (open loop) — if the system falls behind, work backs
// up in the pools and the achieved rate drops below offered.
RatePoint RunLoadPoint(Bed& bed, double rate, const SweepConfig& config) {
  ThreadPool writers(static_cast<size_t>(config.writers), "sweep-writers");

  const auto start = std::chrono::steady_clock::now();
  const auto gen_end = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                   std::chrono::duration<double>(config.duration_s));
  const auto interval = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(1.0 / rate));

  uint64_t issued = 0;
  auto next_arrival = start;
  while (next_arrival < gen_end) {
    std::this_thread::sleep_until(next_arrival);
    // Release every arrival that is due — at high rates the sleep overshoots
    // multiple intervals and the generator must not silently shed load.
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
  // Saturation = the backlog signal, not the latency floor: when the system
  // keeps up, the drain tail after generation stops is one request's
  // end-to-end latency (constant in rate); when it falls behind, the tail is
  // backlog/capacity and grows with rate. A fixed floor keeps ordinary
  // replication-latency tails from flagging short windows.
  const double drain_tail_s = elapsed_s - config.duration_s;
  point.saturated =
      !drained || drain_tail_s > std::max(0.5 * config.duration_s, kMinDrainTailSlackS);
  // Sustained points completed everything issued over the generation window,
  // so their throughput is completions over that window; saturated points
  // report completions over total elapsed — the rate the system actually
  // sustained while overloaded.
  point.achieved_req_s = point.saturated
                             ? (elapsed_s > 0 ? static_cast<double>(point.completed) / elapsed_s
                                              : 0.0)
                             : static_cast<double>(point.completed) / config.duration_s;
  const Histogram latency = bed.latency().Snapshot();
  point.p50_ms = latency.Percentile(0.50);
  point.p99_ms = latency.Percentile(0.99);
  point.p999_ms = latency.Percentile(0.999);
  point.violation_rate =
      point.completed == 0
          ? 0.0
          : static_cast<double>(bed.violations()) / static_cast<double>(point.completed);
  point.metadata_bytes_per_req =
      point.completed == 0
          ? 0.0
          : static_cast<double>(bed.metadata_bytes()) / static_cast<double>(point.completed);

  // The point is scored; now settle completely before teardown. Every issued
  // request finishes eventually (replication delays are finite and the pools
  // stay live), and teardown while handlers are still queued on the reader
  // pool would race bed destruction — so this wait is unconditional, with the
  // suite-level ctest timeout as the hang backstop.
  writers.Shutdown();
  if (!drained) {
    bed.AwaitCompletions(issued, std::chrono::steady_clock::now() + std::chrono::hours(1));
  }
  bed.Drain();
  return point;
}

struct PhaseSpec {
  const char* name;
  const char* app;  // "post_notification" | "media_service" | "post_local3"
  bool antipode;
  bool use_cache;
  EnforcementBackendKind backend = EnforcementBackendKind::kLineage;
  bool use_scope = true;  // locality bed only; the classic beds never skip
};

PhaseResult RunPhase(const PhaseSpec& spec, const SweepConfig& config) {
  PhaseResult result;
  result.name = spec.name;
  result.app = spec.app;
  result.antipode = spec.antipode;
  result.cache = spec.use_cache;
  result.locality = std::string_view(spec.app) == "post_local3";
  result.use_scope = spec.use_scope;
  result.backend = spec.antipode ? std::string(EnforcementBackendKindName(spec.backend)) : "none";

  std::printf("\n== phase %s ==\n", spec.name);
  std::printf("%12s %12s %8s %8s %10s %10s %10s %6s\n", "offered/s", "achieved/s", "issued",
              "done", "p50 ms", "p99 ms", "p999 ms", "sat");

  double rate = config.start_rate;
  for (int step = 0; step < config.max_steps; ++step) {
    // Fresh reader pool and bed per point: no backlog crosses load points.
    ThreadPool readers(static_cast<size_t>(config.readers), "sweep-readers");
    std::unique_ptr<Bed> bed;
    if (std::string_view(spec.app) == "media_service") {
      bed = std::make_unique<MediaBed>(spec.antipode, spec.use_cache, spec.backend, &readers);
    } else if (std::string_view(spec.app) == "post_local3") {
      bed = std::make_unique<LocalityBed>(spec.use_cache, spec.backend, spec.use_scope, &readers);
    } else {
      bed = std::make_unique<PostBed>(spec.antipode, spec.use_cache, spec.backend, &readers);
    }
    RatePoint point = RunLoadPoint(*bed, rate, config);
    bed.reset();
    readers.Shutdown();

    std::printf("%12.0f %12.0f %8llu %8llu %10.2f %10.2f %10.2f %6s\n", point.offered_req_s,
                point.achieved_req_s, static_cast<unsigned long long>(point.issued),
                static_cast<unsigned long long>(point.completed), point.p50_ms, point.p99_ms,
                point.p999_ms, point.saturated ? "yes" : "no");
    const bool stop = point.saturated;
    result.points.push_back(std::move(point));
    if (stop) {
      break;
    }
    rate *= config.rate_factor;
  }

  // Phase total of barrier.scoped_skip: Main resets the registry before each
  // phase, so the counter's absolute value is this phase's contribution.
  result.scoped_skips = MetricsRegistry::Default().GetCounter("barrier.scoped_skip")->value();

  const RatePoint& peak = result.Peak();
  std::printf("# peak sustained: %.0f req/s (p50 %.2f ms, p99 %.2f ms, p999 %.2f ms, "
              "violation rate %.3f, scoped skips %llu)\n",
              peak.achieved_req_s, peak.p50_ms, peak.p99_ms, peak.p999_ms, peak.violation_rate,
              static_cast<unsigned long long>(result.scoped_skips));
  return result;
}

void EmitJson(const std::vector<PhaseResult>& phases, const SweepConfig& config, bool quick,
              const std::string& path) {
  JsonReport json;
  json.BeginObject();
  json.Field("bench", "load_sweep");
  json.Field("quick", quick);
  json.Field("duration_s", config.duration_s);
  json.Field("min_drain_tail_slack_s", kMinDrainTailSlackS);
  json.BeginArray("phases");
  for (const PhaseResult& phase : phases) {
    const RatePoint& peak = phase.Peak();
    json.BeginObject();
    json.Field("name", phase.name);
    json.Field("app", phase.app);
    json.Field("antipode", phase.antipode);
    json.Field("cache", phase.cache);
    json.Field("locality", phase.locality);
    json.Field("use_scope", phase.use_scope);
    json.Field("scoped_skips", phase.scoped_skips);
    json.Field("backend", phase.backend);
    json.Field("peak_req_s", peak.achieved_req_s);
    json.Field("p50_ms", peak.p50_ms);
    json.Field("p99_ms", peak.p99_ms);
    json.Field("p999_ms", peak.p999_ms);
    json.Field("violation_rate", peak.violation_rate);
    json.Field("metadata_bytes_per_req", peak.metadata_bytes_per_req);
    json.BeginArray("points");
    for (const RatePoint& point : phase.points) {
      json.BeginObject();
      json.Field("offered_req_s", point.offered_req_s);
      json.Field("achieved_req_s", point.achieved_req_s);
      json.Field("issued", point.issued);
      json.Field("completed", point.completed);
      json.Field("p50_ms", point.p50_ms);
      json.Field("p99_ms", point.p99_ms);
      json.Field("p999_ms", point.p999_ms);
      json.Field("violation_rate", point.violation_rate);
      json.Field("metadata_bytes_per_req", point.metadata_bytes_per_req);
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

  SweepConfig config;
  if (quick) {
    config.duration_s = 0.25;
    config.drain_cap_s = 3.0;
    config.start_rate = 200.0;
    config.rate_factor = 4.0;
    config.max_steps = 2;
    config.writers = 4;
    config.readers = 4;
  }
  config.duration_s = args.GetDouble("duration", config.duration_s);
  config.start_rate = args.GetDouble("start-rate", config.start_rate);
  config.rate_factor = args.GetDouble("rate-factor", config.rate_factor);
  config.max_steps = args.GetInt("max-steps", config.max_steps);
  config.writers = args.GetInt("writers", config.writers);
  config.readers = config.writers;
  const std::string json_out = args.GetString("json-out", "BENCH_load_sweep.json");

  std::printf("# open-loop sweep: %.2fs per point, start %.0f req/s x%.1f, max %d steps, "
              "%d writers\n",
              config.duration_s, config.start_rate, config.rate_factor, config.max_steps,
              config.writers);

  // The *_frontier phases rerun the Antipode flows with the stable-frontier
  // backend: same apps, same cache policy — the head-to-head strategy
  // comparison (wait time + metadata bytes) lands in the same report.
  const PhaseSpec specs[] = {
      {"post_baseline", "post_notification", false, true},
      {"post_antipode_cache_on", "post_notification", true, true},
      {"post_antipode_cache_off", "post_notification", true, false},
      {"post_antipode_frontier", "post_notification", true, true,
       EnforcementBackendKind::kStableFrontier},
      {"media_baseline", "media_service", false, true},
      {"media_antipode", "media_service", true, true},
      {"media_antipode_frontier", "media_service", true, true,
       EnforcementBackendKind::kStableFrontier},
      // Locality pair: three region-group-disjoint post-notification pairs
      // behind one deployment-wide barrier; scoped skips the out-of-pair
      // ⟨store, region⟩ waits, unscoped arms them all — same workload.
      {"post_local3_scoped", "post_local3", true, true, EnforcementBackendKind::kLineage, true},
      {"post_local3_unscoped", "post_local3", true, true, EnforcementBackendKind::kLineage,
       false},
  };
  std::vector<PhaseResult> phases;
  for (const PhaseSpec& spec : specs) {
    MetricsRegistry::Default().SnapshotAndReset();  // per-phase isolation
    phases.push_back(RunPhase(spec, config));
  }

  std::printf("\n%-26s %-16s %14s %10s %10s %10s %10s %10s\n", "phase", "backend", "peak req/s",
              "p50 ms", "p99 ms", "p999 ms", "viol", "md B/req");
  for (const PhaseResult& phase : phases) {
    const RatePoint& peak = phase.Peak();
    std::printf("%-26s %-16s %14.0f %10.2f %10.2f %10.2f %10.3f %10.1f\n", phase.name.c_str(),
                phase.backend.c_str(), peak.achieved_req_s, peak.p50_ms, peak.p99_ms,
                peak.p999_ms, peak.violation_rate, peak.metadata_bytes_per_req);
  }

  EmitJson(phases, config, quick, json_out);
  return 0;
}

}  // namespace
}  // namespace antipode

int main(int argc, char** argv) { return antipode::Main(argc, argv); }
