// Fixed-rate open-loop runs of the two case-study apps.
//
// An open-loop generator (bench/open_loop.h) drives the post-notification
// and media-service request flows across their multi-region ReplicatedStore
// topologies at one offered rate for one window per phase — well under the
// knee: perfbench owns capacity, this bench owns the claims. Each phase
// reports issued/completed requests, the wall-clock p50/p99/p999 end-to-end
// latency, the XCY violation rate, the enforcement-metadata bytes its
// backend ships per request (lineage wire size vs one HLC-cut varint) and
// the barrier.scoped_skip count.
//
// Phases: post-notification {baseline, Antipode, Antipode stable-frontier},
// media-service {baseline, Antipode, Antipode stable-frontier}, and the
// locality pair {scoped, unscoped}. Baselines must show violations (the race
// is real); every Antipode phase must show none — the exit code is nonzero
// otherwise. End-to-end latency is writer send → reader/render completion
// (including the barrier on Antipode phases), on the steady wall clock.
//
// Replication profiles are pinned (no S3-style slow second mode): a 1.6 s
// real-time straggler mode would dominate every percentile of a short window.
//
// Emits the machine-readable BENCH_load_sweep.json (schema: DESIGN.md §11)
// at --json-out (default: repo-root filename in the working directory).
//
// Flags: --scale, --duration=<real s per phase>, --writers,
//        --quick (tiny CI run), --json-out=<path>.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/open_loop.h"
#include "src/antipode/antipode.h"
#include "src/common/serialization.h"
#include "src/common/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/store/doc_store.h"
#include "src/store/kv_store.h"
#include "src/store/object_store.h"
#include "src/store/pubsub_store.h"
#include "src/store/queue_store.h"

namespace antipode {
namespace {

std::atomic<uint64_t> g_bed_counter{0};

struct PhaseResult {
  std::string name;
  std::string app;
  bool antipode = false;
  // True for the locality bed phases (three region-group-disjoint pairs
  // behind one deployment-wide barrier).
  bool locality = false;
  bool use_scope = true;
  std::string backend = "none";
  // barrier.scoped_skip accumulated over the phase: ⟨dependency, region⟩
  // pairs the barriers never armed because the dependency's locality scope
  // excluded the region.
  uint64_t scoped_skips = 0;
  WindowResult window;

  double violation_rate() const {
    return window.completed == 0 ? 0.0
                                 : static_cast<double>(window.violations) /
                                       static_cast<double>(window.completed);
  }
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
class PostBed : public OpenLoopBed {
 public:
  PostBed(bool antipode, EnforcementBackendKind backend, ThreadPool* readers)
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
    barrier_options_ = BarrierOptions{.registry = &registry_, .backend = backend};

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
class MediaBed : public OpenLoopBed {
 public:
  MediaBed(bool antipode, EnforcementBackendKind backend, ThreadPool* renderers)
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
    barrier_options_ = BarrierOptions{.registry = &registry_, .backend = backend};

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
// unscoped barriers probe the records and arm a vacuous wait for each of them.
// The three pairs also live in three distinct region groups, so the phase
// drives the per-group HLC clocks concurrently instead of one shared clock.
class LocalityBed : public OpenLoopBed {
 public:
  LocalityBed(EnforcementBackendKind backend, bool use_scope, ThreadPool* readers)
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

struct PhaseSpec {
  const char* name;
  const char* app;  // "post_notification" | "media_service" | "post_local3"
  bool antipode;
  EnforcementBackendKind backend = EnforcementBackendKind::kLineage;
  bool use_scope = true;  // locality bed only; the classic beds never skip
};

PhaseResult RunPhase(const PhaseSpec& spec, const WindowConfig& config) {
  PhaseResult result;
  result.name = spec.name;
  result.app = spec.app;
  result.antipode = spec.antipode;
  result.locality = std::string_view(spec.app) == "post_local3";
  result.use_scope = spec.use_scope;
  result.backend = spec.antipode ? std::string(EnforcementBackendKindName(spec.backend)) : "none";

  ThreadPool readers(static_cast<size_t>(config.writers), "sweep-readers");
  // A fresh bed per phase: cold stores and an empty timer backlog.
  std::unique_ptr<OpenLoopBed> bed;
  if (std::string_view(spec.app) == "media_service") {
    bed = std::make_unique<MediaBed>(spec.antipode, spec.backend, &readers);
  } else if (result.locality) {
    bed = std::make_unique<LocalityBed>(spec.backend, spec.use_scope, &readers);
  } else {
    bed = std::make_unique<PostBed>(spec.antipode, spec.backend, &readers);
  }
  result.window = RunWindow(*bed, config);
  bed.reset();
  readers.Shutdown();
  // Main resets the registry before each phase, so the counter's absolute
  // value is this phase's contribution.
  result.scoped_skips = MetricsRegistry::Default().GetCounter("barrier.scoped_skip")->value();
  return result;
}

void EmitJson(const std::vector<PhaseResult>& phases, const WindowConfig& config, bool quick,
              const std::string& path) {
  JsonReport json;
  json.BeginObject();
  json.Field("bench", "load_sweep");
  json.Field("quick", quick);
  json.Field("duration_s", config.duration_s);
  json.BeginArray("phases");
  for (const PhaseResult& phase : phases) {
    json.BeginObject();
    json.Field("name", phase.name);
    json.Field("app", phase.app);
    json.Field("antipode", phase.antipode);
    json.Field("locality", phase.locality);
    json.Field("use_scope", phase.use_scope);
    json.Field("scoped_skips", phase.scoped_skips);
    json.Field("backend", phase.backend);
    EmitWindow(json, phase.window);
    json.Field("violation_rate", phase.violation_rate());
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

  // 2000 req/s sits far below every app's knee (the retired rate ladders
  // sustained 32k req/s on the post flow and 16k on media).
  WindowConfig config{.rate = 2000.0, .duration_s = 1.5, .drain_cap_s = 8.0, .writers = 8};
  if (quick) {
    config = WindowConfig{.rate = 200.0, .duration_s = 0.25, .drain_cap_s = 3.0, .writers = 4};
  }
  config.duration_s = args.GetDouble("duration", config.duration_s);
  config.writers = args.GetInt("writers", config.writers);
  const std::string json_out = args.GetString("json-out", "BENCH_load_sweep.json");

  std::printf("# open-loop: %.0f req/s for %.2fs per phase, %d writers\n", config.rate,
              config.duration_s, config.writers);

  // The *_frontier phases rerun the Antipode flows with the stable-frontier
  // backend: the head-to-head strategy comparison (wait time + metadata
  // bytes) lands in the same report. The locality pair: three
  // region-group-disjoint post-notification pairs behind one
  // deployment-wide barrier; scoped skips the out-of-pair ⟨store, region⟩
  // waits, unscoped arms them all — same workload.
  const PhaseSpec specs[] = {
      {"post_baseline", "post_notification", false},
      {"post_antipode", "post_notification", true},
      {"post_antipode_frontier", "post_notification", true,
       EnforcementBackendKind::kStableFrontier},
      {"media_baseline", "media_service", false},
      {"media_antipode", "media_service", true},
      {"media_antipode_frontier", "media_service", true,
       EnforcementBackendKind::kStableFrontier},
      {"post_local3_scoped", "post_local3", true, EnforcementBackendKind::kLineage, true},
      {"post_local3_unscoped", "post_local3", true, EnforcementBackendKind::kLineage, false},
  };
  std::printf("\n%-26s %-16s %8s %8s %10s %10s %10s %8s %10s %10s\n", "phase", "backend",
              "issued", "done", "p50 ms", "p99 ms", "p999 ms", "viol", "md B/req", "skips");
  std::vector<PhaseResult> phases;
  uint64_t enforced_violations = 0;
  for (const PhaseSpec& spec : specs) {
    MetricsRegistry::Default().SnapshotAndReset();  // per-phase isolation
    const PhaseResult& phase = phases.emplace_back(RunPhase(spec, config));
    const WindowResult& window = phase.window;
    std::printf("%-26s %-16s %8llu %8llu %10.2f %10.2f %10.2f %8.3f %10.1f %10llu\n",
                phase.name.c_str(), phase.backend.c_str(),
                static_cast<unsigned long long>(window.issued),
                static_cast<unsigned long long>(window.completed), window.p50_ms, window.p99_ms,
                window.p999_ms, phase.violation_rate(), window.metadata_bytes_per_req,
                static_cast<unsigned long long>(phase.scoped_skips));
    if (phase.antipode) {
      enforced_violations += window.violations;
    }
  }

  EmitJson(phases, config, quick, json_out);
  if (enforced_violations != 0) {
    std::fprintf(stderr, "load_sweep: %llu XCY violations under enforcement\n",
                 static_cast<unsigned long long>(enforced_violations));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace antipode

int main(int argc, char** argv) { return antipode::Main(argc, argv); }
