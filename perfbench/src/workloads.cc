#include "perfbench/src/workloads.h"

#include <cstring>

#include "perfbench/src/spans.h"
#include "perfbench/src/stream.h"
#include "src/antipode/antipode.h"
#include "src/antipode/enforcement.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"
#include "src/store/kv_store.h"
#include "src/store/pubsub_store.h"
#include "src/trace/mesh.h"

namespace perfbench {

using antipode::Barrier;
using antipode::BarrierOptions;
using antipode::ConsumedMessage;
using antipode::KvShim;
using antipode::KvStore;
using antipode::Lineage;
using antipode::LineageApi;
using antipode::PubSubShim;
using antipode::PubSubStore;
using antipode::Region;
using antipode::RequestContext;
using antipode::ScopedContext;
using antipode::ShimRegistry;
using antipode::Status;
using antipode::StatusCode;

namespace {

// Capacity / rate figures measured on a 4-core x86 box at TimeScale 0.02
// (see perfbench/README.md, "Sizing the nominal rates").
constexpr WorkloadSpec kSpecs[] = {
    {"post_notif", 12000.0, 2048, 0.3},
    {"mesh_deep", 300.0, 64, 0.5},
    {"timeline_read", 30000.0, 2048, 0.3},
};

// Reader-side executors stand for the reading service's own pool; they are
// sized so blocking barriers never cap throughput below the client pool.
constexpr size_t kReaderThreads = 16;

constexpr char kPostBody[] = "post-body:0123456789abcdef";
constexpr char kTopic[] = "new-posts";

// Notification payload: the window, slot and stream index of the request.
std::string EncodeNotification(Window* window, uint64_t slot, uint64_t index) {
  std::string out(3 * sizeof(uint64_t), '\0');
  const auto ptr = reinterpret_cast<uintptr_t>(window);
  const uint64_t words[3] = {static_cast<uint64_t>(ptr), slot, index};
  std::memcpy(out.data(), words, sizeof(words));
  return out;
}

bool DecodeNotification(const std::string& payload, Window** window, uint64_t* slot,
                        uint64_t* index) {
  uint64_t words[3];
  if (payload.size() != sizeof(words)) {
    return false;
  }
  std::memcpy(words, payload.data(), sizeof(words));
  *window = reinterpret_cast<Window*>(static_cast<uintptr_t>(words[0]));
  *slot = words[1];
  *index = words[2];
  return true;
}

Outcome ReadOutcome(const Status& status) {
  if (status.ok()) {
    return Outcome::kOk;
  }
  return status.code() == StatusCode::kNotFound ? Outcome::kViolation : Outcome::kFailed;
}

antipode::ReplicatedStoreOptions PinnedKvOptions(const std::string& name, std::vector<Region> regions) {
  auto options = KvStore::DefaultOptions(name, std::move(regions));
  // No real-time straggler mode: a 1.6 s slow replica would alias with
  // saturation (the load sweep pins it the same way).
  options.replication.slow_mode_probability = 0.0;
  return options;
}

class PostNotifBed final : public Workload {
 public:
  PostNotifBed(uint64_t seed, const std::string& tag)
      : seed_(seed), subscribers_(kReaderThreads, "perfbench-subscribers") {
    const std::vector<Region> regions = {Region::kEu, Region::kUs};
    posts_ = std::make_unique<KvStore>(PinnedKvOptions("pb-post-" + tag, regions));
    auto notif_options = PubSubStore::DefaultOptions("pb-notif-" + tag, regions);
    notif_options.replication.slow_mode_probability = 0.0;
    notifs_ = std::make_unique<PubSubStore>(std::move(notif_options));
    post_shim_ = std::make_unique<KvShim>(posts_.get());
    notif_shim_ = std::make_unique<PubSubShim>(notifs_.get());
    registry_.Register(post_shim_.get());
    registry_.Register(notif_shim_.get());
    barrier_options_.registry = &registry_;
    notif_shim_->Subscribe(Region::kUs, kTopic, &subscribers_,
                           [this](const ConsumedMessage& message) { OnNotification(message); });
  }

  ~PostNotifBed() override {
    Drain();
    subscribers_.Shutdown();
  }

  void Issue(Window* window, uint64_t slot, uint64_t index) override {
    ScopedContext scoped{RequestContext()};
    LineageApi::Root();
    Status status = Status::Ok();
    {
      ScopedSpan writer_side(index, SpanName::kWriterSide);
      {
        ScopedSpan span(index, SpanName::kShimWrite);
        status = post_shim_->WriteCtx(Region::kEu, PostKey(seed_, index), kPostBody);
      }
      if (status.ok()) {
        ScopedSpan span(index, SpanName::kPublish);
        status = notif_shim_->PublishCtx(Region::kEu, kTopic,
                                         EncodeNotification(window, slot, index));
      }
    }
    CaptureCurrentContext();
    if (!status.ok()) {
      window->Complete(slot, Outcome::kFailed);
    }
  }

  void Drain() override {
    posts_->DrainReplication();
    notifs_->DrainReplication();
  }

 private:
  void OnNotification(const ConsumedMessage& message) {
    Window* window = nullptr;
    uint64_t slot = 0;
    uint64_t index = 0;
    if (!DecodeNotification(message.payload, &window, &slot, &index)) {
      return;
    }
    RecordBarrierSite(message.lineage);
    Outcome outcome = Outcome::kOk;
    {
      ScopedSpan reader_side(index, SpanName::kReaderSide);
      Status status = Status::Ok();
      {
        ScopedSpan span(index, SpanName::kBarrier);
        status = Barrier(message.lineage, Region::kUs, barrier_options_);
      }
      if (!status.ok()) {
        outcome = Outcome::kFailed;
      } else {
        ScopedSpan span(index, SpanName::kShimRead);
        outcome = ReadOutcome(post_shim_->ReadCtx(Region::kUs, PostKey(seed_, index)).status());
      }
    }
    window->Complete(slot, outcome);
  }

  uint64_t seed_;
  std::unique_ptr<KvStore> posts_;
  std::unique_ptr<PubSubStore> notifs_;
  std::unique_ptr<KvShim> post_shim_;
  std::unique_ptr<PubSubShim> notif_shim_;
  ShimRegistry registry_;
  BarrierOptions barrier_options_;
  antipode::ThreadPool subscribers_;  // last: joined before the stores go
};

class MeshDeepBed final : public Workload {
 public:
  MeshDeepBed(uint64_t seed, const std::string& tag)
      : seed_(seed),
        topology_(antipode::BuildMeshTopology(antipode::MeshOptions{})),
        readers_(kReaderThreads, "perfbench-mesh-readers") {
    antipode::LiveMeshOptions options;
    options.tag = tag;
    mesh_ = std::make_unique<antipode::LiveMesh>(&topology_, std::move(options));
  }

  ~MeshDeepBed() override {
    readers_.Shutdown();
    Drain();
  }

  void Issue(Window* window, uint64_t slot, uint64_t index) override {
    const auto num_plans = static_cast<uint32_t>(topology_.plans.size());
    // RunWriterSide runs plan request_index % plans and keys every write by
    // request_index: this picks the seeded plan with keys unique per request.
    const uint64_t request_index = index * num_plans + MeshPlanAt(seed_, index, num_plans);
    ScopedContext scoped{RequestContext()};
    antipode::LiveMesh::WriterResult writer;
    {
      ScopedSpan span(index, SpanName::kWriterSide);
      writer = mesh_->RunWriterSide(request_index);
    }
    if (!writer.status.ok()) {
      window->Complete(slot, Outcome::kFailed);
      return;
    }
    CaptureCurrentContext();
    RecordBarrierSite(writer.lineage);
    auto read = [this, window, slot, index, request_index,
                 writer = std::move(writer)]() {
      bool found = false;
      {
        ScopedSpan span(index, SpanName::kReaderSide);
        found = mesh_->RunReaderSide(writer, request_index);
      }
      window->Complete(slot, found ? Outcome::kOk : Outcome::kViolation);
    };
    if (!readers_.Submit(std::move(read))) {
      window->Complete(slot, Outcome::kFailed);
    }
  }

  void Drain() override { mesh_->DrainReplication(); }

 private:
  uint64_t seed_;
  antipode::MeshTopology topology_;
  std::unique_ptr<antipode::LiveMesh> mesh_;
  antipode::ThreadPool readers_;
};

class TimelineReadBed final : public Workload {
 public:
  // History written (and fully replicated) during set-up, so the first reads
  // of the first window have recent posts to target.
  static constexpr uint64_t kBasePosts = 4096;
  static constexpr uint64_t kMaxPosts = 1 << 18;
  static constexpr uint64_t kTimelines = 64;

  TimelineReadBed(uint64_t seed, const std::string& tag)
      : seed_(seed),
        posts_(std::make_unique<PostSlot[]>(kMaxPosts)),
        readers_(kReaderThreads, "perfbench-timeline-readers") {
    store_ = std::make_unique<KvStore>(
        PinnedKvOptions("pb-tl-" + tag, {Region::kEu, Region::kUs, Region::kSg}));
    shim_ = std::make_unique<KvShim>(store_.get());
    registry_.Register(shim_.get());
    barrier_options_.registry = &registry_;
    for (uint64_t post = 0; post < kBasePosts; ++post) {
      WritePost(post, post);
    }
    Drain();
  }

  ~TimelineReadBed() override {
    readers_.Shutdown();
    Drain();
  }

  void Issue(Window* window, uint64_t slot, uint64_t index) override {
    const TimelineOp op = TimelineOpAt(seed_, kBasePosts, index);
    if (op.post >= kMaxPosts) {
      window->Complete(slot, Outcome::kFailed);
      return;
    }
    if (op.write) {
      Status status = Status::Ok();
      {
        ScopedSpan span(index, SpanName::kWriterSide);
        status = WritePost(op.post, index);
      }
      window->Complete(slot, status.ok() ? Outcome::kOk : Outcome::kFailed);
      return;
    }
    // The read runs in the reading region's service pool, so a barrier that
    // waits out replication blocks a reader thread, not the client.
    const bool submitted = readers_.Submit([this, window, slot, index, op] {
      window->Complete(slot, Read(op, index));
    });
    if (!submitted) {
      window->Complete(slot, Outcome::kFailed);
    }
  }

  void Drain() override { store_->DrainReplication(); }

 private:
  struct PostSlot {
    std::string lineage_blob;  // written once, before `ready` is released
    std::atomic<uint32_t> ready{0};
  };

  Outcome Read(const TimelineOp& op, uint64_t index) {
    PostSlot& post = posts_[op.post];
    // The post's write op precedes this read in the stream by ≥ one write
    // interval; on the rare overtaking schedule, wait for it.
    post.ready.wait(0, std::memory_order_acquire);
    const Region region = op.read_at_sg ? Region::kSg : Region::kUs;
    ScopedContext scoped{RequestContext()};
    Outcome outcome = Outcome::kOk;
    {
      ScopedSpan reader_side(index, SpanName::kReaderSide);
      antipode::Result<Lineage> lineage = antipode::Status::Internal("not decoded");
      {
        ScopedSpan span(index, SpanName::kLineageDecode);
        lineage = Lineage::Deserialize(post.lineage_blob);
      }
      if (!lineage.ok()) {
        outcome = Outcome::kFailed;
      } else {
        RecordBarrierSite(*lineage);
        Status status = Status::Ok();
        {
          ScopedSpan span(index, SpanName::kBarrier);
          status = Barrier(*lineage, region, barrier_options_);
        }
        if (!status.ok()) {
          outcome = Outcome::kFailed;
        } else {
          ScopedSpan span(index, SpanName::kShimRead);
          outcome = ReadOutcome(shim_->ReadCtx(region, TimelinePostKey(op.post)).status());
        }
      }
    }
    return outcome;
  }

  // A post write: the post itself plus its author's timeline entry, under a
  // fresh lineage that the slot keeps serialized for later readers.
  Status WritePost(uint64_t post, uint64_t index) {
    ScopedContext scoped{RequestContext()};
    LineageApi::Root();
    Status status = Status::Ok();
    {
      ScopedSpan span(index, SpanName::kShimWrite);
      status = shim_->WriteCtx(Region::kEu, TimelinePostKey(post), kPostBody);
      if (status.ok()) {
        status = shim_->WriteCtx(Region::kEu, "timeline/" + std::to_string(post % kTimelines),
                                 TimelinePostKey(post));
      }
    }
    CaptureCurrentContext();
    PostSlot& slot = posts_[post];
    slot.lineage_blob = LineageApi::Current().value_or(Lineage()).Serialize();
    slot.ready.store(1, std::memory_order_release);
    slot.ready.notify_all();
    return status;
  }

  uint64_t seed_;
  std::unique_ptr<PostSlot[]> posts_;
  std::unique_ptr<KvStore> store_;
  std::unique_ptr<KvShim> shim_;
  ShimRegistry registry_;
  BarrierOptions barrier_options_;
  antipode::ThreadPool readers_;  // last: joined before the store goes
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kSpecs) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

Workload::SiteCounters Workload::site_counters() const {
  return SiteCounters{sites_.load(), metadata_bytes_.load(), deps_.load()};
}

void Workload::ResetSiteCounters() {
  sites_ = 0;
  metadata_bytes_ = 0;
  deps_ = 0;
}

void Workload::StartCapture(size_t limit) { capture_limit_.store(limit); }

std::vector<std::string> Workload::TakeContexts() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return std::move(contexts_);
}

std::vector<std::string> Workload::TakeLineages() {
  std::lock_guard<std::mutex> lock(capture_mu_);
  return std::move(lineages_);
}

void Workload::RecordBarrierSite(const Lineage& lineage) {
  sites_.fetch_add(1, std::memory_order_relaxed);
  metadata_bytes_.fetch_add(
      antipode::EnforcementMetadataBytes(antipode::EnforcementBackendKind::kLineage, lineage),
      std::memory_order_relaxed);
  deps_.fetch_add(lineage.Size(), std::memory_order_relaxed);
  if (capture_limit_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  std::string blob = lineage.Serialize();
  std::lock_guard<std::mutex> lock(capture_mu_);
  if (lineages_.size() < capture_limit_.load()) {
    lineages_.push_back(std::move(blob));
  }
}

void Workload::CaptureCurrentContext() {
  if (capture_limit_.load(std::memory_order_relaxed) == 0) {
    return;
  }
  std::string blob = RequestContext::SerializeCurrent();
  std::lock_guard<std::mutex> lock(capture_mu_);
  if (contexts_.size() < capture_limit_.load()) {
    contexts_.push_back(std::move(blob));
  }
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       const std::string& tag) {
  if (name == "post_notif") {
    return std::make_unique<PostNotifBed>(seed, tag);
  }
  if (name == "mesh_deep") {
    return std::make_unique<MeshDeepBed>(seed, tag);
  }
  if (name == "timeline_read") {
    return std::make_unique<TimelineReadBed>(seed, tag);
  }
  return nullptr;
}

}  // namespace perfbench
