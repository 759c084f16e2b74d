#include "src/apps/post_notification/post_notification.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "src/antipode/antipode.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/common/serialization.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"

namespace antipode {
namespace {

std::atomic<uint64_t> g_run_counter{0};

// ---------------------------------------------------------------------------
// Post-storage backends
// ---------------------------------------------------------------------------

// Uniform facade over the four post-storage choices. Every backend exposes a
// raw (baseline) path and a shimmed (Antipode) path.
class PostStorageBackend {
 public:
  virtual ~PostStorageBackend() = default;
  virtual void WritePost(Region region, const std::string& post_id, const std::string& content,
                         bool antipode) = 0;
  // Returns true when the post is found. With Antipode, callers invoke this
  // only after a successful barrier.
  virtual bool ReadPost(Region region, const std::string& post_id, bool antipode) = 0;
  virtual Shim* shim() = 0;
  virtual const StoreMetrics& metrics() const = 0;
};

class MysqlPostStorage final : public PostStorageBackend {
 public:
  MysqlPostStorage(const std::string& name, std::vector<Region> regions, bool antipode)
      : store_(SqlStore::DefaultOptions(name, std::move(regions))), shim_(&store_) {
    store_.CreateTable("posts", {"id", "content"}, "id");
    if (antipode) {
      // The one-time schema change: lineage column + index (Table 3).
      shim_.InstrumentTable("posts");
    }
  }

  void WritePost(Region region, const std::string& post_id, const std::string& content,
                 bool antipode) override {
    Row row{{"id", Value(post_id)}, {"content", Value(content)}};
    if (antipode) {
      shim_.InsertCtx(region, "posts", std::move(row));
    } else {
      store_.Insert(region, "posts", row);
    }
  }

  bool ReadPost(Region region, const std::string& post_id, bool antipode) override {
    if (antipode) {
      return shim_.SelectByPkCtx(region, "posts", Value(post_id)).ok();
    }
    return store_.SelectByPk(region, "posts", Value(post_id)).has_value();
  }

  Shim* shim() override { return &shim_; }
  const StoreMetrics& metrics() const override { return store_.metrics(); }

 private:
  SqlStore store_;
  SqlShim shim_;
};

class DynamoPostStorage final : public PostStorageBackend {
 public:
  DynamoPostStorage(const std::string& name, std::vector<Region> regions)
      : store_(DynamoStore::DefaultOptions(name, std::move(regions))), shim_(&store_) {}

  void WritePost(Region region, const std::string& post_id, const std::string& content,
                 bool antipode) override {
    Document item{{"content", Value(content)}};
    if (antipode) {
      shim_.PutItemCtx(region, "posts", post_id, std::move(item));
    } else {
      store_.PutItem(region, "posts", post_id, item);
    }
  }

  bool ReadPost(Region region, const std::string& post_id, bool antipode) override {
    if (antipode) {
      // Post-barrier reads use strongly consistent reads — Dynamo's wait is
      // implemented with them (§6.4), so consistency carries into the read.
      return shim_.GetItemConsistentCtx(region, "posts", post_id).ok();
    }
    return store_.GetItem(region, "posts", post_id).has_value();
  }

  Shim* shim() override { return &shim_; }
  const StoreMetrics& metrics() const override { return store_.metrics(); }

 private:
  DynamoStore store_;
  DynamoShim shim_;
};

class RedisPostStorage final : public PostStorageBackend {
 public:
  RedisPostStorage(const std::string& name, std::vector<Region> regions)
      : store_(KvStore::DefaultOptions(name, std::move(regions))), shim_(&store_) {}

  void WritePost(Region region, const std::string& post_id, const std::string& content,
                 bool antipode) override {
    if (antipode) {
      shim_.WriteCtx(region, PostKey(post_id), content);
    } else {
      store_.Set(region, PostKey(post_id), content);
    }
  }

  bool ReadPost(Region region, const std::string& post_id, bool antipode) override {
    if (antipode) {
      return shim_.ReadCtx(region, PostKey(post_id)).ok();
    }
    return store_.GetValue(region, PostKey(post_id)).has_value();
  }

  Shim* shim() override { return &shim_; }
  const StoreMetrics& metrics() const override { return store_.metrics(); }

 private:
  static std::string PostKey(const std::string& post_id) { return "post:" + post_id; }

  KvStore store_;
  KvShim shim_;
};

class S3PostStorage final : public PostStorageBackend {
 public:
  S3PostStorage(const std::string& name, std::vector<Region> regions)
      : store_(ObjectStore::DefaultOptions(name, std::move(regions))), shim_(&store_) {}

  void WritePost(Region region, const std::string& post_id, const std::string& content,
                 bool antipode) override {
    if (antipode) {
      shim_.PutObjectCtx(region, "posts", post_id, content);
    } else {
      store_.PutObject(region, "posts", post_id, std::string(content));
    }
  }

  bool ReadPost(Region region, const std::string& post_id, bool antipode) override {
    if (antipode) {
      return shim_.GetObjectCtx(region, "posts", post_id).ok();
    }
    return store_.GetObject(region, "posts", post_id).has_value();
  }

  Shim* shim() override { return &shim_; }
  const StoreMetrics& metrics() const override { return store_.metrics(); }

 private:
  ObjectStore store_;
  ObjectShim shim_;
};

// ---------------------------------------------------------------------------
// Notifier backends
// ---------------------------------------------------------------------------

// Delivers a ⟨notification⟩ payload from the writer region to a reader
// callback in the reader region, once the notification has replicated there.
class NotifierChannel {
 public:
  virtual ~NotifierChannel() = default;
  virtual void Publish(Region region, const std::string& payload, bool antipode) = 0;
  // Registers the single reader; the handler receives payload + lineage
  // (empty lineage on the baseline path).
  virtual void SubscribeReader(Region region, ThreadPool* executor,
                               ShimMessageHandler handler, bool antipode) = 0;
  virtual Shim* shim() = 0;
  virtual const StoreMetrics& metrics() const = 0;
};

class SnsNotifier final : public NotifierChannel {
 public:
  SnsNotifier(const std::string& name, std::vector<Region> regions)
      : store_(PubSubStore::DefaultOptions(name, std::move(regions))), shim_(&store_) {}

  void Publish(Region region, const std::string& payload, bool antipode) override {
    if (antipode) {
      shim_.PublishCtx(region, kTopic, payload);
    } else {
      store_.Publish(region, kTopic, payload);
    }
  }

  void SubscribeReader(Region region, ThreadPool* executor, ShimMessageHandler handler,
                       bool antipode) override {
    if (antipode) {
      shim_.Subscribe(region, kTopic, executor, std::move(handler));
    } else {
      store_.Subscribe(region, kTopic, executor,
                       [handler = std::move(handler)](const BrokerMessage& message) {
                         handler(ConsumedMessage{std::string(message.payload()), Lineage(),
                                                 message.delivered_at});
                       });
    }
  }

  Shim* shim() override { return &shim_; }
  const StoreMetrics& metrics() const override { return store_.metrics(); }

 private:
  static constexpr char kTopic[] = "new-posts";
  PubSubStore store_;
  PubSubShim shim_;
};

class AmqNotifier final : public NotifierChannel {
 public:
  AmqNotifier(const std::string& name, std::vector<Region> regions)
      : store_(Options(name, std::move(regions))), shim_(&store_) {}

  void Publish(Region region, const std::string& payload, bool antipode) override {
    if (antipode) {
      shim_.PublishCtx(region, kQueue, payload);
    } else {
      store_.Publish(region, kQueue, payload);
    }
  }

  void SubscribeReader(Region region, ThreadPool* executor, ShimMessageHandler handler,
                       bool antipode) override {
    if (antipode) {
      shim_.Subscribe(region, kQueue, executor, std::move(handler));
    } else {
      store_.Subscribe(region, kQueue, executor,
                       [handler = std::move(handler)](const BrokerMessage& message) {
                         handler(ConsumedMessage{std::string(message.payload()), Lineage(),
                                                 message.delivered_at});
                       });
    }
  }

  Shim* shim() override { return &shim_; }
  const StoreMetrics& metrics() const override { return store_.metrics(); }

 private:
  // AMQ mirrors propagate noticeably slower than SNS fan-out.
  static ReplicatedStoreOptions Options(const std::string& name, std::vector<Region> regions) {
    ReplicatedStoreOptions options = QueueStore::DefaultOptions(name, std::move(regions));
    options.replication.median_millis = 1200.0;
    options.replication.sigma = 0.3;
    return options;
  }

  static constexpr char kQueue[] = "new-posts";
  QueueStore store_;
  QueueShim shim_;
};

// DynamoDB playing the notifier role: notifications are items; the reader is
// triggered (stream/trigger style) when the item replicates into its region.
class DynamoNotifier final : public NotifierChannel {
 public:
  DynamoNotifier(const std::string& name, std::vector<Region> regions)
      : store_(DynamoStore::NotifierOptions(name, std::move(regions))), shim_(&store_) {
    store_.SetApplyHook([this](Region region, const EntryHandle& entry) {
      OnApply(region, *entry);
    });
  }

  ~DynamoNotifier() override { store_.DrainReplication(); }

  void Publish(Region region, const std::string& payload, bool antipode) override {
    const std::string id = std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
    Document item{{"payload", Value(payload)}};
    if (antipode) {
      shim_.PutItemCtx(region, kTable, id, std::move(item));
    } else {
      store_.PutItem(region, kTable, id, item);
    }
  }

  void SubscribeReader(Region region, ThreadPool* executor, ShimMessageHandler handler,
                       bool antipode) override {
    std::lock_guard<std::mutex> lock(mu_);
    reader_region_ = region;
    executor_ = executor;
    handler_ = std::move(handler);
    antipode_ = antipode;
  }

  Shim* shim() override { return &shim_; }
  const StoreMetrics& metrics() const override { return store_.metrics(); }

 private:
  void OnApply(Region region, const StoredEntry& entry) {
    ShimMessageHandler handler;
    ThreadPool* executor = nullptr;
    bool antipode = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (handler_ == nullptr || region != reader_region_) {
        return;
      }
      handler = handler_;
      executor = executor_;
      antipode = antipode_;
    }
    auto item = Document::Deserialize(entry.bytes);
    if (!item.ok()) {
      return;
    }
    ConsumedMessage message;
    auto payload = item->Get("payload");
    message.payload = payload.has_value() && payload->is_string() ? payload->as_string() : "";
    message.delivered_at = region;
    if (antipode) {
      auto lineage_field = item->Get(kLineageField);
      if (lineage_field.has_value() && lineage_field->is_string()) {
        auto lineage = Lineage::Deserialize(lineage_field->as_string());
        if (lineage.ok()) {
          message.lineage = std::move(*lineage);
        }
      }
      message.lineage.Append(
          WriteId{store_.name(), entry.key, entry.version, store_.region_mask()});
    }
    executor->Submit([handler, message] { handler(message); });
  }

  static constexpr char kTable[] = "notifications";
  DynamoStore store_;
  DynamoShim shim_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mu_;
  Region reader_region_ = Region::kUs;
  ThreadPool* executor_ = nullptr;
  ShimMessageHandler handler_;
  bool antipode_ = false;
};

std::unique_ptr<PostStorageBackend> MakePostStorage(PostStorageKind kind,
                                                    const std::string& name,
                                                    std::vector<Region> regions,
                                                    bool antipode) {
  switch (kind) {
    case PostStorageKind::kMysql:
      return std::make_unique<MysqlPostStorage>(name, std::move(regions), antipode);
    case PostStorageKind::kDynamo:
      return std::make_unique<DynamoPostStorage>(name, std::move(regions));
    case PostStorageKind::kRedis:
      return std::make_unique<RedisPostStorage>(name, std::move(regions));
    case PostStorageKind::kS3:
      return std::make_unique<S3PostStorage>(name, std::move(regions));
  }
  return nullptr;
}

std::unique_ptr<NotifierChannel> MakeNotifier(NotifierKind kind, const std::string& name,
                                              std::vector<Region> regions) {
  switch (kind) {
    case NotifierKind::kSns:
      return std::make_unique<SnsNotifier>(name, std::move(regions));
    case NotifierKind::kAmq:
      return std::make_unique<AmqNotifier>(name, std::move(regions));
    case NotifierKind::kDynamo:
      return std::make_unique<DynamoNotifier>(name, std::move(regions));
  }
  return nullptr;
}

std::string EncodeNotification(const std::string& post_id, TimePoint write_time) {
  Serializer s;
  s.WriteString(post_id);
  s.WriteUint64(static_cast<uint64_t>(write_time.time_since_epoch().count()));
  // Pad to ~120 bytes, the notification object size of §7.2.
  std::string payload = s.Release();
  if (payload.size() < 120) {
    payload.resize(120, '.');
  }
  return payload;
}

bool DecodeNotification(const std::string& payload, std::string* post_id,
                        TimePoint* write_time) {
  Deserializer d(payload);
  auto id = d.ReadString();
  auto when = d.ReadUint64();
  if (!id.ok() || !when.ok()) {
    return false;
  }
  *post_id = std::move(*id);
  *write_time = TimePoint(TimePoint::duration(static_cast<int64_t>(*when)));
  return true;
}

}  // namespace

std::string_view PostStorageName(PostStorageKind kind) {
  switch (kind) {
    case PostStorageKind::kMysql:
      return "MySQL";
    case PostStorageKind::kDynamo:
      return "DynamoDB";
    case PostStorageKind::kRedis:
      return "Redis";
    case PostStorageKind::kS3:
      return "S3";
  }
  return "?";
}

std::string_view NotifierName(NotifierKind kind) {
  switch (kind) {
    case NotifierKind::kSns:
      return "SNS";
    case NotifierKind::kAmq:
      return "AMQ";
    case NotifierKind::kDynamo:
      return "DynamoDB";
  }
  return "?";
}

PostNotificationResult RunPostNotification(const PostNotificationConfig& config) {
  const uint64_t run = g_run_counter.fetch_add(1, std::memory_order_relaxed);
  const std::vector<Region> regions =
      config.store_regions.empty()
          ? std::vector<Region>{config.writer_region, config.reader_region}
          : config.store_regions;

  auto post_storage = MakePostStorage(
      config.post_storage,
      std::string(PostStorageName(config.post_storage)) + "-post-" + std::to_string(run),
      regions, config.antipode);
  auto notifier = MakeNotifier(
      config.notifier,
      std::string(NotifierName(config.notifier)) + "-notif-" + std::to_string(run), regions);

  ShimRegistry registry;
  registry.Register(post_storage->shim());
  registry.Register(notifier->shim());

  ThreadPool writers(static_cast<size_t>(config.writer_concurrency), "writers");
  ThreadPool readers(static_cast<size_t>(config.writer_concurrency), "readers");

  std::mutex done_mu;
  std::condition_variable done_cv;
  int readers_done = 0;
  std::atomic<int> violations{0};
  ConcurrentHistogram window;

  // Reader: triggered by the notification's arrival in the reader region.
  const bool antipode = config.antipode;
  const Region reader_region = config.reader_region;
  notifier->SubscribeReader(
      reader_region, &readers,
      [&, antipode, reader_region](const ConsumedMessage& message) {
        std::string post_id;
        TimePoint write_time{};
        if (!DecodeNotification(message.payload, &post_id, &write_time)) {
          return;
        }
        if (antipode) {
          // The barrier right after receiving the notification event (§7.1).
          const BarrierOptions barrier_options{.registry = &registry,
                                               .use_scope = config.use_scope,
                                               .backend = config.backend};
          if (config.barrier_regions.empty()) {
            Barrier(message.lineage, reader_region, barrier_options);
          } else {
            BarrierGlobal(message.lineage, config.barrier_regions, barrier_options);
          }
        }
        const TimePoint read_time = GlobalClock().Now();
        window.Record(TimeScale::ToModelMillis(
            std::chrono::duration_cast<Duration>(read_time - write_time)));
        const bool found = post_storage->ReadPost(reader_region, post_id, antipode);
        if (!found) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        {
          std::lock_guard<std::mutex> lock(done_mu);
          ++readers_done;
        }
        done_cv.notify_all();
      },
      antipode);

  // Writers: write post, (optionally delay), publish notification.
  Rng content_rng(config.seed);
  std::string content(config.post_size_bytes, 'x');
  for (int i = 0; i < config.num_requests; ++i) {
    const std::string post_id = "p" + std::to_string(run) + "-" + std::to_string(i);
    writers.Submit([&, post_id] {
      RequestContext context;
      ScopedContext scoped(std::move(context));
      if (antipode) {
        LineageApi::Root();
      }
      post_storage->WritePost(config.writer_region, post_id, content, antipode);
      const TimePoint write_time = GlobalClock().Now();
      if (config.artificial_delay_model_millis > 0) {
        GlobalClock().SleepFor(
            TimeScale::FromModelMillis(config.artificial_delay_model_millis));
      }
      notifier->Publish(config.writer_region, EncodeNotification(post_id, write_time),
                        antipode);
    });
  }

  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return readers_done >= config.num_requests; });
  }
  writers.Shutdown();
  readers.Shutdown();

  PostNotificationResult result;
  result.requests = config.num_requests;
  result.violations = violations.load();
  result.consistency_window_model_ms = window.Snapshot();
  result.mean_post_object_bytes = post_storage->metrics().MeanObjectBytes();
  result.mean_notification_object_bytes = notifier->metrics().MeanObjectBytes();
  return result;
}

}  // namespace antipode
