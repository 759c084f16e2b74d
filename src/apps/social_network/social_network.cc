#include "src/apps/social_network/social_network.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>

#include "src/antipode/antipode.h"
#include "src/apps/workload.h"
#include "src/common/serialization.h"
#include "src/context/request_context.h"
#include "src/rpc/rpc.h"

namespace antipode {
namespace {

std::atomic<uint64_t> g_run_counter{0};

struct FanoutTask {
  std::string post_id;
  std::string author;
  TimePoint write_time{};
  std::vector<std::string> followers;

  std::string Encode() const {
    Serializer s;
    s.WriteString(post_id);
    s.WriteString(author);
    s.WriteUint64(static_cast<uint64_t>(write_time.time_since_epoch().count()));
    s.WriteVarint(followers.size());
    for (const auto& follower : followers) {
      s.WriteString(follower);
    }
    return s.Release();
  }

  static bool Decode(const std::string& bytes, FanoutTask* task) {
    Deserializer d(bytes);
    auto post_id = d.ReadString();
    auto author = d.ReadString();
    auto when = d.ReadUint64();
    auto count = d.ReadVarint();
    if (!post_id.ok() || !author.ok() || !when.ok() || !count.ok()) {
      return false;
    }
    task->post_id = std::move(*post_id);
    task->author = std::move(*author);
    task->write_time = TimePoint(TimePoint::duration(static_cast<int64_t>(*when)));
    for (uint64_t i = 0; i < *count; ++i) {
      auto follower = d.ReadString();
      if (!follower.ok()) {
        return false;
      }
      task->followers.push_back(std::move(*follower));
    }
    return true;
  }
};

// The deployed application: stores, shims, and RPC services.
class SocialNetworkApp {
 public:
  explicit SocialNetworkApp(const SocialNetworkConfig& config)
      : config_(config),
        run_(g_run_counter.fetch_add(1, std::memory_order_relaxed)),
        regions_({config.home_region, config.remote_region}),
        posts_(DocStore::DefaultOptions("mongo-posts-" + std::to_string(run_), regions_)),
        post_shim_(&posts_),
        wht_queue_(QueueStore::DefaultOptions("rabbit-wht-" + std::to_string(run_), regions_)),
        queue_shim_(&wht_queue_),
        timeline_cache_(
            KvStore::DefaultOptions("redis-timeline-" + std::to_string(run_), regions_)),
        timeline_shim_(&timeline_cache_),
        service_registry_(),
        consumer_pool_(8, "wht-consumer") {
    registry_.Register(&post_shim_);
    registry_.Register(&queue_shim_);
    registry_.Register(&timeline_shim_);

    compose_service_ = service_registry_.RegisterService("compose-post", config.home_region,
                                                         config.service_threads);
    storage_service_ = service_registry_.RegisterService("post-storage", config.home_region,
                                                         config.service_threads);
    graph_service_ = service_registry_.RegisterService("social-graph", config.home_region,
                                                       config.service_threads);

    RegisterHandlers();
    SubscribeConsumer();
  }

  ~SocialNetworkApp() {
    // Ordering matters: drain replication (delivers pending queue messages),
    // then stop the consumer pool, then let stores destruct.
    posts_.DrainReplication();
    wht_queue_.DrainReplication();
    timeline_cache_.DrainReplication();
    service_registry_.ShutdownAll();
    consumer_pool_.Shutdown();
  }

  // One end-to-end compose-post request issued by a client in the home
  // region. Returns once the synchronous part (the RPC) completes.
  void ComposePost(uint64_t sequence) {
    RequestContext context;
    ScopedContext scoped(std::move(context));
    if (config_.antipode) {
      LineageApi::Root();
    }
    const std::string author = "user" + std::to_string(sequence % config_.num_users);
    RpcClient client(&service_registry_, config_.home_region);
    client.Call("compose-post", "compose",
                author + ":" + std::to_string(run_) + "-" + std::to_string(sequence));
    if (config_.antipode) {
      auto lineage = LineageApi::Current();
      if (lineage.has_value()) {
        lineage_sizes_.Record(static_cast<double>(lineage->WireSize()));
      }
    }
  }

  void WaitForFanoutCompletion() {
    std::unique_lock<std::mutex> lock(fanout_mu_);
    fanout_cv_.wait(lock, [&] { return tasks_consumed_ >= tasks_published_.load(); });
  }

  SocialNetworkResult CollectResults(const WorkloadResult& workload) {
    SocialNetworkResult result;
    result.throughput = workload.throughput;
    result.compose_latency_model_ms = workload.latency_model_millis;
    result.consistency_window_model_ms = window_.Snapshot();
    result.fanout_tasks = tasks_published_.load();
    result.violations = violations_.load();
    result.max_lineage_bytes = lineage_sizes_.Snapshot().max();
    result.mean_post_object_bytes = posts_.metrics().MeanObjectBytes();
    result.mean_queue_object_bytes = wht_queue_.metrics().MeanObjectBytes();
    return result;
  }

 private:
  void RegisterHandlers() {
    // compose-post: the entry-point service.
    compose_service_->RegisterMethod("compose", [this](const std::string& payload) {
      return HandleCompose(payload);
    });
    // post-storage: fronts the document store.
    storage_service_->RegisterMethod("store", [this](const std::string& payload) {
      return HandleStorePost(payload);
    });
    // social-graph: returns the author's followers.
    graph_service_->RegisterMethod("followers", [this](const std::string& payload) {
      return HandleGetFollowers(payload);
    });
  }

  Result<std::string> HandleCompose(const std::string& payload) {
    // payload = "author:post_id"
    const size_t colon = payload.find(':');
    const std::string author = payload.substr(0, colon);
    const std::string post_id = payload.substr(colon + 1);

    // Collapsed service time of the text/media/unique-id helper services.
    GlobalClock().SleepFor(
        TimeScale::FromModelMillis(config_.compose_work_model_millis));

    RpcClient client(&service_registry_, config_.home_region);
    client.Call("post-storage", "store", post_id + ":" + author);
    const TimePoint write_time = GlobalClock().Now();
    auto followers = client.Call("social-graph", "followers", author);

    FanoutTask task;
    task.post_id = post_id;
    task.author = author;
    task.write_time = write_time;
    if (followers.ok()) {
      Deserializer d(*followers);
      auto count = d.ReadVarint();
      if (count.ok()) {
        for (uint64_t i = 0; i < *count; ++i) {
          auto follower = d.ReadString();
          if (!follower.ok()) {
            break;
          }
          task.followers.push_back(std::move(*follower));
        }
      }
    }

    tasks_published_.fetch_add(1, std::memory_order_relaxed);
    if (config_.antipode) {
      queue_shim_.PublishCtx(config_.home_region, kQueueName, task.Encode());
    } else {
      wht_queue_.Publish(config_.home_region, kQueueName, task.Encode());
    }
    return std::string("ok");
  }

  Result<std::string> HandleStorePost(const std::string& payload) {
    const size_t colon = payload.find(':');
    const std::string post_id = payload.substr(0, colon);
    const std::string author = payload.substr(colon + 1);
    Document doc{{"author", Value(author)}, {"text", Value(std::string(256, 't'))}};
    if (config_.antipode) {
      post_shim_.InsertDocCtx(config_.home_region, "posts", post_id, std::move(doc));
    } else {
      posts_.InsertDoc(config_.home_region, "posts", post_id, doc);
    }
    return std::string("ok");
  }

  Result<std::string> HandleGetFollowers(const std::string& author) {
    // The follower graph is synthetic and static; serve it directly.
    Serializer s;
    s.WriteVarint(static_cast<uint64_t>(config_.followers_per_user));
    const uint64_t author_index = std::hash<std::string>{}(author);
    for (int i = 0; i < config_.followers_per_user; ++i) {
      s.WriteString("user" +
                    std::to_string((author_index + 1 + static_cast<uint64_t>(i)) %
                                   static_cast<uint64_t>(config_.num_users)));
    }
    return s.Release();
  }

  void SubscribeConsumer() {
    auto handler = [this](const ConsumedMessage& message) { ConsumeFanout(message); };
    if (config_.antipode) {
      queue_shim_.Subscribe(config_.remote_region, kQueueName, &consumer_pool_, handler);
    } else {
      wht_queue_.Subscribe(config_.remote_region, kQueueName, &consumer_pool_,
                           [handler](const BrokerMessage& message) {
                             handler(ConsumedMessage{std::string(message.payload()), Lineage(),
                                                     message.delivered_at});
                           });
    }
  }

  void ConsumeFanout(const ConsumedMessage& message) {
    FanoutTask task;
    if (!FanoutTask::Decode(message.payload, &task)) {
      return;
    }
    if (config_.antipode) {
      lineage_sizes_.Record(static_cast<double>(message.lineage.WireSize()));
      // The barrier right after dequeuing the notification object (§7.1).
      Barrier(message.lineage, config_.remote_region, BarrierOptions{.registry = &registry_});
    }
    const TimePoint fetch_time = GlobalClock().Now();
    window_.Record(TimeScale::ToModelMillis(
        std::chrono::duration_cast<Duration>(fetch_time - task.write_time)));

    bool found = false;
    if (config_.antipode) {
      found = post_shim_.FindByIdCtx(config_.remote_region, "posts", task.post_id).ok();
    } else {
      found = posts_.FindById(config_.remote_region, "posts", task.post_id).has_value();
    }
    if (!found) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }

    // Update each follower's home timeline in the cache tier.
    for (const auto& follower : task.followers) {
      const std::string key = "hometimeline:" + follower;
      if (config_.antipode) {
        timeline_shim_.WriteCtx(config_.remote_region, key, task.post_id);
      } else {
        timeline_cache_.Set(config_.remote_region, key, task.post_id);
      }
    }

    {
      std::lock_guard<std::mutex> lock(fanout_mu_);
      ++tasks_consumed_;
    }
    fanout_cv_.notify_all();
  }

  static constexpr char kQueueName[] = "write-home-timeline";

  const SocialNetworkConfig config_;
  const uint64_t run_;
  std::vector<Region> regions_;

  DocStore posts_;
  DocShim post_shim_;
  QueueStore wht_queue_;
  QueueShim queue_shim_;
  KvStore timeline_cache_;
  KvShim timeline_shim_;
  ShimRegistry registry_;

  ServiceRegistry service_registry_;
  RpcService* compose_service_ = nullptr;
  RpcService* storage_service_ = nullptr;
  RpcService* graph_service_ = nullptr;

  ThreadPool consumer_pool_;

  std::atomic<uint64_t> tasks_published_{0};
  std::mutex fanout_mu_;
  std::condition_variable fanout_cv_;
  uint64_t tasks_consumed_ = 0;
  std::atomic<uint64_t> violations_{0};
  ConcurrentHistogram window_;
  ConcurrentHistogram lineage_sizes_;
};

}  // namespace

SocialNetworkResult RunSocialNetwork(const SocialNetworkConfig& config) {
  SocialNetworkApp app(config);

  OpenLoopRunner::Options load;
  load.rate_per_model_second = config.load_rps;
  load.duration_model_seconds = config.duration_model_seconds;
  load.seed = config.seed;
  WorkloadResult workload =
      OpenLoopRunner::Run(load, [&app](uint64_t sequence) { app.ComposePost(sequence); });

  app.WaitForFanoutCompletion();
  return app.CollectResults(workload);
}

}  // namespace antipode
