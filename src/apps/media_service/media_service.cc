#include "src/apps/media_service/media_service.h"

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "src/antipode/antipode.h"
#include "src/common/thread_pool.h"
#include "src/context/request_context.h"

namespace antipode {
namespace {

std::atomic<uint64_t> g_run_counter{0};

}  // namespace

MediaServiceResult RunMediaService(const MediaServiceConfig& config) {
  const uint64_t run = g_run_counter.fetch_add(1, std::memory_order_relaxed);
  const std::vector<Region> regions =
      config.store_regions.empty()
          ? std::vector<Region>{config.upload_region, config.render_region}
          : config.store_regions;
  const std::string suffix = std::to_string(run);

  ObjectStore media(ObjectStore::DefaultOptions("media-s3-" + suffix, regions));
  DocStore reviews(DocStore::DefaultOptions("reviews-mongo-" + suffix, regions));
  QueueStore events(QueueStore::DefaultOptions("events-rabbit-" + suffix, regions));
  ObjectShim media_shim(&media);
  DocShim review_shim(&reviews);
  QueueShim event_shim(&events);
  ShimRegistry registry;
  registry.Register(&media_shim);
  registry.Register(&review_shim);
  registry.Register(&event_shim);

  ThreadPool uploaders(static_cast<size_t>(config.concurrency), "uploaders");
  ThreadPool renderers(static_cast<size_t>(config.concurrency), "renderers");

  std::mutex mu;
  std::condition_variable cv;
  int rendered = 0;
  std::atomic<int> review_missing{0};
  std::atomic<int> media_missing{0};
  ConcurrentHistogram window;

  const bool antipode = config.antipode;
  const Region render_region = config.render_region;

  // The remote render worker, triggered by the review event.
  auto render = [&](const ConsumedMessage& message) {
    Deserializer d(message.payload);
    auto review_id = d.ReadString();
    auto when = d.ReadUint64();
    if (!review_id.ok() || !when.ok()) {
      return;
    }
    if (antipode) {
      // One barrier enforces both the review doc and the media blob: they
      // are different datastores but members of the same lineage.
      const BarrierOptions barrier_options{.registry = &registry,
                                           .use_scope = config.use_scope,
                                           .backend = config.backend};
      if (config.barrier_regions.empty()) {
        Barrier(message.lineage, render_region, barrier_options);
      } else {
        BarrierGlobal(message.lineage, config.barrier_regions, barrier_options);
      }
    }
    window.Record(TimeScale::ToModelMillis(std::chrono::duration_cast<Duration>(
        GlobalClock().Now() -
        TimePoint(TimePoint::duration(static_cast<int64_t>(*when))))));

    std::optional<Document> review;
    if (antipode) {
      auto found_review = review_shim.FindByIdCtx(render_region, "reviews", *review_id);
      if (found_review.ok()) {
        review = std::move(*found_review);
      }
    } else {
      review = reviews.FindById(render_region, "reviews", *review_id);
    }
    if (!review.has_value()) {
      review_missing.fetch_add(1, std::memory_order_relaxed);
    } else {
      auto media_key = review->Get("media");
      bool found = false;
      if (media_key.has_value() && media_key->is_string()) {
        if (antipode) {
          found = media_shim.GetObjectCtx(render_region, "media", media_key->as_string()).ok();
        } else {
          found = media.GetObject(render_region, "media", media_key->as_string()).has_value();
        }
      }
      if (!found) {
        media_missing.fetch_add(1, std::memory_order_relaxed);
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      ++rendered;
    }
    cv.notify_all();
  };

  if (antipode) {
    event_shim.Subscribe(render_region, "review-events", &renderers, render);
  } else {
    events.Subscribe(render_region, "review-events", &renderers,
                     [render](const BrokerMessage& message) {
                       render(ConsumedMessage{std::string(message.payload()), Lineage(),
                                              message.delivered_at});
                     });
  }

  // Uploaders: media blob, then the review referencing it, then the event.
  const std::string blob(config.media_size_bytes, 'm');
  for (int i = 0; i < config.num_reviews; ++i) {
    uploaders.Submit([&, i] {
      RequestContext context;
      ScopedContext scoped(std::move(context));
      if (antipode) {
        LineageApi::Root();
      }
      const std::string media_key = "poster-" + suffix + "-" + std::to_string(i);
      const std::string review_id = "review-" + suffix + "-" + std::to_string(i);
      Document review{{"media", Value(media_key)}, {"stars", Value(static_cast<int64_t>(5))}};
      if (antipode) {
        media_shim.PutObjectCtx(config.upload_region, "media", media_key, blob);
        review_shim.InsertDocCtx(config.upload_region, "reviews", review_id,
                                 std::move(review));
      } else {
        media.PutObject(config.upload_region, "media", media_key, blob);
        reviews.InsertDoc(config.upload_region, "reviews", review_id, review);
      }
      Serializer s;
      s.WriteString(review_id);
      s.WriteUint64(
          static_cast<uint64_t>(GlobalClock().Now().time_since_epoch().count()));
      if (antipode) {
        event_shim.PublishCtx(config.upload_region, "review-events", s.Release());
      } else {
        events.Publish(config.upload_region, "review-events", s.Release());
      }
    });
  }

  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return rendered >= config.num_reviews; });
  }
  uploaders.Shutdown();
  media.DrainReplication();
  reviews.DrainReplication();
  events.DrainReplication();
  renderers.Shutdown();

  MediaServiceResult result;
  result.reviews = config.num_reviews;
  result.review_missing = review_missing.load();
  result.media_missing = media_missing.load();
  result.consistency_window_model_ms = window.Snapshot();
  return result;
}

}  // namespace antipode
