#include "src/apps/train_ticket/train_ticket.h"

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>

#include "src/antipode/antipode.h"
#include "src/apps/workload.h"
#include "src/common/serialization.h"
#include "src/common/sim.h"
#include "src/context/request_context.h"
#include "src/rpc/rpc.h"

namespace antipode {
namespace {

std::atomic<uint64_t> g_run_counter{0};

constexpr double kRefundWorkModelMillis = 3.0;
// Time between the user receiving the cancellation response and looking at
// the refund (page navigation / rendering).
constexpr double kUserCheckDelayModelMillis = 10.0;

// Rendezvous between the cancellation handler and the asynchronous refund
// task: the payment consumer posts its lineage here once the refund row is
// durable, and (under Antipode) the handler picks it up to barrier on it.
class CompletionBoard {
 public:
  void Signal(const std::string& order_id, Lineage lineage) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      completed_[order_id] = std::move(lineage);
    }
    cv_.notify_all();
  }

  Lineage WaitFor(const std::string& order_id) {
    BlockUntil(mu_, cv_, TimePoint::max(), [&] { return completed_.count(order_id) > 0; });
    std::lock_guard<std::mutex> lock(mu_);
    Lineage lineage = completed_[order_id];
    completed_.erase(order_id);
    return lineage;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, Lineage> completed_;
};

// Under an active simulation the app's stores run on a private deterministic
// timer engine, so their timers are simulation events; otherwise on the
// shared engine.
std::unique_ptr<TimerService> SimTimers() {
  if (SimScheduler::Active() == nullptr) {
    return nullptr;
  }
  TimerServiceOptions options;
  options.deterministic = true;
  return std::make_unique<TimerService>(options);
}

class TrainTicketApp {
 public:
  explicit TrainTicketApp(const TrainTicketConfig& config)
      : config_(config),
        run_(g_run_counter.fetch_add(1, std::memory_order_relaxed)),
        sim_timers_(SimTimers()),
        orders_(SqlStore::DefaultOptions("mysql-orders-" + std::to_string(run_),
                                         {Region::kLocal}),
                &RegionTopology::Default(), Timers()),
        order_shim_(&orders_),
        payments_(SqlStore::DefaultOptions("mysql-payments-" + std::to_string(run_),
                                           {Region::kLocal}),
                  &RegionTopology::Default(), Timers()),
        payment_shim_(&payments_),
        task_queue_(QueueStore::DefaultOptions("queue-tasks-" + std::to_string(run_),
                                               {Region::kLocal}),
                    &RegionTopology::Default(), Timers()),
        queue_shim_(&task_queue_),
        payment_pool_(8, "payment"),
        service_registry_() {
    orders_.CreateTable("orders", {"id", "status"}, "id");
    payments_.CreateTable("refunds", {"order_id", "amount"}, "order_id");
    if (config_.antipode) {
      order_shim_.InstrumentTable("orders", /*with_index=*/false);
      payment_shim_.InstrumentTable("refunds", /*with_index=*/false);
    }
    registry_.Register(&order_shim_);
    registry_.Register(&payment_shim_);
    registry_.Register(&queue_shim_);

    cancel_service_ = service_registry_.RegisterService("cancel-order", Region::kLocal,
                                                        config_.service_threads);
    cancel_service_->RegisterMethod("cancel", [this](const std::string& order_id) {
      return HandleCancel(order_id);
    });
    SubscribePaymentConsumer();
  }

  ~TrainTicketApp() {
    // Refunds still in processing reference this app; wait them out first.
    auto refunds = refunds_;
    BlockUntil(refunds->mu, refunds->cv, TimePoint::max(), [&] { return refunds->pending == 0; });
    task_queue_.DrainReplication();
    service_registry_.ShutdownAll();
    payment_pool_.Shutdown();
  }

  // One end-to-end cancellation by a user, including the user's refund check.
  void CancelTicket(uint64_t sequence) {
    RequestContext context;
    ScopedContext scoped(std::move(context));
    if (config_.antipode) {
      LineageApi::Root();
    }
    const std::string order_id = "o" + std::to_string(run_) + "-" + std::to_string(sequence);

    RpcClient client(&service_registry_, Region::kLocal);
    const TimePoint call_time = GlobalClock().Now();
    client.Call("cancel-order", "cancel", order_id);
    const TimePoint response_time = GlobalClock().Now();
    cancel_latency_.Record(TimeScale::ToModelMillis(
        std::chrono::duration_cast<Duration>(response_time - call_time)));

    // Poll until the refund is visible; the consistency window is the gap
    // between the response and refund visibility, and a *violation* is a
    // window longer than the user's check delay (the refund page showed no
    // refund).
    const Duration poll_step = TimeScale::FromModelMillis(0.5);
    while (!payments_.SelectByPk(Region::kLocal, "refunds", Value(order_id)).has_value()) {
      GlobalClock().SleepFor(poll_step);
    }
    const TimePoint visible_time = GlobalClock().Now();
    const double window_ms = TimeScale::ToModelMillis(
        std::chrono::duration_cast<Duration>(visible_time - response_time));
    window_.Record(window_ms);
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (window_ms > kUserCheckDelayModelMillis) {
      violations_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  TrainTicketResult CollectResults(const WorkloadResult& workload) {
    TrainTicketResult result;
    result.throughput = workload.throughput;
    result.cancel_latency_model_ms = cancel_latency_.Snapshot();
    result.consistency_window_model_ms = window_.Snapshot();
    result.requests = requests_.load();
    result.violations = violations_.load();
    return result;
  }

 private:
  Result<std::string> HandleCancel(const std::string& order_id) {
    // (business logic: seat release, fare recomputation, notifications…)
    GlobalClock().SleepFor(
        TimeScale::FromModelMillis(config_.cancel_work_model_millis));

    // (a) mark the order cancelled.
    Row order{{"id", Value(order_id)}, {"status", Value(std::string("cancelled"))}};
    if (config_.antipode) {
      order_shim_.InsertCtx(Region::kLocal, "orders", std::move(order));
    } else {
      orders_.Insert(Region::kLocal, "orders", order);
    }

    // (b) hand the refund to the payment service asynchronously.
    if (config_.antipode) {
      queue_shim_.PublishCtx(Region::kLocal, kRefundQueue, order_id);
      // The barrier on the critical path (§7.4): wait for the refund task's
      // lineage, fold it in, and enforce it before answering the user.
      Lineage refund_lineage = board_.WaitFor(order_id);
      LineageApi::Transfer(refund_lineage);
      BarrierCtx(Region::kLocal, BarrierOptions{.registry = &registry_});
    } else {
      task_queue_.Publish(Region::kLocal, kRefundQueue, order_id);
    }
    return std::string("cancelled");
  }

  // The refund's processing time elapses as a timer delay rather than as a
  // sleep on the consumer thread: in simulation a sleeping event holds up
  // every blocked caller beneath it, so the user would only see the
  // cancellation response once the refund had landed.
  void ProcessRefund(std::string order_id, Lineage lineage) {
    auto refunds = refunds_;
    {
      std::lock_guard<std::mutex> lock(refunds->mu);
      ++refunds->pending;
    }
    auto work = [this, refunds, order_id = std::move(order_id),
                 lineage = std::move(lineage)]() mutable {
      Row refund{{"order_id", Value(order_id)}, {"amount", Value(static_cast<int64_t>(4200))}};
      if (config_.antipode) {
        auto written = payment_shim_.Insert(Region::kLocal, "refunds", std::move(refund),
                                            std::move(lineage));
        board_.Signal(order_id, written.ok() ? std::move(*written) : Lineage());
      } else {
        payments_.Insert(Region::kLocal, "refunds", refund);
      }
      {
        std::lock_guard<std::mutex> lock(refunds->mu);
        --refunds->pending;
      }
      refunds->cv.notify_all();
    };
    if (!payments_.timers()->ScheduleAfter(TimeScale::FromModelMillis(kRefundWorkModelMillis),
                                           std::move(work))) {
      work();  // timer engine shut down: process inline
    }
  }

  void SubscribePaymentConsumer() {
    if (config_.antipode) {
      queue_shim_.Subscribe(Region::kLocal, kRefundQueue, &payment_pool_,
                            [this](const ConsumedMessage& message) {
                              ProcessRefund(message.payload, message.lineage);
                            });
    } else {
      task_queue_.Subscribe(Region::kLocal, kRefundQueue, &payment_pool_,
                            [this](const BrokerMessage& message) {
                              ProcessRefund(std::string(message.payload()), Lineage());
                            });
    }
  }

  static constexpr char kRefundQueue[] = "refunds";

  TimerService* Timers() const {
    return sim_timers_ != nullptr ? sim_timers_.get() : &TimerService::Shared();
  }

  const TrainTicketConfig config_;
  const uint64_t run_;
  std::unique_ptr<TimerService> sim_timers_;  // null outside simulation

  SqlStore orders_;
  SqlShim order_shim_;
  SqlStore payments_;
  SqlShim payment_shim_;
  QueueStore task_queue_;
  QueueShim queue_shim_;
  ShimRegistry registry_;

  ThreadPool payment_pool_;
  ServiceRegistry service_registry_;
  RpcService* cancel_service_ = nullptr;

  CompletionBoard board_;
  // Refunds scheduled but not yet written. Co-owned by each pending timer so
  // its final notify never touches a destroyed app.
  struct PendingRefunds {
    std::mutex mu;
    std::condition_variable cv;
    uint64_t pending = 0;
  };
  std::shared_ptr<PendingRefunds> refunds_ = std::make_shared<PendingRefunds>();
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> violations_{0};
  ConcurrentHistogram cancel_latency_;
  ConcurrentHistogram window_;
};

}  // namespace

TrainTicketResult RunTrainTicket(const TrainTicketConfig& config) {
  TrainTicketApp app(config);

  OpenLoopRunner::Options load;
  load.rate_per_model_second = config.load_rps;
  load.duration_model_seconds = config.duration_model_seconds;
  load.seed = config.seed;
  WorkloadResult workload =
      OpenLoopRunner::Run(load, [&app](uint64_t sequence) { app.CancelTicket(sequence); });
  return app.CollectResults(workload);
}

}  // namespace antipode
