// TrainTicket-style ticket cancellation (paper §7.1, §7.4): cancelling a
// ticket (a) updates the order's status and (b) refunds the price — the
// refund is processed by a different service via an asynchronous message.
// There is no geo-replication; the violation is the "lack of sequence
// control in asynchronous invocations": the user receives the cancellation
// response and immediately queries the refund, which may not be visible yet.
//
// Antipode's fix places the barrier on the request's critical path: the
// cancellation handler waits for the refund task's lineage and enforces it
// before returning, trading ~15% throughput / ~17% latency (Fig. 9) for a
// consistent output.

#ifndef SRC_APPS_TRAIN_TICKET_TRAIN_TICKET_H_
#define SRC_APPS_TRAIN_TICKET_TRAIN_TICKET_H_

#include "src/common/histogram.h"
#include "src/net/region.h"

namespace antipode {

struct TrainTicketConfig {
  bool antipode = false;

  double load_rps = 200.0;
  double duration_model_seconds = 5.0;

  // Modeled service time of the order-cancellation business logic.
  double cancel_work_model_millis = 20.0;
  size_t service_threads = 8;
  uint64_t seed = 23;
};

struct TrainTicketResult {
  double throughput = 0.0;
  // Cancellation request -> response (the user's later refund check is not
  // part of the request; it is what the consistency window measures).
  Histogram cancel_latency_model_ms;
  // Response returned -> both effects (status + refund) visible.
  Histogram consistency_window_model_ms;
  uint64_t requests = 0;
  uint64_t violations = 0;  // refund not visible when the user checked
  double ViolationRate() const {
    return requests == 0 ? 0.0 : static_cast<double>(violations) / requests;
  }
};

TrainTicketResult RunTrainTicket(const TrainTicketConfig& config);

}  // namespace antipode

#endif  // SRC_APPS_TRAIN_TICKET_TRAIN_TICKET_H_
