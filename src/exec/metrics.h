// Run metrics collected by the execution engine, sufficient to reproduce
// every number the paper reports: response times (Figs 6-10), processor
// idle time, amount of data exchanged between nodes, and communication
// overhead due to global load balancing (Section 5.3).

#ifndef HIERDB_EXEC_METRICS_H_
#define HIERDB_EXEC_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/network.h"

namespace hierdb::exec {

struct RunMetrics {
  SimTime response_time = 0;
  uint32_t threads = 0;

  /// Sum of busy time over all worker threads.
  SimTime busy_ns_total = 0;
  /// Scheduler threads' busy time (message handling), reported separately.
  SimTime scheduler_busy_ns = 0;

  uint64_t activations_processed = 0;
  uint64_t tuples_processed = 0;
  uint64_t io_requests = 0;
  uint64_t pages_read = 0;

  /// Frame suspensions: blocking actions escaped by procedure call.
  uint64_t suspensions_queue = 0;
  uint64_t suspensions_io = 0;

  /// Local balancing: activations consumed from a non-primary queue.
  uint64_t nonprimary_consumptions = 0;

  /// Global load balancing.
  uint64_t starving_requests = 0;   ///< starving broadcasts issued
  uint64_t global_steals = 0;       ///< successful acquisitions
  uint64_t stolen_activations = 0;
  uint64_t ht_buckets_copied = 0;

  /// Operator-end detection protocol messages.
  uint64_t end_protocol_messages = 0;

  sim::NetworkStats net;

  /// Per-operator input tuples actually processed (conservation checks).
  std::vector<uint64_t> op_tuples_in;

  /// Per-operator global end time (coordinator view); 0 if never ended.
  std::vector<SimTime> op_end_time;

  /// Per-operator busy time (bursts attributed to the frame's operator).
  std::vector<double> op_busy_ns;

  /// Fraction of processor-time spent idle: 1 - busy / (threads * response).
  double IdleFraction() const {
    if (response_time <= 0 || threads == 0) return 0.0;
    double total = static_cast<double>(response_time) * threads;
    double idle = total - static_cast<double>(busy_ns_total);
    return idle > 0 ? idle / total : 0.0;
  }

  double ResponseMs() const { return ToMillis(response_time); }

  std::string ToString() const;
};

}  // namespace hierdb::exec

#endif  // HIERDB_EXEC_METRICS_H_
