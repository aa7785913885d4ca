// Hierarchical cluster executor — the paper's two-level execution model on
// real threads and real data.
//
// The cluster is a set of SM-nodes (thread groups) coupled only by the
// message-passing Fabric; each node owns partitions of every relation and
// a slice of the global bucket space (bucket home = bucket mod nodes).
// A multi-chain plan of hash joins executes exactly as in Sections 3 and 4:
//
//   local level    one thread per processor; one activation queue per
//                  (operator x thread); primary-queue affinity; under DP
//                  any thread consumes any consumable queue of its node;
//                  under FP threads are statically allocated to operators
//                  in proportion to estimated cost;
//
//   dataflow       scans scatter rows by join-key bucket; activations for
//                  remotely-homed buckets travel as kTupleBatch messages
//                  (the inter-node pipelined redistribution);
//
//   global level   a starving node broadcasts kStarving; every provider
//                  answers with its best candidate queue (kOffer, benefit
//                  = queued probe activations) or kNoWork; the requester
//                  acquires from the most loaded provider (kAcquire) and
//                  receives probe activations plus the hash-table
//                  fragments of the referenced buckets (kWork). Only
//                  probe activations are stealable (Section 3.2 rule iv).
//                  Acquired fragments are cached so repeated starving
//                  reuses already-copied tables (Section 4 optimization);
//
//   end detection  the coordinator protocol of Section 4: each node
//                  reports EndOfQueuesAtNode per operator; after all
//                  reports the coordinator runs a drain-confirm round
//                  (covering in-flight steals), then broadcasts
//                  kOpTerminated, which unblocks dependent operators.
//                  A node that has confirmed an operator drained never
//                  acquires that operator's work again: an offer for it
//                  is ignored, and an acquire for it is not sent, so no
//                  stolen activation can land after its confirmation.
//
//   chains         a bushy plan decomposes into pipeline chains whose
//                  build (or input) sides may be earlier chains' outputs.
//                  Every chain runs on the full node/thread topology; a
//                  non-final chain's output stays distributed — each node
//                  keeps the intermediate rows its own probes produced —
//                  and the consuming chain's trigger re-scatters them by
//                  its join key through the normal bucket routing, so the
//                  repartition ships as kTupleBatch traffic and no
//                  intermediate ever funnels through a single machine.
//                  With ClusterOptions::serialize_chains (the paper's H2,
//                  the default) chains execute back-to-back in plan order;
//                  without it, chains whose inputs are all terminated
//                  execute concurrently.
//
// Inside a node the executor runs the node data plane shared with the
// threads backend (mt/node_plane.h: queues, outbox, scratch, FP
// apportionment, span cells and operator kernels); this file adds the
// routing over the fabric, stolen fragments, the steal protocol and end
// detection.
//
// Strategy semantics for the Figure 10 / Section 5.3 comparison:
//   kDP   global load sharing fires only when the *whole node* starves;
//   kFP   an idle thread (its operator has no local work) immediately
//         triggers a steal request for that operator — the per-processor
//         stealing the paper attributes to FP, with its repeated and
//         mutual starving situations.

#ifndef HIERDB_CLUSTER_CLUSTER_EXECUTOR_H_
#define HIERDB_CLUSTER_CLUSTER_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "fault/fault.h"
#include "mt/pipeline_executor.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "net/fabric.h"
#include "obs/trace.h"

namespace hierdb::cluster {

/// A relation horizontally partitioned across SM-nodes.
struct PartitionedTable {
  uint32_t width = 0;
  std::vector<mt::Batch> parts;  ///< one per node

  uint64_t total_rows() const {
    uint64_t n = 0;
    for (const auto& p : parts) n += p.rows();
    return n;
  }
};

/// Hash-partitions `table` on `col` (the declustering the paper assumes).
PartitionedTable PartitionByHash(const mt::Table& table, uint32_t nodes,
                                 uint32_t col);
/// Round-robin partitioning (balanced regardless of value distribution).
PartitionedTable PartitionRoundRobin(const mt::Table& table, uint32_t nodes);
/// Places a Zipf(theta)-sized share of rows at each node — tuple placement
/// skew for the global load-balancing experiments.
PartitionedTable PartitionWithPlacementSkew(const mt::Table& table,
                                            uint32_t nodes, double theta,
                                            uint64_t seed);

/// A multi-chain plan query: the cluster mirror of mt::PipelinePlan.
/// `plan` is a DAG of pipeline chains whose table sources
/// (mt::Source::OfTable) index `tables` and whose chain sources
/// (mt::Source::OfChain) reference earlier chains' distributed outputs.
/// The final chain's output is the query result.
struct PlanQuery {
  std::vector<const PartitionedTable*> tables;  ///< base relations
  mt::PipelinePlan plan;

  /// Structural validation: plan shape (via mt::PipelinePlan), every chain
  /// has at least one join, every table non-null with one part per node.
  Status Validate(uint32_t nodes) const;
};

/// Single-threaded reference (gathers all partitions, runs the joins).
Result<mt::ResultDigest> ReferenceExecute(const PlanQuery& query);
/// Reference execution that also feeds plan-point capture sinks (ground
/// truth for the cluster backend's CapturePoint samples).
Result<mt::ResultDigest> ReferenceExecute(
    const PlanQuery& query, const std::vector<mt::CaptureSink>& captures);

struct ClusterOptions {
  uint32_t nodes = 4;
  uint32_t threads_per_node = 2;
  uint32_t buckets = 128;        ///< global fragmentation; home = b % nodes
  uint32_t morsel_rows = 8192;
  /// Data-activation granularity: each worker buffers scan, build-scan
  /// and probe output per (consumer, bucket) across activations and ships
  /// a bucket at batch_rows rows — to a local queue or as one fabric
  /// message; once an activation leaves more than mt::kResidencyBatches x
  /// batch_rows rows buffered for one consumer, the fullest buckets ship;
  /// the node loop ships the rest before it reports the producer drained.
  uint32_t batch_rows = 512;
  /// Flow control, in rows: a node queue takes no push past
  /// mt::kQueueRowsPerCapacity x queue_capacity rows, except into an
  /// empty queue; refused pushes wait in an outbox.
  uint32_t queue_capacity = 512;
  mt::LocalStrategy strategy = mt::LocalStrategy::kDP;  ///< kDP or kFP
  bool global_lb = true;         ///< enable inter-node load sharing
  bool cache_stolen_fragments = true;  ///< Section 4 stolen-queue list
  uint32_t steal_batch = 16;     ///< max activations per acquisition
  /// Chain scheduling (multi-chain plans): true applies the paper's H2 —
  /// chains execute back-to-back in plan order; false lets chains whose
  /// source chains have all terminated run concurrently (triggers of a
  /// chain unblock as soon as its own inputs are complete).
  bool serialize_chains = true;
  /// FP only: multiplicative distortion applied to per-operator cost
  /// estimates, indexed by compiled cluster op id (see
  /// ClusterExecutor::CompiledOpCount); empty = exact estimates.
  std::vector<double> fp_cost_distortion;

  /// Where the nodes' worker/scheduler threads come from: null spawns
  /// nodes x (threads_per_node + 1) std::threads per Execute (the legacy
  /// path); a session-provided context supplies gang workers (the node
  /// loops are mutually dependent, so each body keeps a dedicated
  /// thread), lends idle beats to other in-flight queries (Park) and
  /// carries the cooperative cancellation token. The cluster publishes
  /// no steal hook of its own: its activations are node-homed, so
  /// foreign threads help through Park rather than one-shot steals.
  ExecContext* ctx = nullptr;

  /// Per-operator execution tracing: when set, every gang body keeps
  /// per-(slot, op) span aggregates (slot = node x (T+1) + role) and the
  /// executor emits them — plus steal, fragment-cache and fabric-send
  /// instants, all tagged with their node — into the sink at run end,
  /// cancelled and failed runs included. Null disables the feature down
  /// to one pointer check per activation.
  obs::TraceSink* trace = nullptr;

  /// Session flight recorder (obs/recorder.h): fabric send/drop/dup,
  /// heartbeat-miss verdicts and steal instants are mirrored into the
  /// always-on black box. Null = one pointer check per site.
  obs::FlightRecorder* recorder = nullptr;
  /// Query sequence tag for recorder events (0 = untagged).
  uint64_t recorder_query = 0;

  /// Plan-point row captures (QueryBuilder::CapturePoint), in the plan's
  /// (chain, point) coordinates. Each row crossing a bound point is
  /// offered exactly once cluster-wide — stolen activations offer on the
  /// thief, duplicates are suppressed before delivery — so the samples
  /// are comparable with the reference executor's.
  std::vector<mt::CaptureSink> captures;

  /// Optional fault injector (not owned; must outlive Execute). Forwarded
  /// to the fabric for message faults; node stall/crash faults fire in
  /// the per-node scheduler loops. Node-loop faults are only injected
  /// when liveness detection can catch them (detect_faults on and
  /// nodes > 1) — otherwise they would be guaranteed hangs.
  fault::FaultInjector* injector = nullptr;

  /// Liveness detection. When on, every node's scheduler loop broadcasts
  /// kHeartbeat every heartbeat_us and tracks when it last heard from
  /// each peer; silence past liveness_timeout_ms fails the query with
  /// Status::Unavailable naming the suspect node. A global progress
  /// watchdog also fires Unavailable when no message is handled and no
  /// morsel executes for liveness_timeout_ms while the query is
  /// unfinished (the dropped-kTupleBatch case, where every loop is alive
  /// but the query can no longer terminate).
  bool detect_faults = false;
  uint32_t heartbeat_us = 500;
  uint32_t liveness_timeout_ms = 250;
};

struct ClusterStats {
  net::FabricStats fabric;
  uint64_t steal_requests = 0;      ///< kStarving broadcasts sent
  uint64_t steals = 0;              ///< kWork bundles received
  uint64_t stolen_activations = 0;
  uint64_t shipped_fragment_rows = 0;
  uint64_t fragment_cache_hits = 0;  ///< fragments skipped thanks to cache
  uint64_t lb_bytes = 0;            ///< kStarving/kOffer/kAcquire/kWork/kNoWork
  uint64_t dataflow_bytes = 0;      ///< kTupleBatch redistribution
  uint64_t protocol_bytes = 0;      ///< end-detection messages
  std::vector<uint64_t> idle_waits_per_node;
  std::vector<uint64_t> busy_per_node;   ///< activations executed per node

  /// Per-chain distributed intermediates, indexed by chain. The final
  /// chain's entry stays zero (its rows become the result digest); a
  /// single-chain plan therefore reports all-zero intermediates.
  struct ChainIntermediate {
    uint64_t intermediate_rows = 0;   ///< rows materialized across nodes
    uint64_t intermediate_bytes = 0;  ///< their in-memory bytes
    uint64_t repartition_rows = 0;    ///< intermediate rows shipped cross-node
    uint64_t repartition_bytes = 0;   ///< their kTupleBatch wire bytes
  };
  std::vector<ChainIntermediate> per_chain;
  uint64_t intermediate_rows = 0;   ///< totals over all non-final chains
  uint64_t intermediate_bytes = 0;

  /// Rows dropped by scan-level predicates (summed over nodes).
  uint64_t rows_filtered = 0;

  /// Rows produced by each chain's terminal probe, summed over nodes (the
  /// chain's actual output cardinality; for aggregated plans the final
  /// entry counts the pre-aggregation join rows). Always measured.
  std::vector<uint64_t> rows_per_chain;

  /// Distributed aggregation (plans with an AggSpec): per-node local
  /// partial-table entries, the partial rows shipped to their partition's
  /// home node (kTupleBatch traffic, also included in dataflow_bytes),
  /// and the final group count.
  uint64_t agg_partials = 0;
  uint64_t agg_repartition_rows = 0;
  uint64_t agg_repartition_bytes = 0;
  uint64_t agg_groups = 0;

  /// Faults that fired during the run (zero unless a plan was armed) and
  /// duplicate deliveries the receivers suppressed.
  fault::FaultCounters faults;
  uint64_t dup_messages_dropped = 0;

  /// Max over nodes of busy / mean busy (1.0 = perfectly balanced).
  double NodeImbalance() const;
};

class ClusterExecutor {
 public:
  explicit ClusterExecutor(const ClusterOptions& options);
  ~ClusterExecutor();

  ClusterExecutor(const ClusterExecutor&) = delete;
  ClusterExecutor& operator=(const ClusterExecutor&) = delete;

  /// Executes the query. When `materialized` is non-null the final chain's
  /// output rows — normally digested and dropped node-locally — are kept as
  /// each node's tuple batches and gathered into `*materialized` after the
  /// run (stolen activations contribute on their executing node).
  ///
  /// Plans carrying an AggSpec run distributed aggregation after the chain
  /// DAG terminates: each node folds its share of the final rows into a
  /// local partial table, partials repartition by group-key hash to their
  /// home node via the same tuple-batch shipping as the join dataflow, and
  /// each node merges and finalizes its disjoint partitions. The digest
  /// (and any materialized rows) are then the aggregate rows.
  Result<mt::ResultDigest> Execute(const PlanQuery& query,
                                   ClusterStats* stats = nullptr,
                                   mt::Batch* materialized = nullptr);

  /// Number of compiled operators for the given plan (to size
  /// fp_cost_distortion before Execute): 3k+1 per chain of k joins.
  static uint32_t CompiledOpCount(const PlanQuery& query);

 private:
  struct Impl;
  ClusterOptions options_;
  std::unique_ptr<Impl> impl_;
};

}  // namespace hierdb::cluster

#endif  // HIERDB_CLUSTER_CLUSTER_EXECUTOR_H_
