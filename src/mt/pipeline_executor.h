// General multithreaded pipeline executor — the paper's execution model on
// real threads and real data.
//
// Executes a PipelinePlan (bushy multi-join, decomposed into pipeline
// chains) on one SM-node with a selectable local load-balancing strategy:
//
//   kDP  dynamic processing (the paper's model): work decomposed into
//        self-contained activations; one queue per (operator x thread);
//        primary-queue affinity; any thread consumes any consumable queue;
//        a producer hitting a full queue escapes by processing another
//        activation (procedure-call suspension, Section 3.1);
//
//   kFP  fixed processing [DeWitt90, Boral90]: threads statically
//        allocated to operators in proportion to estimated operator cost
//        at each scheduling stage; a thread whose operator has no work
//        idles — the discretization and cost-error weaknesses the paper
//        measures in Figures 6-8;
//
//   kSP  synchronous pipelining [Shekita93]: no inter-operator queues;
//        each thread claims scan morsels and carries every tuple through
//        the whole probe chain by procedure calls (shared-memory only).
//
// Operator scheduling follows Section 2.2: hash constraints
// (build before probe), heuristic H1 (a chain's scan waits for its hash
// tables), heuristic H2 (chains execute one at a time); H1/H2 can be
// disabled to reproduce the concurrent-chains discussion of Section 3.2.
//
// Trigger activations are morsel claims on a shared cursor (granularity
// `morsel_rows`); data activations are row batches bound to a hash bucket
// (granularity `batch_rows`); the degree of fragmentation `buckets` is
// much higher than the thread count so skew spreads (Section 3.1).
//
// The queues, outbox, scratch, FP apportionment, span cells and operator
// kernels are the node data plane shared with the cluster backend
// (mt/node_plane.h); this executor adds the single-node scheduling: the
// unblock cascade, guest slots, the build-cache publish and SP's walk.

#ifndef HIERDB_MT_PIPELINE_EXECUTOR_H_
#define HIERDB_MT_PIPELINE_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "common/strategy.h"
#include "mt/build_cache.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace hierdb::mt {

struct Activation;  // mt/node_plane.h

/// The strategy enum is shared by all backends (common/strategy.h); these
/// aliases keep the historical mt::LocalStrategy spelling working.
using LocalStrategy = hierdb::Strategy;

inline const char* LocalStrategyName(LocalStrategy s) {
  return StrategyName(s);
}

struct PipelineOptions {
  uint32_t threads = 4;
  uint32_t buckets = 64;        ///< degree of fragmentation per join
  uint32_t morsel_rows = 16384; ///< trigger-activation granularity
  /// Data-activation granularity: each slot buffers scan and probe output
  /// per (consumer, bucket) across activations and ships a bucket at
  /// batch_rows rows; once an activation leaves more than
  /// kResidencyBatches x batch_rows rows buffered for one consumer, the
  /// fullest buckets ship; the rest ships when the producer ends. Builds
  /// insert a whole morsel per bucket.
  uint32_t batch_rows = 1024;
  /// Flow control, in rows: a queue takes no push past
  /// kQueueRowsPerCapacity x queue_capacity rows, except into an empty
  /// queue; refused pushes wait in the slot's outbox.
  uint32_t queue_capacity = 256;
  LocalStrategy strategy = LocalStrategy::kDP;
  bool apply_h1 = true;         ///< chain scan waits for its hash tables
  bool apply_h2 = true;         ///< chains execute one at a time
  /// FP only: multiplicative distortion applied to per-operator cost
  /// estimates, indexed by compiled op id; empty = exact estimates.
  std::vector<double> fp_cost_distortion;

  /// Where worker threads come from: null spawns `threads` std::threads
  /// per Execute (the legacy path); a session-provided context rents
  /// pooled workers, parks idle ones into cross-query stealing, and
  /// carries the cooperative-cancellation token (common/exec_context.h).
  ExecContext* ctx = nullptr;

  /// Shared build-side reuse: when set, builds whose source is a base
  /// table with a nonzero entry in `table_cache_ids` (aligned with
  /// Execute's `tables` argument) are looked up in — and on miss
  /// published to — the cache under (table id, build col, buckets,
  /// cache_seed_skew). Null disables reuse.
  BuildCache* build_cache = nullptr;
  std::vector<uint64_t> table_cache_ids;
  uint64_t cache_seed_skew = 0;

  /// Per-operator execution tracing: when set, every worker keeps
  /// per-(slot, op) span aggregates (two clock reads per activation) and
  /// the executor emits them — plus cache and steal instants — into the
  /// sink at run end, cancelled and failed runs included. Null (the
  /// default) reduces the entire feature to one pointer check.
  obs::TraceSink* trace = nullptr;

  /// Session flight recorder (obs/recorder.h): when set, steal and
  /// build-cache instants are mirrored into the always-on black box (the
  /// per-query sink above is opt-in and query-scoped). Null = one check.
  obs::FlightRecorder* recorder = nullptr;
  /// Query sequence tag for recorder events (0 = untagged).
  uint64_t recorder_query = 0;

  /// Plan-point row captures (QueryBuilder::CapturePoint): every row
  /// crossing a bound (chain, point) is offered to its sink exactly once,
  /// whichever worker carries it. Empty = no capture work at all.
  std::vector<CaptureSink> captures;
};

struct PipelineStats {
  uint64_t morsels = 0;           ///< trigger activations executed
  uint64_t data_activations = 0;  ///< batch activations executed
  uint64_t batches_emitted = 0;
  uint64_t escapes = 0;           ///< full-queue procedure-call escapes
  uint64_t nonprimary = 0;        ///< consumptions from non-primary queues
  uint64_t idle_waits = 0;        ///< waits with no runnable work
  uint64_t fp_safety_escapes = 0; ///< FP deadlock valve firings (should be 0)
  uint64_t build_cache_hits = 0;  ///< builds satisfied from the shared cache
  uint64_t build_cache_misses = 0;///< cacheable builds executed locally
  uint64_t rows_filtered = 0;     ///< rows dropped by scan-level predicates
  uint64_t agg_groups = 0;        ///< result groups (plans with agg)
  uint64_t agg_partials = 0;      ///< partial-table entries merged in phase 2
  /// Activations per rented worker (cross-query guest helpers excluded).
  std::vector<uint64_t> busy_per_thread;
  /// Rows produced by each chain's terminal operator (the chain's actual
  /// output cardinality; for aggregated plans the final entry counts the
  /// pre-aggregation join rows). Always measured, tracing on or off.
  std::vector<uint64_t> rows_per_chain;

  /// Load imbalance: max over threads of busy / mean busy (1.0 = perfect).
  double Imbalance() const;
};

/// Executes `plan` over `tables`. The executor is reusable; Execute is not
/// re-entrant.
class PipelineExecutor {
 public:
  explicit PipelineExecutor(const PipelineOptions& options);
  ~PipelineExecutor();

  PipelineExecutor(const PipelineExecutor&) = delete;
  PipelineExecutor& operator=(const PipelineExecutor&) = delete;

  /// Executes the plan. When `materialized` is non-null the final chain's
  /// output rows are additionally collected (per-thread partials, merged at
  /// chain end — the same machinery that materializes non-final chains)
  /// and moved into `*materialized`. Plans carrying an AggSpec return the
  /// aggregate rows instead: every worker folds the final-chain rows it
  /// produces into a private partial hash table, and a second phase on the
  /// same ExecContext merges disjoint group-hash partitions in parallel
  /// (so pooled stealing and cancellation cover aggregation unchanged).
  Result<ResultDigest> Execute(const PipelinePlan& plan,
                               const std::vector<const Table*>& tables,
                               PipelineStats* stats = nullptr,
                               Batch* materialized = nullptr);

  /// Number of compiled operators for the given plan (to size
  /// fp_cost_distortion before Execute).
  static uint32_t CompiledOpCount(const PipelinePlan& plan);

 private:
  struct OpState;
  struct Shared;

  PipelineOptions options_;
  std::unique_ptr<Shared> shared_;  // per-run state

  // --- execution machinery (defined in .cc) ---
  void WorkerLoop(uint32_t self);
  bool RunOne(uint32_t self);
  /// Cross-query steal hook: runs at most one activation on a guest slot.
  bool RunOneForeign();
  /// Resolves a trigger op's source (or marks a prebuilt build finished)
  /// and returns its morsel count. Pre: lock on state_mu held.
  size_t ResolveSourceLocked(OpState& op);
  bool ClaimMorsel(uint32_t self, uint32_t op_id);
  void ExecuteData(uint32_t self, Activation&& act);
  void ExecuteMorsel(uint32_t self, uint32_t op_id, size_t begin, size_t end);
  void Emit(uint32_t self, uint32_t dst_op, uint32_t bucket, Batch&& rows);
  void FlushOutbox(uint32_t self);
  bool RunAllowedWhileStuck(uint32_t self, bool unrestricted);
  void FinishActivation(uint32_t op_id);
  void OnOpEnded(uint32_t op_id);
  void RecomputeFpAssignment();
  bool ThreadMayRun(uint32_t self, uint32_t op_id) const;
  /// Emits the accumulated span cells into the sink (every exit path of
  /// Execute, cancelled/failed runs included).
  void EmitTraceCells();
  /// Labels an event with the slot that ran it: a rented worker's slot
  /// (< threads) as `worker`, a guest slot as its `guest` lane.
  void LabelSlot(uint32_t slot, obs::TraceEvent* ev) const;
  /// Abandons build-cache offers a torn-down run will never publish.
  void AbandonPendingOffers();

  Result<ResultDigest> ExecuteSP(const PipelinePlan& plan,
                                 const std::vector<const Table*>& tables,
                                 PipelineStats* stats, Batch* materialized);
};

}  // namespace hierdb::mt

#endif  // HIERDB_MT_PIPELINE_EXECUTOR_H_
