// The parallel execution engine (Sections 3 and 4 of the paper).
//
// Engine::Run executes one parallel execution plan on the simulated
// hierarchical machine under one of three strategies:
//
//   DP (dynamic processing, the paper's model): one thread per processor;
//      any thread consumes any unblocked activation queue of its SM-node,
//      primary queues first; blocking actions (full queue, pending I/O)
//      are escaped by processing another activation (frame-stack nesting);
//      a starving SM-node acquires probe activations + hash tables from
//      the most loaded remote node.
//
//   FP (fixed processing): per pipeline chain, processors are statically
//      allocated to operators proportionally to estimated cost; a thread
//      only consumes queues of its own operator (intra-operator balancing
//      allowed, the shared-memory adaptation of Section 5.2.1). An idle FP
//      processor triggers per-processor global stealing for its operator.
//
//   SP (synchronous pipelining, shared-memory only): every thread carries
//      tuples through the whole pipeline chain by procedure calls; no
//      queues, no interference.
//
// The engine is deliberately single-threaded: it drives a deterministic
// discrete-event simulation, so every experiment is reproducible.
// Internal types (SmNode, Worker, Message) are exposed in this header for
// the implementation files and white-box tests; library users only need
// Engine, RunOptions and RunResult.

#ifndef HIERDB_EXEC_ENGINE_H_
#define HIERDB_EXEC_ENGINE_H_

#include <atomic>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "exec/compiled_plan.h"
#include "exec/ledger.h"
#include "exec/metrics.h"
#include "exec/queue.h"
#include "exec/types.h"
#include "sim/config.h"
#include "sim/disk.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace hierdb::exec {

class Engine;

/// One execution frame: the saved context of a (possibly suspended)
/// activation. A thread that hits a blocking action leaves the frame on
/// its stack and nests into another activation — the procedure-call escape
/// of Section 3.1 ("ProcessAnotherActivation").
struct Frame {
  Activation act;
  uint32_t pc = 0;  ///< 0: start; 1: post-I/O processing; 2: delivering

  bool waiting_io = false;
  bool io_complete = false;
  ActivationQueue* wait_queue = nullptr;  ///< full queue we are blocked on

  /// Pending deliveries: (consumer bucket, tuples) emitted by this
  /// activation that still have to be pushed downstream.
  std::vector<std::pair<uint32_t, uint64_t>> emissions;
  size_t emit_idx = 0;

  uint64_t serial = 0;  ///< for I/O completion routing

  bool QueueBlocked() const { return wait_queue != nullptr; }
};

/// Inter-node messages (handled by the per-node scheduler threads).
struct Message {
  enum class Kind {
    kDataBatch,          // pipelined tuple batch
    kStarving,           // requester -> all: I am starving
    kCandidateReply,     // provider -> requester: best candidate queue
    kAcquire,            // requester -> provider: take that queue
    kTransfer,           // provider -> requester: activations (+ HT bytes)
    kEndOfQueuesAtNode,  // node -> coordinator (end detection phase 1)
    kDrainCheck,         // coordinator -> node (phase 2)
    kDrainConfirm,       // node -> coordinator (phase 3)
    kOperatorEnded,      // coordinator -> all (phase 4)
  };
  Kind kind;
  NodeId from = 0;
  OpId op = kNoOp;

  // kDataBatch
  Activation batch;
  // kStarving
  uint64_t mem_available = 0;
  bool targeted = false;  ///< FP: steal only for `op`
  // kCandidateReply
  bool has_candidate = false;
  uint32_t slot = 0;
  uint64_t load_tuples = 0;     ///< provider's total backlog
  uint64_t transfer_bytes = 0;  ///< estimated acquisition overhead
  // kTransfer
  std::deque<Activation> activations;
  uint64_t ht_bytes = 0;
  uint32_t ht_buckets = 0;

  /// Approximate wire size, for network accounting.
  uint64_t WireBytes(uint32_t tuple_size) const;
};

/// Per-worker strategy-dependent assignment.
struct WorkerAssignment {
  /// FP: operators this thread may process (usually one per chain).
  std::vector<OpId> fp_ops;
};

class Worker {
 public:
  Worker(Engine* eng, NodeId node, uint32_t idx)
      : eng_(eng), node_(node), idx_(idx) {}

  /// Ensures a dispatch event is pending (no-op when already running).
  void Kick();

  NodeId node_id() const { return node_; }
  uint32_t index() const { return idx_; }
  SimTime busy_ns() const { return busy_ns_; }
  const std::vector<Frame>& stack() const { return stack_; }
  WorkerAssignment& assignment() { return assignment_; }

  void OnIoComplete(uint64_t frame_serial);

 private:
  friend class Engine;

  void Dispatch();
  void DispatchImpl();
  bool CanResumeTop() const;
  void RotateResumableToTop();
  /// Selects one activation per the strategy's rules; returns true if a
  /// burst was started.
  bool SelectAndRun();
  bool TryConsume(ActivationQueue* q, bool primary);
  /// Runs the top frame until it blocks or completes; schedules the
  /// continuation after the accumulated cost.
  void RunBurst(double initial_instr);
  /// Executes steps of frame `f`; returns false when blocked.
  bool StepFrame(Frame& f, double* instr);
  bool OpConflictsWithStack(OpId op, bool is_trigger) const;
  void FinishBurst(double instr);

  Engine* eng_;
  NodeId node_;
  uint32_t idx_;
  std::vector<Frame> stack_;
  bool continuation_pending_ = false;
  bool running_ = false;
  SimTime busy_ns_ = 0;
  uint64_t next_frame_serial_ = 1;
  WorkerAssignment assignment_;
};

/// One shared-memory node: its workers, disks, queues, producer-side
/// output accumulators, and the scheduler state (global load balancing and
/// operator-end detection).
struct SmNode {
  NodeId id = 0;
  std::vector<std::unique_ptr<Worker>> workers;
  std::unique_ptr<sim::DiskArray> disks;

  /// queues[op][slot]; slot in [0, procs) is the per-thread queue (may be
  /// null under FP for unassigned threads); slot == procs is the
  /// load-balancing queue holding acquired activations.
  std::vector<std::vector<std::unique_ptr<ActivationQueue>>> queues;

  /// Circular list of active (unblocked, non-terminated, existing) queues
  /// (Section 4, Figure 5), op-major / slot-minor.
  std::vector<ActivationQueue*> active_list;
  /// active_list starting position per thread (its first primary queue).
  std::vector<size_t> start_pos;

  /// accum[consumer_op][bucket]: producer-side output buffering.
  std::vector<std::vector<uint64_t>> accum;

  /// Per-op counters for end detection.
  std::vector<uint32_t> inflight;        ///< frames being processed here
  std::vector<uint32_t> pending;         ///< in-flight deliveries to here
  std::vector<char> end_signaled;        ///< phase 1 sent
  std::vector<char> drain_requested;     ///< phase 2 received
  std::vector<char> drain_confirmed;     ///< phase 3 sent
  std::vector<char> op_ended;            ///< phase 4 received
  std::vector<char> op_unblocked;

  /// Hash-table bucket copies acquired by global LB: copies[op] = buckets.
  std::vector<std::set<uint32_t>> ht_copies;

  // Global-LB requester state.
  bool lb_requesting = false;
  OpId lb_target_op = kNoOp;  ///< FP targeted steal
  uint32_t lb_replies_pending = 0;
  struct LbCandidate {
    NodeId provider;
    OpId op;
    uint32_t slot;
    uint64_t load;
    uint64_t bytes;
  };
  std::vector<LbCandidate> lb_candidates;
  SimTime last_lb_request = -kSecond;

  SimTime scheduler_busy_ns = 0;

  ActivationQueue* queue(OpId op, uint32_t slot) {
    return queues[op][slot].get();
  }
  uint32_t lb_slot() const {
    return static_cast<uint32_t>(workers.size());
  }
};

/// Per-run options.
struct RunOptions {
  /// Redistribution-skew factor (Zipf theta in [0,1], Section 5.2.2).
  double skew_theta = 0.0;
  /// FP only: cost-model error rate r; base cardinalities are distorted by
  /// factors in [1-r, 1+r] before allocation (Fig 7).
  double fp_error_rate = 0.0;
  /// Seed for the per-run randomness (bucket shuffles, distortions).
  uint64_t seed = 1;
  /// Safety valve for tests: abort after this many simulation events.
  uint64_t max_events = 2'000'000'000ULL;
  /// Cooperative cancellation: when set, the event loop checks it once
  /// per event batch and aborts the run with Status::Cancelled.
  const std::atomic<bool>* stop = nullptr;
};

struct RunResult {
  Status status = Status::OK();
  RunMetrics metrics;
};

/// The execution engine. One instance per run.
class Engine {
 public:
  Engine(const sim::SystemConfig& cfg, Strategy strategy);

  /// Executes `pplan` and returns the metrics. Deterministic.
  RunResult Run(const plan::PhysicalPlan& pplan, const catalog::Catalog& cat,
                const RunOptions& opts);

  // ---- internal API (implementation files and white-box tests) ----

  const sim::SystemConfig& cfg() const { return cfg_; }
  Strategy strategy() const { return strategy_; }
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  const CompiledPlan& compiled() const { return *compiled_; }
  SmNode& node(NodeId n) { return *nodes_[n]; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nodes_.size()); }
  RunMetrics& metrics() { return metrics_; }
  bool done() const { return done_; }
  EmissionLedger* ledger(OpId op) { return ledgers_[op].get(); }
  size_t sp_chain_cursor() const { return sp_chain_cursor_; }

  /// Effective ns for `instr` instructions on `node`'s processors.
  SimTime InstrNs(double instr) const {
    return static_cast<SimTime>(instr * instr_ns_);
  }

  // Dataflow.
  /// Producer-side emission: accumulate `tuples` for `consumer`'s bucket
  /// `b` on `from` node (no flushing; the frame flushes afterwards).
  void Accumulate(NodeId from, OpId consumer, uint32_t b, uint64_t tuples);
  /// Attempts to move one batch (or `force` any residue) of bucket `b`
  /// toward its destination queue. Returns the full local queue when
  /// flow-control blocks, nullptr on success or no-op. Adds CPU cost for
  /// local enqueues / remote sends to *instr.
  ActivationQueue* FlushBucket(NodeId from, OpId consumer, uint32_t b,
                               bool force, double* instr);
  /// Destination queue of bucket `b` for consumer `op` on its home node.
  ActivationQueue* DestQueue(OpId op, uint32_t b);

  // Scheduler entry points.
  void WorkerStarving(NodeId n, OpId fp_target_op);
  void OnFrameStart(NodeId n, OpId op);
  /// A frame completed in a burst that ends at `burst_end`.
  void OnFrameDone(NodeId n, OpId op, SimTime burst_end);
  void CheckLocalEnd(NodeId n, OpId op);
  void KickAllWorkers(NodeId n);
  void RebuildActiveList(NodeId n);

  // SP chain tracking.
  void SpOnTriggerDone(uint32_t chain_id, SimTime burst_end);
  /// SP: converts a completed trigger read into shared CPU batch
  /// activations that any thread of the node may process.
  void SpPublishCpuBatches(NodeId n, const Activation& trigger);

 private:
  friend class Worker;

  void SetupNodes(const RunOptions& opts);
  void SetupQueuesDp();
  void SetupQueuesFp(const RunOptions& opts);
  void SetupQueuesSp();
  void PreloadTriggers();
  void InitialUnblock();

  // FP allocation.
  void ComputeFpAssignments(const RunOptions& opts);

  // Messaging.
  void SendMessage(NodeId from, NodeId to, Message msg,
                   sim::TrafficClass cls);
  void HandleMessage(NodeId at, Message msg);

  // Global load balancing (scheduler side).
  void LbHandleStarving(NodeId at, const Message& msg);
  void LbHandleReply(NodeId at, const Message& msg);
  void LbHandleAcquire(NodeId at, const Message& msg);
  void LbHandleTransfer(NodeId at, Message msg);
  std::optional<Message> LbFindCandidate(NodeId provider,
                                         const Message& request);

  // End detection.
  void EndHandleSignal(NodeId coordinator, const Message& msg);
  void EndHandleDrainCheck(NodeId at, const Message& msg);
  void EndHandleDrainConfirm(NodeId coordinator, const Message& msg);
  void EndHandleEnded(NodeId at, const Message& msg);
  void TryConfirmDrain(NodeId n, OpId op);
  void FlushProducerResidue(NodeId n, OpId producer);
  void MarkOpEndedEverywhere(OpId op, SimTime at);  // SP fast path

  void FinalizeMetrics();
  Status VerifyConservation() const;

  sim::SystemConfig cfg_;
  Strategy strategy_;
  double instr_ns_ = 25.0;

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<CompiledPlan> compiled_;
  std::vector<std::unique_ptr<SmNode>> nodes_;
  std::vector<std::unique_ptr<EmissionLedger>> ledgers_;  // per producer op
  /// Thread slots owning queues of each op (DP: all threads; FP: the
  /// allocated subset; SP: unused).
  std::vector<std::vector<uint32_t>> fp_threads_of_op_;

  // Coordinator (node 0) end-detection state.
  std::vector<std::set<NodeId>> end_signals_;
  std::vector<std::set<NodeId>> drain_confirms_;
  std::vector<char> op_globally_ended_;
  uint32_t ops_ended_count_ = 0;

  // SP chain tracking.
  std::vector<uint64_t> sp_triggers_left_;
  // Latest end of a burst that completed one of the chain's triggers: the
  // chain ends when its last burst does, not when its last trigger's
  // burst starts.
  std::vector<SimTime> sp_chain_end_;
  size_t sp_chain_cursor_ = 0;
  uint32_t sp_rr_ = 0;  ///< round-robin cursor for SP CPU batches

  Rng rng_;
  RunMetrics metrics_;
  bool done_ = false;
};

}  // namespace hierdb::exec

#endif  // HIERDB_EXEC_ENGINE_H_
