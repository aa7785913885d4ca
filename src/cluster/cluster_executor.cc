#include "cluster/cluster_executor.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/zipf.h"
#include "mt/node_plane.h"
#include "net/message.h"

namespace hierdb::cluster {

using mt::Activation;
using mt::Batch;
using mt::LocalStrategy;
using mt::ResultDigest;
using mt::RowTable;
using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------
// Partition helpers.

PartitionedTable PartitionByHash(const mt::Table& table, uint32_t nodes,
                                 uint32_t col) {
  PartitionedTable out;
  out.width = table.width();
  out.parts.assign(nodes, Batch(table.width()));
  for (size_t i = 0; i < table.rows(); ++i) {
    const int64_t* row = table.batch.row(i);
    uint32_t node =
        static_cast<uint32_t>((mt::HashKey(row[col]) >> 32) % nodes);
    out.parts[node].AppendRow(row);
  }
  return out;
}

PartitionedTable PartitionRoundRobin(const mt::Table& table, uint32_t nodes) {
  PartitionedTable out;
  out.width = table.width();
  out.parts.assign(nodes, Batch(table.width()));
  for (size_t i = 0; i < table.rows(); ++i) {
    out.parts[i % nodes].AppendRow(table.batch.row(i));
  }
  return out;
}

PartitionedTable PartitionWithPlacementSkew(const mt::Table& table,
                                            uint32_t nodes, double theta,
                                            uint64_t seed) {
  PartitionedTable out;
  out.width = table.width();
  out.parts.assign(nodes, Batch(table.width()));
  Rng rng(seed);
  std::vector<uint64_t> sizes =
      ZipfApportion(table.rows(), nodes, theta, &rng);
  size_t i = 0;
  for (uint32_t n = 0; n < nodes; ++n) {
    for (uint64_t j = 0; j < sizes[n]; ++j, ++i) {
      out.parts[n].AppendRow(table.batch.row(i));
    }
  }
  return out;
}

Status PlanQuery::Validate(uint32_t nodes) const {
  std::vector<uint32_t> widths;
  widths.reserve(tables.size());
  for (const PartitionedTable* t : tables) {
    if (t == nullptr) return Status::InvalidArgument("null table");
    if (t->parts.size() != nodes) {
      return Status::InvalidArgument("table partition count != nodes");
    }
    widths.push_back(t->width);
  }
  HIERDB_RETURN_NOT_OK(plan.ValidateWidths(widths));
  for (const mt::Chain& c : plan.chains) {
    if (c.joins.empty()) {
      return Status::InvalidArgument("every chain needs at least one join");
    }
  }
  // Every non-final chain must feed a later chain: an unconsumed output
  // would have nowhere to materialize and be dropped silently.
  std::vector<bool> mat = plan.MaterializedChains();
  for (size_t c = 0; c + 1 < plan.chains.size(); ++c) {
    if (!mat[c]) {
      return Status::InvalidArgument(
          "chain " + std::to_string(c) +
          " is not the final chain and no later chain consumes its output");
    }
  }
  return Status::OK();
}

namespace {

mt::Table Gather(const PartitionedTable& pt) {
  mt::Table t;
  t.batch = Batch(pt.width);
  for (const Batch& p : pt.parts) t.batch.Append(p);
  return t;
}

}  // namespace

Result<ResultDigest> ReferenceExecute(const PlanQuery& query) {
  return ReferenceExecute(query, {});
}

Result<ResultDigest> ReferenceExecute(
    const PlanQuery& query, const std::vector<mt::CaptureSink>& captures) {
  HIERDB_RETURN_NOT_OK(query.Validate(
      query.tables.empty()
          ? 0
          : static_cast<uint32_t>(query.tables.front()->parts.size())));
  std::vector<mt::Table> tables;
  tables.reserve(query.tables.size());
  for (const PartitionedTable* pt : query.tables) tables.push_back(Gather(*pt));
  std::vector<const mt::Table*> ptrs;
  for (const auto& t : tables) ptrs.push_back(&t);
  return mt::ReferenceExecute(query.plan, ptrs, captures);
}

double ClusterStats::NodeImbalance() const {
  if (busy_per_node.empty()) return 1.0;
  uint64_t max = 0, sum = 0;
  for (uint64_t b : busy_per_node) {
    max = std::max(max, b);
    sum += b;
  }
  if (sum == 0) return 1.0;
  return static_cast<double>(max) * busy_per_node.size() /
         static_cast<double>(sum);
}

// ---------------------------------------------------------------------
// Implementation.

namespace {

constexpr uint32_t kAnyOp = UINT32_MAX;
constexpr int64_t kMorselsUnknown = -1;  // trigger source chain still running
// A provider offers a probe operator only with at least this many queued
// activations: stealing a lone activation costs more than it balances.
constexpr uint64_t kMinStealDepth = 2;

}  // namespace

struct ClusterExecutor::Impl {
  // ---- static query shape ----
  //
  // The op space concatenates per-chain blocks. Chain c with k joins owns
  // ops [op_base, op_base + 3k]:
  //   op_base + j          buildscan of join j   (trigger)
  //   op_base + k + j      build of join j       (data)
  //   op_base + 2k         scan                  (trigger)
  //   op_base + 2k + 1 + j probe of join j       (data)
  // Joins are likewise numbered globally (join_base + j) to index the
  // per-join hash-table and stolen-fragment state.
  const ClusterOptions& opt;
  const PlanQuery* query = nullptr;
  uint32_t nops = 0;
  uint32_t njoins = 0;
  // Keep the final chain's output rows (per node, in inter[]) so Execute
  // can gather them into a materialized result. Set before Compile().
  bool materialize_final = false;
  // Distributed aggregation over the final chain's rows (set by Compile
  // from the plan): the final rows are kept per node as aggregation input
  // and the per-thread digests are skipped — the result identity comes
  // from the merged aggregate rows instead.
  const mt::AggSpec* agg = nullptr;

  struct ChainInfo {
    uint32_t k = 0;          // joins
    uint32_t op_base = 0;
    uint32_t join_base = 0;
    uint32_t terminal = 0;   // last probe op
    uint32_t out_width = 0;
    bool materialized = false;  // consumed by a later chain
    int32_t input_gate = -1;    // terminal op of the input's source chain
    int32_t stage_gate = -1;    // previous chain's terminal (serialize mode)
  };
  std::vector<ChainInfo> chains;
  std::vector<uint32_t> op_chain;  // op id -> chain index

  // Per global join: the pipelined probe column, the build column, the
  // build source (table or chain) and its width.
  std::vector<uint32_t> jn_probe_col, jn_build_col, jn_build_width;
  std::vector<mt::Source> jn_build_src;
  std::vector<int32_t> jn_build_gate;  // build source chain's terminal op

  std::vector<uint32_t> probe_ops;  // all probe ops (steal candidates)
  // Trigger ops whose morsel count resolves only once their source chain
  // terminates: (trigger op, source chain).
  std::vector<std::pair<uint32_t, uint32_t>> deferred_triggers;
  // Destination ops receiving a chain's repartitioned intermediate, per
  // source chain (to attribute kTupleBatch traffic in the stats), and the
  // inverse: per op, the source chain it receives, or -1.
  std::vector<std::vector<uint32_t>> repart_dst_ops;
  std::vector<int32_t> repart_src;

  net::Fabric fabric;

  // Worker provider + cooperative cancellation for this run.
  ExecContext* ctx = nullptr;
  std::atomic<bool> cancelled{false};

  // ---- tracing (null disables the feature; see ClusterOptions) ----
  // Slot s belongs exclusively to gang body s = node * (T+1) + role, so
  // span cells need no synchronization; they are emitted after the gang
  // barrier.
  obs::TraceSink* trace = nullptr;
  mt::SpanCells spans;

  uint32_t slot_of(uint32_t node, uint32_t role) const {
    return node * (opt.threads_per_node + 1) + role;
  }
  /// Emits the span cells (every exit path, cancelled/failed runs
  /// included); role 0 is the node's scheduler (worker -1).
  void EmitTraceCells() {
    const uint32_t per_node = opt.threads_per_node + 1;
    spans.Emit([per_node](uint32_t s, obs::TraceEvent* ev) {
      ev->node = static_cast<int32_t>(s / per_node);
      ev->worker = static_cast<int32_t>(s % per_node) - 1;
    });
  }

  // ---- fault detection state ----
  // Message faults are only forwarded to the fabric when detection is on:
  // without the watchdog a dropped message is an undetectable hang or a
  // silently wrong digest.
  std::atomic<bool> unavailable{false};
  std::mutex fail_mu;
  std::string unavailable_msg;
  /// Global progress clock: bumped on every handled message and every
  /// executed activation/morsel (only when detection is on). Node 0's
  /// scheduler watches it; no movement past the liveness timeout while
  /// the query is unfinished means termination can no longer be reached
  /// (the dropped-message case where every loop is still alive).
  std::atomic<uint64_t> progress{0};
  std::atomic<uint64_t> dup_dropped{0};

  static uint64_t MonoNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  explicit Impl(const ClusterOptions& o)
      : opt(o),
        fabric({.nodes = o.nodes,
                .injector = o.detect_faults ? o.injector : nullptr,
                .recorder = o.recorder,
                .recorder_query = o.recorder_query}) {}

  /// First stop-observer tears the whole run down: every node's done flag
  /// releases its workers, and schedulers exit on `cancelled`.
  void CancelAll() {
    cancelled.store(true, std::memory_order_release);
    for (auto& ns : node_state) {
      ns->done.store(true, std::memory_order_release);
      ns->wake_cv.notify_all();
    }
  }

  /// Fault detection verdict: records the first diagnosis, then tears the
  /// run down. Execute translates it into Status::Unavailable.
  void FailUnavailable(std::string msg) {
    {
      std::lock_guard<std::mutex> lock(fail_mu);
      if (unavailable_msg.empty()) unavailable_msg = std::move(msg);
    }
    unavailable.store(true, std::memory_order_release);
    CancelAll();
  }

  struct NodeState;  // defined below (per-node state)

  /// Duplicate suppression for injected message duplication: Send stamps
  /// a per-sender sequence number, the receiving scheduler drops repeats.
  /// Only consulted when duplication is armed, so the normal path stays a
  /// pointer check.
  bool IsDuplicate(NodeState& ns, const net::Message& m) {
    if (opt.injector == nullptr || opt.injector->plan().dup_prob <= 0.0 ||
        m.seq == 0) {
      return false;
    }
    if (!ns.seen_seq[m.from].insert(m.seq).second) {
      dup_dropped.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  uint32_t chain_of(uint32_t op) const { return op_chain[op]; }
  uint32_t build_op(uint32_t c, uint32_t j) const {
    return chains[c].op_base + chains[c].k + j;
  }
  uint32_t scan_op(uint32_t c) const {
    return chains[c].op_base + 2 * chains[c].k;
  }
  uint32_t probe_op(uint32_t c, uint32_t j) const {
    return chains[c].op_base + 2 * chains[c].k + 1 + j;
  }
  bool is_probe(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    return op - ci.op_base > 2 * ci.k;
  }
  bool is_build(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    return rel >= ci.k && rel < 2 * ci.k;
  }
  bool is_trigger(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    return rel < ci.k || rel == 2 * ci.k;
  }
  /// Global join index of a buildscan/build/probe op.
  uint32_t join_of(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    if (rel < ci.k) return ci.join_base + rel;                    // buildscan
    if (rel < 2 * ci.k) return ci.join_base + rel - ci.k;         // build
    return ci.join_base + rel - 2 * ci.k - 1;                     // probe
  }
  /// The op our data activations feed, kAnyOp for builds and terminal
  /// probes (the ops that buffer no output).
  uint32_t consumer_of(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    const uint32_t rel = op - ci.op_base;
    if (rel < ci.k) return op + ci.k;  // buildscan -> its build
    if (rel < 2 * ci.k || op == ci.terminal) return kAnyOp;
    return op + 1;  // scan -> probe 0, probe j -> probe j + 1
  }
  uint32_t producer_of(uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    if (rel < 2 * ci.k) return op - ci.k;  // build <- its buildscan
    // Probe j <- probe j-1, probe 0 <- scan; both are op - 1.
    return op - 1;
  }
  uint32_t home_of(uint32_t bucket) const { return bucket % opt.nodes; }

  // ---- per-node state ----
  struct NodeState {
    // Queues per (op, thread); only data ops (build/probe) use them.
    mt::ActivationQueues queues;
    std::vector<std::atomic<int64_t>> pending;       // per op
    std::vector<std::atomic<int64_t>> morsels_left;  // per trigger op
    std::vector<std::atomic<size_t>> cursor;         // per trigger op
    std::vector<std::atomic<bool>> terminated;       // global, per op

    // Local bucket tables (home buckets only) + insert locks.
    std::vector<std::vector<RowTable>> tables;  // [join][bucket]
    std::vector<std::vector<std::unique_ptr<std::mutex>>> bucket_mu;

    // Stolen fragments: [join] -> bucket -> table.
    std::vector<std::unordered_map<uint32_t, std::unique_ptr<RowTable>>>
        stolen;
    std::vector<std::unique_ptr<std::shared_mutex>> stolen_mu;  // per join
    // Buckets whose fragments we cached, per join (the Section 4 list).
    std::vector<std::unordered_set<uint32_t>> cached_buckets;

    // Distributed intermediates: this node's share of each materialized
    // chain's output (appended by the chain's terminal probe, frozen once
    // the chain globally terminates, then scanned by consuming triggers).
    std::vector<Batch> inter;                            // per chain
    std::vector<std::unique_ptr<std::mutex>> inter_mu;   // per chain

    // Distributed aggregation, phase 1: per-thread partial group tables
    // fed directly by the final chain's terminal probe (the join result
    // is never buffered — memory stays O(groups) per thread).
    std::vector<mt::AggTable> agg_partials;              // per thread
    // Intermediate rows this node shipped to a remote home while
    // repartitioning, per source chain.
    std::vector<std::atomic<uint64_t>> repart_rows;

    // Steal protocol (scheduler-owned unless noted).
    std::atomic<bool> starving{false};                 // DP: set by workers
    std::vector<std::atomic<bool>> fp_starving;        // FP: per op
    std::atomic<int64_t> steal_inflight{0};
    bool steal_in_progress = false;
    uint32_t steal_op = kAnyOp;
    uint32_t offers_pending = 0;
    uint32_t best_provider = UINT32_MAX;
    uint32_t best_op = kAnyOp;
    uint64_t best_count = 0;

    // End detection (scheduler-owned).
    std::vector<bool> reported;
    std::vector<bool> drain_requested;
    std::vector<bool> drain_acked;

    // Scheduler overflow buffer for routing into full queues.
    mt::Outbox route_overflow;

    // Per-sender message sequence numbers already handled (consumed only
    // by this node's receive loops; populated only when duplication
    // faults are armed).
    std::vector<std::unordered_set<uint64_t>> seen_seq;

    // FP stage assignments: a thread range per op.
    std::vector<mt::ThreadRange> fp_range;

    std::atomic<bool> done{false};
    std::atomic<bool> failed{false};

    // Worker wakeup: schedulers notify after routing work or state
    // changes so idle workers don't spin-poll.
    std::mutex wake_mu;
    std::condition_variable wake_cv;

    // Results and stats.
    std::vector<ResultDigest> digests;          // per thread
    std::vector<uint64_t> busy;                 // per thread
    // Rows produced by each chain's terminal probe: [chain * T + t],
    // written only by worker t (always measured, tracing on or off).
    std::vector<uint64_t> chain_rows;
    std::atomic<uint64_t> idle{0};
    std::atomic<uint64_t> stolen_acts{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> steal_reqs{0};
    std::atomic<uint64_t> cache_hits{0};
    std::atomic<uint64_t> shipped_rows{0};
    std::atomic<uint64_t> filtered{0};
    std::atomic<uint64_t> agg_repart_rows{0};

    // Per-worker outboxes for full local queues, output buffers (rows
    // bound for a consumer, across activations; the node loop flushes
    // their residue, see FlushResidue) and scratch.
    std::vector<mt::Outbox> outbox;
    mt::SlotBuffers out;
    mt::ScratchPool scratch;
  };
  std::vector<std::unique_ptr<NodeState>> node_state;

  // Coordinator (node 0) bookkeeping.
  std::vector<uint32_t> coord_reports;
  std::vector<uint32_t> coord_acks;
  std::vector<bool> coord_drain;
  std::vector<bool> coord_terminated;

  // ------------------------------------------------------------------
  // Setup.

  void Compile(const PlanQuery& q) {
    query = &q;
    agg = q.plan.agg.has_value() ? &*q.plan.agg : nullptr;
    const auto& pchains = q.plan.chains;
    const uint32_t C = static_cast<uint32_t>(pchains.size());

    chains.clear();
    op_chain.clear();
    jn_probe_col.clear();
    jn_build_col.clear();
    jn_build_width.clear();
    jn_build_src.clear();
    jn_build_gate.clear();
    probe_ops.clear();
    deferred_triggers.clear();
    repart_dst_ops.assign(C, {});
    nops = 0;
    njoins = 0;

    auto src_width = [&](const mt::Source& s) -> uint32_t {
      // Pruned base tables enter the pipeline at their projected width
      // (scans emit only the kept columns; see ExecuteMorsel).
      return s.kind == mt::Source::Kind::kTable
                 ? q.plan.EffectiveTableWidth(s.index, q.tables[s.index]->width)
                 : chains[s.index].out_width;
    };
    std::vector<bool> mat = q.plan.MaterializedChains();
    for (uint32_t c = 0; c < C; ++c) {
      ChainInfo ci;
      ci.k = static_cast<uint32_t>(pchains[c].joins.size());
      ci.op_base = nops;
      ci.join_base = njoins;
      ci.terminal = ci.op_base + 3 * ci.k;  // last probe
      ci.materialized = mat[c];
      ci.out_width = src_width(pchains[c].input);
      if (pchains[c].input.kind == mt::Source::Kind::kChain) {
        ci.input_gate =
            static_cast<int32_t>(chains[pchains[c].input.index].terminal);
      }
      if (opt.serialize_chains && c > 0) {
        ci.stage_gate = static_cast<int32_t>(chains[c - 1].terminal);
      }
      for (uint32_t j = 0; j < ci.k; ++j) {
        const mt::JoinStep& js = pchains[c].joins[j];
        jn_probe_col.push_back(js.probe_col);
        jn_build_col.push_back(js.build_col);
        jn_build_width.push_back(src_width(js.build));
        jn_build_src.push_back(js.build);
        jn_build_gate.push_back(
            js.build.kind == mt::Source::Kind::kChain
                ? static_cast<int32_t>(chains[js.build.index].terminal)
                : -1);
        ci.out_width += jn_build_width.back();
      }
      nops += 3 * ci.k + 1;
      njoins += ci.k;
      chains.push_back(ci);
      op_chain.resize(nops, c);
      for (uint32_t j = 0; j < ci.k; ++j) probe_ops.push_back(probe_op(c, j));
      // Triggers over chain intermediates: morsel counts resolve when the
      // source chain terminates; also record the repartition destination.
      if (pchains[c].input.kind == mt::Source::Kind::kChain) {
        deferred_triggers.push_back({scan_op(c), pchains[c].input.index});
        repart_dst_ops[pchains[c].input.index].push_back(probe_op(c, 0));
      }
      for (uint32_t j = 0; j < ci.k; ++j) {
        const mt::Source& b = pchains[c].joins[j].build;
        if (b.kind == mt::Source::Kind::kChain) {
          deferred_triggers.push_back({ci.op_base + j, b.index});
          repart_dst_ops[b.index].push_back(build_op(c, j));
        }
      }
    }
    repart_src.assign(nops, -1);
    for (uint32_t c = 0; c < C; ++c) {
      for (uint32_t dst : repart_dst_ops[c]) {
        repart_src[dst] = static_cast<int32_t>(c);
      }
    }

    coord_reports.assign(nops, 0);
    coord_acks.assign(nops, 0);
    coord_drain.assign(nops, false);
    coord_terminated.assign(nops, false);

    const uint32_t T = opt.threads_per_node;
    const uint32_t B = opt.buckets;
    node_state.clear();
    for (uint32_t n = 0; n < opt.nodes; ++n) {
      auto ns = std::make_unique<NodeState>();
      ns->queues.Init(nops, T);
      ns->pending = std::vector<std::atomic<int64_t>>(nops);
      ns->morsels_left = std::vector<std::atomic<int64_t>>(nops);
      ns->cursor = std::vector<std::atomic<size_t>>(nops);
      ns->terminated = std::vector<std::atomic<bool>>(nops);
      ns->fp_starving = std::vector<std::atomic<bool>>(nops);
      for (uint32_t i = 0; i < nops; ++i) {
        ns->pending[i].store(0);
        ns->morsels_left[i].store(0);
        ns->cursor[i].store(0);
        ns->terminated[i].store(false);
        ns->fp_starving[i].store(false);
      }
      ns->tables.resize(njoins);
      ns->bucket_mu.resize(njoins);
      ns->stolen.resize(njoins);
      ns->stolen_mu.resize(njoins);
      ns->cached_buckets.resize(njoins);
      for (uint32_t g = 0; g < njoins; ++g) {
        ns->tables[g].resize(B);
        ns->bucket_mu[g].resize(B);
        ns->stolen_mu[g] = std::make_unique<std::shared_mutex>();
        for (uint32_t b = 0; b < B; ++b) {
          ns->tables[g][b].Init(jn_build_width[g], jn_build_col[g]);
          ns->bucket_mu[g][b] = std::make_unique<std::mutex>();
        }
      }
      ns->inter.resize(C);
      ns->inter_mu.resize(C);
      ns->repart_rows = std::vector<std::atomic<uint64_t>>(C);
      for (uint32_t c = 0; c < C; ++c) {
        // Under aggregation the final chain's rows fold into the partial
        // tables instead of materializing (agg output is gathered
        // separately).
        if (chains[c].materialized ||
            (materialize_final && agg == nullptr && c + 1 == C)) {
          ns->inter[c] = Batch(chains[c].out_width);
        }
        ns->inter_mu[c] = std::make_unique<std::mutex>();
        ns->repart_rows[c].store(0);
      }
      if (agg != nullptr) {
        ns->agg_partials.resize(T);
        for (mt::AggTable& t : ns->agg_partials) t.Init(agg);
      }
      ns->reported.assign(nops, false);
      ns->drain_requested.assign(nops, false);
      ns->drain_acked.assign(nops, false);
      ns->seen_seq.resize(opt.nodes);
      ns->digests.assign(T, {});
      ns->busy.assign(T, 0);
      ns->chain_rows.assign(static_cast<size_t>(C) * T, 0);
      ns->outbox.resize(T);
      ns->out.Init(T, nops);
      ns->scratch.Init(T, B);
      // Trigger morsel counts: known now for base-table sources, resolved
      // at source-chain termination for intermediate sources.
      auto morsels = [&](size_t rows) {
        return static_cast<int64_t>((rows + opt.morsel_rows - 1) /
                                    opt.morsel_rows);
      };
      for (uint32_t c = 0; c < C; ++c) {
        const mt::Chain& chain = pchains[c];
        if (chain.input.kind == mt::Source::Kind::kTable) {
          ns->morsels_left[scan_op(c)].store(
              morsels(q.tables[chain.input.index]->parts[n].rows()));
        } else {
          ns->morsels_left[scan_op(c)].store(kMorselsUnknown);
        }
        for (uint32_t j = 0; j < chains[c].k; ++j) {
          const mt::Source& b = chain.joins[j].build;
          if (b.kind == mt::Source::Kind::kTable) {
            ns->morsels_left[chains[c].op_base + j].store(
                morsels(q.tables[b.index]->parts[n].rows()));
          } else {
            ns->morsels_left[chains[c].op_base + j].store(kMorselsUnknown);
          }
        }
      }
      if (opt.strategy == LocalStrategy::kFP) ComputeFpRanges(*ns, n);
      node_state.push_back(std::move(ns));
    }

    trace = opt.trace;
    spans.Init(opt.trace, opt.nodes * (T + 1), nops);
  }

  /// Local row-count estimate for a source at `node`: exact for base
  /// tables; for a chain intermediate (unknown until it runs) the chain's
  /// own input estimate stands in — crude, but FP's static allocation is
  /// exactly the discretization weakness the paper measures.
  double EstimateSourceRows(uint32_t node, const mt::Source& s) const {
    if (s.kind == mt::Source::Kind::kTable) {
      return static_cast<double>(query->tables[s.index]->parts[node].rows());
    }
    return EstimateSourceRows(node, query->plan.chains[s.index].input);
  }

  // FP: per chain, two static stages — builds (buildscan_j + build_j),
  // then the probe chain (scan + probe_j). Threads allocated by local
  // (optionally distorted) cost; each chain apportions the full thread
  // range, so under serialized chains this matches single-chain FP and
  // under concurrent chains a thread may serve several chains' stages.
  void ComputeFpRanges(NodeState& ns, uint32_t n) {
    ns.fp_range.assign(nops, {});
    std::vector<uint32_t> ops;  // the stage being apportioned
    std::vector<double> costs;
    auto add = [&](uint32_t op, double cost) {
      ops.push_back(op);
      costs.push_back(op < opt.fp_cost_distortion.size()
                          ? cost * opt.fp_cost_distortion[op]
                          : cost);
    };
    auto apportion = [&] {
      const std::vector<mt::ThreadRange> ranges =
          mt::ApportionThreads(costs, opt.threads_per_node);
      for (size_t i = 0; i < ops.size(); ++i) ns.fp_range[ops[i]] = ranges[i];
      ops.clear();
      costs.clear();
    };
    for (uint32_t c = 0; c < chains.size(); ++c) {
      const ChainInfo& ci = chains[c];
      for (uint32_t j = 0; j < ci.k; ++j) {
        const double cost =
            EstimateSourceRows(n, query->plan.chains[c].joins[j].build) + 1;
        add(ci.op_base + j, cost);
        add(build_op(c, j), cost);
      }
      apportion();
      const double scan_cost =
          EstimateSourceRows(n, query->plan.chains[c].input) + 1;
      add(scan_op(c), scan_cost);
      for (uint32_t j = 0; j < ci.k; ++j) add(probe_op(c, j), scan_cost);
      apportion();
    }
  }

  bool ThreadMayRun(const NodeState& ns, uint32_t t, uint32_t op) const {
    return opt.strategy != LocalStrategy::kFP || ns.fp_range[op].Holds(t);
  }

  bool Consumable(const NodeState& ns, uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    if (rel >= ci.k && rel < 2 * ci.k) return true;  // build
    if (rel > 2 * ci.k) {                            // probe
      return ns.terminated[build_op(op_chain[op], rel - 2 * ci.k - 1)].load(
          std::memory_order_acquire);
    }
    // Trigger ops: the H2 stage gate (serialized chains), then the
    // source-chain gate (an intermediate is scannable only once its
    // producer globally terminated).
    if (ci.stage_gate >= 0 &&
        !ns.terminated[ci.stage_gate].load(std::memory_order_acquire)) {
      return false;
    }
    if (rel == 2 * ci.k) {  // scan: H1 — wait for this chain's hash tables
      if (ci.input_gate >= 0 &&
          !ns.terminated[ci.input_gate].load(std::memory_order_acquire)) {
        return false;
      }
      for (uint32_t j = 0; j < ci.k; ++j) {
        if (!ns.terminated[build_op(op_chain[op], j)].load(
                std::memory_order_acquire)) {
          return false;
        }
      }
      return true;
    }
    // Buildscan j.
    int32_t gate = jn_build_gate[ci.join_base + rel];
    return gate < 0 ||
           ns.terminated[gate].load(std::memory_order_acquire);
  }

  /// The rows a trigger op scans at `node`: a base-table partition or the
  /// node-local share of a chain intermediate (frozen before it becomes
  /// consumable, so reads need no lock).
  const Batch& TriggerSource(uint32_t node, uint32_t op) const {
    const ChainInfo& ci = chains[op_chain[op]];
    uint32_t rel = op - ci.op_base;
    const mt::Source& src =
        rel == 2 * ci.k ? query->plan.chains[op_chain[op]].input
                        : jn_build_src[ci.join_base + rel];
    if (src.kind == mt::Source::Kind::kTable) {
      return query->tables[src.index]->parts[node];
    }
    return node_state[node]->inter[src.index];
  }

  // ------------------------------------------------------------------
  // Worker side.

  void WorkerLoop(uint32_t node, uint32_t t) {
    NodeState& ns = *node_state[node];
    while (!ns.done.load(std::memory_order_acquire)) {
      // Cooperative cancellation, checked once per activation.
      if (ctx->StopRequested()) {
        CancelAll();
        break;
      }
      if (!ns.outbox[t].empty()) FlushOutbox(node, t);
      if (RunOne(node, t)) {
        FlushOutbox(node, t);
        ns.starving.store(false, std::memory_order_relaxed);
        if (opt.detect_faults) {
          progress.fetch_add(1, std::memory_order_relaxed);
        }
      } else {
        ns.idle.fetch_add(1, std::memory_order_relaxed);
        MarkStarving(ns, t);
        // Lend the idle beat to another in-flight query before napping
        // (cross-query steal through the session pool).
        if (ctx->Park()) continue;
        std::unique_lock<std::mutex> lock(ns.wake_mu);
        ns.wake_cv.wait_for(lock, std::chrono::microseconds(500));
      }
    }
  }

  void MarkStarving(NodeState& ns, uint32_t t) {
    if (opt.strategy == LocalStrategy::kFP) {
      // FP: the thread's probe operator has no local work.
      for (uint32_t op : probe_ops) {
        if (ThreadMayRun(ns, t, op) && Consumable(ns, op) &&
            !ns.terminated[op].load()) {
          ns.fp_starving[op].store(true, std::memory_order_relaxed);
        }
      }
    } else {
      ns.starving.store(true, std::memory_order_relaxed);
    }
  }

  bool RunOne(uint32_t node, uint32_t t) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads_per_node;
    // Primary queues.
    for (uint32_t i = 0; i < nops; ++i) {
      uint32_t op = (t + i) % nops;
      if (is_trigger(op) || !Consumable(ns, op)) continue;
      if (!ThreadMayRun(ns, t, op)) continue;
      Activation act;
      if (ns.queues.TryPopFront(op, t, &act)) {
        ExecuteData(node, t, std::move(act));
        return true;
      }
    }
    // Trigger morsels.
    for (uint32_t i = 0; i < nops; ++i) {
      uint32_t op = (t + i) % nops;
      if (!is_trigger(op) || !Consumable(ns, op)) continue;
      if (!ThreadMayRun(ns, t, op)) continue;
      if (ClaimMorsel(node, t, op)) return true;
    }
    // Steal within the node.
    for (uint32_t i = 0; i < nops; ++i) {
      uint32_t op = (t + i) % nops;
      if (is_trigger(op) || !Consumable(ns, op)) continue;
      if (!ThreadMayRun(ns, t, op)) continue;
      for (uint32_t d = 1; d < T; ++d) {
        Activation act;
        if (ns.queues.TryPopBack(op, (t + d) % T, &act)) {
          ExecuteData(node, t, std::move(act));
          return true;
        }
      }
    }
    return false;
  }

  bool ClaimMorsel(uint32_t node, uint32_t t, uint32_t op) {
    NodeState& ns = *node_state[node];
    const Batch& src = TriggerSource(node, op);
    size_t begin = ns.cursor[op].fetch_add(opt.morsel_rows);
    if (begin >= src.rows()) return false;
    size_t end = std::min<size_t>(begin + opt.morsel_rows, src.rows());
    ExecuteMorsel(node, t, op, src, begin, end);
    ++ns.busy[t];
    ns.morsels_left[op].fetch_sub(1);
    return true;
  }

  // Scatter a trigger morsel into per-bucket batches and route them.
  void ExecuteMorsel(uint32_t node, uint32_t t, uint32_t op,
                     const Batch& src, size_t begin, size_t end) {
    const uint32_t c = op_chain[op];
    const ChainInfo& ci = chains[c];
    const uint32_t rel = op - ci.op_base;
    const bool scan = rel == 2 * ci.k;
    const mt::Source& trigger_src = scan ? query->plan.chains[c].input
                                         : jn_build_src[ci.join_base + rel];
    const uint32_t dst_op = consumer_of(op);
    const uint32_t col = scan ? jn_probe_col[ci.join_base]
                              : jn_build_col[ci.join_base + rel];
    // Scan-level predicates and column pruning of base tables apply as
    // the rows enter the pipeline, so a pruned table's repartition wire
    // narrows with it (intermediates were filtered and pruned at their
    // own scans).
    const mt::ScanSpec spec =
        mt::ScanSpec::For(query->plan, trigger_src, src);
    NodeState& ns = *node_state[node];
    const uint64_t tr0 = spans.Now();
    // Scan output = capture point 0, offered where rows enter the chain
    // (each source row is scanned by exactly one node, so once apiece).
    // Build triggers are not plan points.
    mt::ScratchPool::Lease sc(ns.scratch, t);
    const size_t kept = mt::ScatterMorsel(
        spec, begin, end, col, opt.buckets, ns.out.At(t, dst_op),
        mt::ShipRule::Buffered(opt.batch_rows), *sc,
        [&](uint32_t bucket, Batch& rows) {
          Route(node, static_cast<int32_t>(t), dst_op, bucket,
                std::move(rows));
        },
        [&](const int64_t* row, uint32_t w) {
          if (scan) mt::OfferCapture(opt.captures, c, 0, row, w);
        });
    if (spec.preds != nullptr) {
      ns.filtered.fetch_add(end - begin - kept, std::memory_order_relaxed);
    }
    if (spans.on()) spans.Add(slot_of(node, t + 1), op, tr0, end - begin, kept);
  }

  size_t QueueRows() const { return mt::QueueRowBound(opt.queue_capacity); }

  // Queues an activation that arrived at its node, or stages it for the
  // scheduler's next routing pass when the queue is full.
  void Enqueue(NodeState& ns, Activation&& act) {
    if (!ns.queues.TryPush(act, QueueRows())) {
      ns.route_overflow.Push(std::move(act));
    }
  }

  // Routes one data activation to the bucket's home node: local queue via
  // shared memory, remote via the fabric. `worker` is the sending worker,
  // or -1 for the node loop, whose full-queue pushes wait in
  // route_overflow instead of a worker's outbox.
  void Route(uint32_t node, int32_t worker, uint32_t dst_op, uint32_t bucket,
             Batch&& rows) {
    NodeState& ns = *node_state[node];
    uint32_t home = home_of(bucket);
    if (home == node) {
      ns.pending[dst_op].fetch_add(1);
      Activation act{dst_op, bucket, std::move(rows)};
      if (!ns.queues.TryPush(act, QueueRows())) {
        (worker >= 0 ? ns.outbox[worker] : ns.route_overflow)
            .Push(std::move(act));
      } else {
        ns.wake_cv.notify_one();
      }
      return;
    }
    // A chain intermediate's remote share is its repartition traffic.
    if (repart_src[dst_op] >= 0) {
      ns.repart_rows[repart_src[dst_op]].fetch_add(rows.rows(),
                                                   std::memory_order_relaxed);
    }
    Message m;
    m.type = MsgType::kTupleBatch;
    m.op = dst_op;
    m.bucket = bucket;
    m.payload = net::EncodeBatch(rows);
    if (trace != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kFabricSend;
      ev.node = static_cast<int32_t>(node);
      ev.worker = worker;
      ev.op = static_cast<int32_t>(dst_op);
      ev.start_ns = ev.end_ns = trace->NowNs();
      ev.detail = rows.rows();
      trace->Record(slot_of(node, static_cast<uint32_t>(worker + 1)), ev);
    }
    fabric.Send(node, home, std::move(m)).ok();
  }

  // The forced end flush of `op` at `node` (the simulator's
  // FlushProducerResidue), run on the node loop before it reports the op
  // drained: what the workers still buffer for the op's consumer ships
  // past flow control. No worker is inside `op`: its pending count (or
  // morsel count) read zero after the last activation.
  void FlushResidue(uint32_t node, uint32_t op) {
    const uint32_t dst = consumer_of(op);
    if (dst == kAnyOp) return;
    node_state[node]->out.FlushResidue(dst, [&](uint32_t bucket, Batch& rows) {
      Route(node, -1, dst, bucket, std::move(rows));
    });
  }

  // Probe-output routing differs: a *stolen* activation's bucket is not
  // homed here, yet its outputs scatter normally by the next join's
  // bucket. Handled uniformly by Route.

  void ExecuteData(uint32_t node, uint32_t t, Activation&& act) {
    NodeState& ns = *node_state[node];
    ++ns.busy[t];
    const uint64_t tr0 = spans.Now();
    const uint64_t rows_in = act.rows.rows();
    uint64_t rows_out = rows_in;
    const uint32_t c = op_chain[act.op];
    const ChainInfo& ci = chains[c];
    const uint32_t g = join_of(act.op);
    if (is_build(act.op)) {
      mt::InsertBuild(ns.tables[g][act.bucket], *ns.bucket_mu[g][act.bucket],
                      act.rows);
    } else {
      // Probe: the bucket's table is local when homed here, else a stolen
      // fragment.
      const RowTable* table = nullptr;
      if (home_of(act.bucket) == node) {
        table = &ns.tables[g][act.bucket];
      } else {
        std::shared_lock<std::shared_mutex> lock(*ns.stolen_mu[g]);
        auto it = ns.stolen[g].find(act.bucket);
        if (it != ns.stolen[g].end()) table = it->second.get();
      }
      if (table == nullptr) {
        ns.failed.store(true);
        ns.pending[act.op].fetch_sub(1);
        return;
      }
      const uint32_t j = act.op - ci.op_base - 2 * ci.k - 1;
      // Output of probe step j (0-based) = capture point j + 1; the last
      // probe's output is the chain output (point k).
      auto capture = [&](const int64_t* row, uint32_t w) {
        mt::OfferCapture(opt.captures, c, j + 1, row, w);
      };
      mt::ScratchPool::Lease sc(ns.scratch, t);
      if (j + 1 < ci.k) {
        rows_out = mt::ProbeForward(
            act.rows, jn_probe_col[g], *table, jn_probe_col[g + 1],
            opt.buckets, ns.out.At(t, act.op + 1),
            mt::ShipRule::Buffered(opt.batch_rows), *sc,
            [&](uint32_t bucket, Batch& rows) {
              Route(node, static_cast<int32_t>(t), act.op + 1, bucket,
                    std::move(rows));
            },
            capture);
      } else {
        // A non-final chain's terminal probe materializes into this node's
        // share of the distributed intermediate (batched per activation);
        // the final chain's does the same when the result is being
        // materialized. Under aggregation the final rows fold straight
        // into this thread's partial table (phase 1 of the distributed
        // aggregation) — never buffered — and the digest comes from the
        // merged aggregate rows.
        const bool final_chain = c + 1 == chains.size();
        Batch local_out;
        mt::TerminalSink sink;
        if (final_chain && agg != nullptr) {
          sink.agg = &ns.agg_partials[t];
        } else {
          if (final_chain) sink.digest = &ns.digests[t];
          if (!final_chain || materialize_final) {
            local_out = Batch(act.rows.width() + table->width());
            sink.keep = &local_out;
          }
        }
        rows_out = mt::ProbeRows(act.rows, jn_probe_col[g], *table, *sc,
                                 [&](const int64_t* row, uint32_t w) {
                                   capture(row, w);
                                   sink(row, w);
                                 });
        if (!local_out.empty()) {
          std::lock_guard<std::mutex> lock(*ns.inter_mu[c]);
          ns.inter[c].Append(local_out);
        }
        ns.chain_rows[c * opt.threads_per_node + t] += rows_out;
      }
    }
    if (spans.on()) {
      spans.Add(slot_of(node, t + 1), act.op, tr0, rows_in, rows_out);
    }
    ns.pending[act.op].fetch_sub(1);
  }

  // Drain a worker's outbox of pushes that found full local queues.
  void FlushOutbox(uint32_t node, uint32_t t) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads_per_node;
    mt::Outbox& outbox = ns.outbox[t];
    uint32_t stalls = 0;
    while (!outbox.empty() && !ns.done.load(std::memory_order_relaxed)) {
      const bool progressed = outbox.Retry([&](Activation& act) {
        return ns.queues.TryPush(act, QueueRows());
      });
      if (outbox.empty() || progressed) {
        stalls = 0;
        continue;
      }
      // Help: drain stuck destinations, deepest operator first (the
      // terminal probe consumes without producing, so draining deep ops
      // shrinks the backlog instead of growing it). Execute a burst of
      // helps per push pass to avoid quadratic outbox re-scans.
      bool helped = false;
      std::vector<uint32_t> stuck_ops;
      for (const Activation& stuck : outbox.items()) {
        if (Consumable(ns, stuck.op) &&
            std::find(stuck_ops.begin(), stuck_ops.end(), stuck.op) ==
                stuck_ops.end()) {
          stuck_ops.push_back(stuck.op);
        }
      }
      std::sort(stuck_ops.rbegin(), stuck_ops.rend());
      uint32_t burst = 0;
      for (uint32_t op : stuck_ops) {
        for (uint32_t d = 0; d < T && burst < 16; ++d) {
          Activation other;
          while (burst < 16 &&
                 ns.queues.TryPopFront(op, (t + d) % T, &other)) {
            ExecuteData(node, t, std::move(other));
            ++burst;
            helped = true;
          }
        }
        if (burst >= 16) break;
      }
      if (!helped && stalls > 1000) {
        helped = RunOne(node, t);
      }
      if (!helped) {
        ++stalls;
        std::this_thread::yield();
      } else {
        stalls = 0;
      }
    }
  }

  // ------------------------------------------------------------------
  // Scheduler side (one per node; node 0 doubles as coordinator).

  void SchedulerLoop(uint32_t node) {
    NodeState& ns = *node_state[node];
    const bool detect = opt.detect_faults;
    // Node-loop faults only fire where detection can catch them —
    // otherwise an injected stall is a guaranteed hang, not a test.
    const bool inject_loop_faults =
        opt.injector != nullptr && detect && opt.nodes > 1;
    const uint64_t hb_period_ns = uint64_t{opt.heartbeat_us} * 1000;
    const uint64_t timeout_ns =
        uint64_t{opt.liveness_timeout_ms} * 1'000'000;
    uint64_t poll = 0;
    uint64_t now = detect ? MonoNs() : 0;
    std::vector<uint64_t> last_heard(opt.nodes, now);
    uint64_t last_hb_sent = 0;
    uint64_t last_progress = progress.load(std::memory_order_relaxed);
    uint64_t progress_since = now;
    // Handles one incoming message; returns whether it counted as work
    // (heartbeats and suppressed duplicates don't).
    auto consume = [&](Message&& m) {
      if (detect && m.from < last_heard.size()) {
        last_heard[m.from] = now;
      }
      if (m.type == MsgType::kHeartbeat) return false;
      if (IsDuplicate(ns, m)) return false;
      HandleMessage(node, std::move(m));
      if (detect) progress.fetch_add(1, std::memory_order_relaxed);
      return true;
    };
    while (true) {
      if (cancelled.load(std::memory_order_acquire)) return;
      if (ctx->StopRequested()) {
        CancelAll();
        return;
      }
      if (inject_loop_faults) {
        // Crash: the loop silently dies; peers detect the silence.
        if (opt.injector->ShouldCrashNode(static_cast<int>(node), poll)) {
          return;
        }
        if (opt.injector->ShouldStallNode(static_cast<int>(node), poll)) {
          // Stall in small slices so teardown (CancelAll) still releases
          // us; stall_ms == 0 stalls until detection fires.
          const uint64_t t0 = MonoNs();
          const uint64_t limit_ns =
              uint64_t{opt.injector->plan().stall_ms} * 1'000'000;
          while (!cancelled.load(std::memory_order_acquire) &&
                 (limit_ns == 0 || MonoNs() - t0 < limit_ns)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      }
      ++poll;
      if (detect) now = MonoNs();
      bool worked = false;
      // 1. Route queued overflow from earlier messages.
      worked |= ns.route_overflow.Retry([&](Activation& act) {
        return ns.queues.TryPush(act, QueueRows());
      });
      // 2. Drain the mailbox.
      Message m;
      while (fabric.mailbox(node).TryPop(&m)) {
        worked |= consume(std::move(m));
      }
      // 3. End-detection reports.
      worked |= CheckReports(node);
      // 4. Global load balancing.
      if (opt.global_lb) worked |= CheckStarving(node);
      // 5. Liveness: announce ourselves, suspect silent peers, and (node
      // 0) watch the global progress clock.
      if (detect) {
        if (now - last_hb_sent >= hb_period_ns) {
          last_hb_sent = now;
          Message hb;
          hb.type = MsgType::kHeartbeat;
          fabric.Broadcast(node, hb).ok();
        }
        for (uint32_t p = 0; p < opt.nodes; ++p) {
          if (p == node) continue;
          if (now - last_heard[p] > timeout_ns) {
            if (opt.recorder != nullptr) {
              opt.recorder->Instant(obs::EventKind::kHeartbeatMiss,
                                    opt.recorder_query, now - last_heard[p],
                                    static_cast<int32_t>(p));
            }
            FailUnavailable("node " + std::to_string(p) +
                            " unresponsive (no message for " +
                            std::to_string(opt.liveness_timeout_ms) +
                            " ms; suspected stall or crash)");
            return;
          }
        }
        if (node == 0) {
          const uint64_t cur = progress.load(std::memory_order_relaxed);
          if (cur != last_progress) {
            last_progress = cur;
            progress_since = now;
          } else if (now - progress_since > timeout_ns) {
            if (opt.recorder != nullptr) {
              opt.recorder->Instant(obs::EventKind::kHeartbeatMiss,
                                    opt.recorder_query, now - progress_since,
                                    static_cast<int32_t>(node));
            }
            FailUnavailable(
                "cluster made no progress for " +
                std::to_string(opt.liveness_timeout_ms) +
                " ms (suspected message loss)");
            return;
          }
        }
      }
      if (worked) ns.wake_cv.notify_all();
      if (ns.done.load(std::memory_order_acquire) &&
          ns.route_overflow.empty()) {
        ns.wake_cv.notify_all();
        return;
      }
      if (!worked) {
        // Idle nap, cut short by message arrival (the mailbox receive
        // timeout — bounded wait, never an unbounded Pop).
        if (fabric.mailbox(node).PopFor(&m,
                                        std::chrono::microseconds(50))) {
          if (detect) now = MonoNs();
          if (consume(std::move(m))) ns.wake_cv.notify_all();
        }
      }
    }
  }

  bool CheckReports(uint32_t node) {
    NodeState& ns = *node_state[node];
    bool acted = false;
    for (uint32_t op = 0; op < nops; ++op) {
      if (!ns.reported[op]) {
        bool ready;
        if (is_trigger(op)) {
          // kMorselsUnknown (source chain still running) never reads 0.
          ready = ns.morsels_left[op].load() == 0;
        } else {
          ready = ns.terminated[producer_of(op)].load() &&
                  ns.pending[op].load() == 0 &&
                  ns.steal_inflight.load() == 0;
        }
        if (ready) {
          ns.reported[op] = true;
          FlushResidue(node, op);
          SendToCoordinator(node, MsgType::kEndOfQueuesAtNode, op, 0);
          acted = true;
        }
      }
      if (ns.drain_requested[op] && !ns.drain_acked[op]) {
        bool drained = is_trigger(op)
                           ? ns.morsels_left[op].load() == 0
                           : (ns.pending[op].load() == 0 &&
                              ns.steal_inflight.load() == 0);
        if (drained) {
          // Again: stolen activations may have run since the report.
          ns.drain_acked[op] = true;
          FlushResidue(node, op);
          SendToCoordinator(node, MsgType::kDrainConfirm, op, 1);
          acted = true;
        }
      }
    }
    return acted;
  }

  bool CheckStarving(uint32_t node) {
    NodeState& ns = *node_state[node];
    if (ns.steal_in_progress) return false;
    uint32_t want_op = kAnyOp;
    if (opt.strategy == LocalStrategy::kFP) {
      for (uint32_t op : probe_ops) {
        if (ns.fp_starving[op].load(std::memory_order_relaxed) &&
            !ns.terminated[op].load()) {
          want_op = op;
          ns.fp_starving[op].store(false, std::memory_order_relaxed);
          break;
        }
      }
      if (want_op == kAnyOp) return false;
    } else {
      if (!ns.starving.load(std::memory_order_relaxed)) return false;
      // Only bother when some probe operator is still alive somewhere.
      bool alive = false;
      for (uint32_t op : probe_ops) {
        if (!ns.terminated[op].load()) {
          alive = true;
          break;
        }
      }
      if (!alive) return false;
      ns.starving.store(false, std::memory_order_relaxed);
    }
    if (opt.nodes < 2) return false;
    ns.steal_in_progress = true;
    ns.steal_op = want_op;
    ns.offers_pending = opt.nodes - 1;
    ns.best_provider = UINT32_MAX;
    ns.best_count = 0;
    ns.best_op = kAnyOp;
    ns.steal_reqs.fetch_add(1, std::memory_order_relaxed);
    Message m;
    m.type = MsgType::kStarving;
    m.op = want_op;
    m.arg = 0;  // available memory: unconstrained in this build
    fabric.Broadcast(node, m).ok();
    return true;
  }

  void SendToCoordinator(uint32_t node, MsgType type, uint32_t op,
                         uint64_t arg) {
    if (node == 0) {
      Message m;
      m.type = type;
      m.op = op;
      m.arg = arg;
      m.from = 0;
      CoordinatorHandle(std::move(m));
    } else {
      Message m;
      m.type = type;
      m.op = op;
      m.arg = arg;
      fabric.Send(node, 0, std::move(m)).ok();
    }
  }

  void CoordinatorBroadcast(MsgType type, uint32_t op, uint64_t arg) {
    Message m;
    m.type = type;
    m.op = op;
    m.arg = arg;
    fabric.Broadcast(0, m).ok();
    // Self-delivery.
    m.from = 0;
    HandleNodeMessage(0, std::move(m));
  }

  void CoordinatorHandle(Message&& m) {
    uint32_t op = m.op;
    if (coord_terminated[op]) return;
    if (m.type == MsgType::kEndOfQueuesAtNode) {
      if (++coord_reports[op] == opt.nodes && !coord_drain[op]) {
        coord_drain[op] = true;
        CoordinatorBroadcast(MsgType::kDrainConfirm, op, 0);
      }
    } else if (m.type == MsgType::kDrainConfirm && m.arg == 1) {
      if (++coord_acks[op] == opt.nodes) {
        coord_terminated[op] = true;
        CoordinatorBroadcast(MsgType::kOpTerminated, op, 0);
      }
    }
  }

  void HandleMessage(uint32_t node, Message&& m) {
    if (node == 0 && (m.type == MsgType::kEndOfQueuesAtNode ||
                      (m.type == MsgType::kDrainConfirm && m.arg == 1))) {
      CoordinatorHandle(std::move(m));
      return;
    }
    HandleNodeMessage(node, std::move(m));
  }

  void HandleNodeMessage(uint32_t node, Message&& m) {
    NodeState& ns = *node_state[node];
    switch (m.type) {
      case MsgType::kTupleBatch: {
        auto rows = net::DecodeBatch(m.payload);
        if (!rows.ok()) {
          ns.failed.store(true);
          return;
        }
        ns.pending[m.op].fetch_add(1);
        Enqueue(ns, {m.op, m.bucket, std::move(rows).value()});
        break;
      }
      case MsgType::kDrainConfirm:
        // arg == 0: coordinator requests a drain ack for op.
        if (m.arg == 0) ns.drain_requested[m.op] = true;
        break;
      case MsgType::kOpTerminated: {
        // A chain terminal freezes its distributed intermediate: resolve
        // the morsel counts of every trigger scanning it at this node
        // (before the terminated flag releases those triggers).
        for (const auto& [trigger, src_chain] : deferred_triggers) {
          if (chains[src_chain].terminal != m.op) continue;
          size_t rows;
          {
            std::lock_guard<std::mutex> lock(*ns.inter_mu[src_chain]);
            rows = ns.inter[src_chain].rows();
          }
          ns.morsels_left[trigger].store(static_cast<int64_t>(
              (rows + opt.morsel_rows - 1) / opt.morsel_rows));
        }
        ns.terminated[m.op].store(true, std::memory_order_release);
        if (m.op == chains.back().terminal) {
          ns.done.store(true, std::memory_order_release);
        }
        break;
      }
      case MsgType::kStarving:
        HandleStarving(node, m);
        break;
      case MsgType::kOffer:
      case MsgType::kNoWork:
        HandleOfferReply(node, m);
        break;
      case MsgType::kAcquire:
        HandleAcquire(node, m);
        break;
      case MsgType::kWork:
        HandleWork(node, m);
        break;
      default:
        break;
    }
  }

  // A remote node is starving: offer our best candidate queue. Candidates
  // are unblocked probe operators with enough queued work (Section 3.2
  // conditions ii, iv, v); benefit is the queued activation count.
  void HandleStarving(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    uint32_t best_op = kAnyOp;
    uint64_t best_count = 0;
    for (uint32_t op : probe_ops) {
      if (m.op != kAnyOp && m.op != op) continue;
      if (!Consumable(ns, op) || ns.terminated[op].load()) continue;
      const uint64_t count = ns.queues.Depth(op);
      if (count >= kMinStealDepth && count > best_count) {
        best_count = count;
        best_op = op;
      }
    }
    Message reply;
    if (best_op != kAnyOp) {
      reply.type = MsgType::kOffer;
      reply.op = best_op;
      reply.arg = best_count;
    } else {
      reply.type = MsgType::kNoWork;
      reply.arg = 0;  // offer stage
    }
    fabric.Send(node, m.from, std::move(reply)).ok();
  }

  void HandleOfferReply(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    if (!ns.steal_in_progress) return;
    if (m.type == MsgType::kNoWork && m.arg == 1) {
      // Acquire-stage failure: provider raced empty.
      ns.steal_inflight.fetch_sub(1);
      ns.steal_in_progress = false;
      return;
    }
    if (ns.offers_pending == 0) return;
    --ns.offers_pending;
    // Never acquire work of an op this node already confirmed drained: the
    // coordinator may terminate it on that confirmation, and activations
    // landing here afterwards would never run. Checked when the offer is
    // taken and again before the acquire, since the confirmation can go
    // out while the offers are still being collected.
    if (m.type == MsgType::kOffer && m.arg > ns.best_count &&
        !ns.drain_acked[m.op]) {
      ns.best_count = m.arg;
      ns.best_provider = m.from;
      ns.best_op = m.op;
    }
    if (ns.offers_pending == 0) {
      if (ns.best_provider == UINT32_MAX || ns.drain_acked[ns.best_op]) {
        ns.steal_in_progress = false;
        return;
      }
      // Acquire from the most loaded provider; list cached buckets so
      // already-copied fragments are not re-shipped (Section 4).
      ns.steal_inflight.fetch_add(1);
      Message req;
      req.type = MsgType::kAcquire;
      req.op = ns.best_op;
      if (opt.cache_stolen_fragments) {
        uint32_t g = join_of(ns.best_op);
        for (uint32_t b : ns.cached_buckets[g]) {
          net::PutU32(&req.payload, b);
        }
      }
      fabric.Send(node, ns.best_provider, std::move(req)).ok();
    }
  }

  void HandleAcquire(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    const uint32_t T = opt.threads_per_node;
    uint32_t op = m.op;
    uint32_t g = join_of(op);
    std::unordered_set<uint32_t> requester_cached;
    {
      net::Reader r(m.payload);
      uint32_t b;
      while (r.GetU32(&b)) requester_cached.insert(b);
    }
    net::RowWorkBundle bundle;
    bundle.op = op;
    std::unordered_set<uint32_t> shipped;
    uint64_t popped = 0;
    for (uint32_t t = 0; t < T && popped < opt.steal_batch; ++t) {
      Activation act;
      while (popped < opt.steal_batch &&
             ns.queues.TryPopBack(op, t, &act)) {
        if (!requester_cached.count(act.bucket) &&
            !shipped.count(act.bucket)) {
          // Locate the bucket's build rows: the local table when the
          // bucket is homed here, or our own stolen-fragment cache when
          // this activation was itself acquired earlier.
          const RowTable* table = nullptr;
          if (home_of(act.bucket) == node) {
            table = &ns.tables[g][act.bucket];
          } else {
            std::shared_lock<std::shared_mutex> lock(*ns.stolen_mu[g]);
            auto it = ns.stolen[g].find(act.bucket);
            if (it != ns.stolen[g].end()) table = it->second.get();
          }
          if (table == nullptr) {
            // Cannot supply the hash table: keep the activation local.
            Enqueue(ns, std::move(act));
            continue;
          }
          shipped.insert(act.bucket);
          net::RowFragment frag;
          frag.bucket = act.bucket;
          frag.build_rows = Batch(table->width());
          frag.build_rows.data() = table->pool();
          ns.shipped_rows.fetch_add(table->rows());
          bundle.fragments.push_back(std::move(frag));
        } else if (requester_cached.count(act.bucket)) {
          ns.cache_hits.fetch_add(1, std::memory_order_relaxed);
          if (trace != nullptr) {
            obs::TraceEvent ev;
            ev.kind = obs::EventKind::kCacheHit;
            ev.node = static_cast<int32_t>(node);
            ev.op = static_cast<int32_t>(op);
            ev.start_ns = ev.end_ns = trace->NowNs();
            ev.detail = act.bucket;
            trace->Record(slot_of(node, 0), ev);
          }
        }
        ++popped;
        net::RowActivation ra;
        ra.bucket = act.bucket;
        ra.rows = std::move(act.rows);
        bundle.activations.push_back(std::move(ra));
      }
    }
    if (bundle.activations.empty()) {
      Message reply;
      reply.type = MsgType::kNoWork;
      reply.arg = 1;  // acquire stage
      fabric.Send(node, m.from, std::move(reply)).ok();
      return;
    }
    ns.pending[op].fetch_sub(static_cast<int64_t>(bundle.activations.size()));
    Message reply;
    reply.type = MsgType::kWork;
    reply.op = op;
    reply.payload = net::EncodeRowWork(bundle);
    fabric.Send(node, m.from, std::move(reply)).ok();
  }

  // ------------------------------------------------------------------
  // Distributed aggregation (runs after the chain DAG terminated).
  //
  // Phase 1 already happened inside the chain run: every worker folded
  // the final-chain rows it produced into its private partial table
  // (NodeState::agg_partials), so the join result was never buffered.
  // Phase A here repartitions those partials by group-key hash —
  // partition p is homed at node p % nodes — shipping remote partitions
  // as kTupleBatch messages (partial rows are flat int64 rows, so the
  // join dataflow's encoding carries them verbatim). Phase B (after
  // every node finished sending): each node merges its own partitions
  // plus everything in its mailbox and finalizes the disjoint group set
  // it owns. The SpawnWorkers calls run on the same ExecContext as the
  // main run, so the pool and the stop token cover aggregation
  // unchanged.
  Status RunDistributedAgg(std::vector<Batch>* agg_out,
                           std::vector<ResultDigest>* agg_digests,
                           uint64_t* partial_entries) {
    const uint32_t N = opt.nodes;
    // Partition count: bounded like the thread backend's merge (every
    // partition re-scans the partial tables), never below the node count.
    const uint32_t P = std::max(
        N, std::min(opt.buckets, std::max(16u, 4 * opt.threads_per_node)));
    const uint32_t agg_op = nops;  // sentinel op id for traffic accounting
    std::vector<std::vector<Batch>> kept(N);  // locally homed partitions
    std::atomic<bool> agg_cancelled{false};

    for (const auto& ns : node_state) {
      for (const mt::AggTable& t : ns->agg_partials) {
        *partial_entries += t.groups();
      }
    }

    ctx->SpawnWorkers(N, [&](uint32_t n) {
      NodeState& ns = *node_state[n];
      const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
      uint64_t repart = 0;
      for (uint32_t p = 0; p < P; ++p) {
        if (ctx->StopRequested()) {
          agg_cancelled.store(true);
          return;
        }
        Batch part;
        for (const mt::AggTable& t : ns.agg_partials) {
          t.EmitPartials(p, P, &part);
        }
        if (part.rows() == 0) continue;
        uint32_t home = p % N;
        if (home == n) {
          kept[n].push_back(std::move(part));
        } else {
          ns.agg_repart_rows.fetch_add(part.rows(),
                                       std::memory_order_relaxed);
          repart += part.rows();
          Message m;
          m.type = MsgType::kTupleBatch;
          m.op = agg_op;
          m.bucket = p;
          m.payload = net::EncodeBatch(part);
          fabric.Send(n, home, std::move(m)).ok();
        }
      }
      // One span per node for the repartition phase (the agg sentinel op;
      // these bodies run on arbitrary pool threads, hence RecordShared).
      if (trace != nullptr) {
        obs::TraceEvent ev;
        ev.node = static_cast<int32_t>(n);
        ev.op = static_cast<int32_t>(agg_op);
        ev.start_ns = tr0;
        ev.end_ns = trace->NowNs();
        ev.activations = 1;
        ev.rows_out = repart;
        ev.detail = ev.end_ns - ev.start_ns;
        trace->RecordShared(ev);
      }
    });
    if (agg_cancelled.load() || ctx->StopRequested()) {
      return Status::Cancelled("query cancelled during aggregation");
    }

    // Every node finished sending (the SpawnWorkers barrier), so each
    // mailbox now holds all partials its node will ever receive.
    ctx->SpawnWorkers(N, [&](uint32_t n) {
      NodeState& ns = *node_state[n];
      const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
      mt::AggTable merged(agg);
      for (const Batch& part : kept[n]) {
        for (size_t i = 0; i < part.rows(); ++i) {
          merged.MergePartial(part.row(i));
        }
      }
      Message m;
      while (fabric.mailbox(n).TryPop(&m)) {
        if (ctx->StopRequested()) {
          agg_cancelled.store(true);
          return;
        }
        // Stale end-of-run protocol messages may linger; only the agg
        // sentinel batches matter here.
        if (m.type != MsgType::kTupleBatch || m.op != agg_op) continue;
        if (IsDuplicate(ns, m)) continue;
        auto rows = net::DecodeBatch(m.payload);
        if (!rows.ok()) {
          ns.failed.store(true);
          return;
        }
        for (size_t i = 0; i < rows.value().rows(); ++i) {
          merged.MergePartial(rows.value().row(i));
        }
      }
      merged.EmitFinal(&(*agg_out)[n], &(*agg_digests)[n]);
      if (trace != nullptr) {
        obs::TraceEvent ev;
        ev.node = static_cast<int32_t>(n);
        ev.op = static_cast<int32_t>(agg_op);
        ev.start_ns = tr0;
        ev.end_ns = trace->NowNs();
        ev.activations = 1;
        ev.rows_out = (*agg_out)[n].rows();
        ev.detail = ev.end_ns - ev.start_ns;
        trace->RecordShared(ev);
      }
    });
    if (agg_cancelled.load() || ctx->StopRequested()) {
      return Status::Cancelled("query cancelled during aggregation");
    }
    return Status::OK();
  }

  void HandleWork(uint32_t node, const Message& m) {
    NodeState& ns = *node_state[node];
    auto bundle = net::DecodeRowWork(m.payload);
    if (!bundle.ok()) {
      ns.failed.store(true);
      ns.steal_inflight.fetch_sub(1);
      ns.steal_in_progress = false;
      return;
    }
    uint32_t op = bundle.value().op;
    uint32_t g = join_of(op);
    {
      std::unique_lock<std::shared_mutex> lock(*ns.stolen_mu[g]);
      for (auto& frag : bundle.value().fragments) {
        if (ns.stolen[g].count(frag.bucket)) continue;
        auto table = std::make_unique<RowTable>(frag.build_rows.width(),
                                                jn_build_col[g]);
        table->InsertBatch(frag.build_rows);
        ns.stolen[g][frag.bucket] = std::move(table);
        ns.cached_buckets[g].insert(frag.bucket);
      }
    }
    ns.steals.fetch_add(1, std::memory_order_relaxed);
    ns.stolen_acts.fetch_add(bundle.value().activations.size(),
                             std::memory_order_relaxed);
    if (trace != nullptr) {
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSteal;
      ev.node = static_cast<int32_t>(node);
      ev.op = static_cast<int32_t>(op);
      ev.start_ns = ev.end_ns = trace->NowNs();
      ev.detail = bundle.value().activations.size();
      trace->Record(slot_of(node, 0), ev);
    }
    if (opt.recorder != nullptr) {
      opt.recorder->Instant(obs::EventKind::kSteal, opt.recorder_query,
                            bundle.value().activations.size(),
                            static_cast<int32_t>(node));
    }
    for (auto& ra : bundle.value().activations) {
      ns.pending[op].fetch_add(1);
      Enqueue(ns, {op, ra.bucket, std::move(ra.rows)});
    }
    ns.steal_inflight.fetch_sub(1);
    ns.steal_in_progress = false;
  }
};

ClusterExecutor::ClusterExecutor(const ClusterOptions& options)
    : options_(options) {
  HIERDB_CHECK(options_.nodes > 0, "need at least one node");
  HIERDB_CHECK(options_.threads_per_node > 0, "need at least one thread");
  HIERDB_CHECK(options_.buckets >= options_.nodes,
               "need at least one bucket per node");
  HIERDB_CHECK(options_.strategy != LocalStrategy::kSP,
               "SP is shared-memory only (Section 5.2)");
}

ClusterExecutor::~ClusterExecutor() = default;

uint32_t ClusterExecutor::CompiledOpCount(const PlanQuery& query) {
  uint32_t nops = 0;
  for (const mt::Chain& c : query.plan.chains) {
    nops += 3 * static_cast<uint32_t>(c.joins.size()) + 1;
  }
  return nops;
}

Result<ResultDigest> ClusterExecutor::Execute(const PlanQuery& query,
                                              ClusterStats* stats,
                                              mt::Batch* materialized) {
  HIERDB_RETURN_NOT_OK(query.Validate(options_.nodes));
  impl_ = std::make_unique<Impl>(options_);
  Impl& im = *impl_;
  im.materialize_final = materialized != nullptr;
  ThreadSpawnContext fallback_ctx;
  im.ctx = options_.ctx != nullptr ? options_.ctx : &fallback_ctx;
  im.Compile(query);

  // Rent one body per node scheduler plus one per node worker; slot k
  // maps to node k / (T+1), role k % (T+1) (0 = scheduler).
  // Gang mode: the node loops are mutually dependent (no body exits until
  // the query terminates globally), so every body needs its own thread.
  const uint32_t per_node = options_.threads_per_node + 1;
  im.ctx->SpawnWorkers(
      options_.nodes * per_node,
      [&im, per_node](uint32_t k) {
        const uint32_t node = k / per_node;
        const uint32_t role = k % per_node;
        if (role == 0) {
          im.SchedulerLoop(node);
        } else {
          im.WorkerLoop(node, role - 1);
        }
      },
      /*gang=*/true);

  // Every gang body has exited, so the span cells are complete; emitting
  // here covers the cancelled and failed exits below too.
  im.EmitTraceCells();

  // Detection outranks the cancellation it triggers: a run torn down by
  // the liveness or progress watchdog reports the diagnosis, not the
  // teardown mechanism.
  if (im.unavailable.load()) {
    std::string msg;
    {
      std::lock_guard<std::mutex> lock(im.fail_mu);
      msg = im.unavailable_msg;
    }
    impl_.reset();
    return Status::Unavailable(std::move(msg));
  }
  if (im.cancelled.load()) {
    impl_.reset();
    return Status::Cancelled("query cancelled during execution");
  }
  bool failed = false;
  for (auto& ns : im.node_state) failed |= ns->failed.load();
  if (failed) {
    impl_.reset();
    return Status::Internal("cluster execution failed");
  }

  // Distributed aggregation over the final chain's kept rows. Runs before
  // the stats snapshot so its repartition traffic is accounted.
  std::vector<Batch> agg_out(options_.nodes);
  std::vector<ResultDigest> agg_digests(options_.nodes);
  uint64_t agg_partial_entries = 0;
  if (im.agg != nullptr) {
    Status st = im.RunDistributedAgg(&agg_out, &agg_digests,
                                     &agg_partial_entries);
    if (!st.ok()) {
      impl_.reset();
      return st;
    }
    for (auto& ns : im.node_state) failed |= ns->failed.load();
    if (failed) {
      impl_.reset();
      return Status::Internal("cluster aggregation failed");
    }
  }

  // A run that terminated despite losing messages cannot vouch for its
  // digest (a dropped kTupleBatch silently loses rows): refuse to report
  // success. This keeps the chaos invariant success => digest-identical.
  {
    net::FabricStats fs = im.fabric.stats();
    if (fs.dropped > 0) {
      uint64_t dropped = fs.dropped;
      impl_.reset();
      return Status::Unavailable(std::to_string(dropped) +
                                 " message(s) lost in transit");
    }
  }

  ResultDigest digest;
  for (auto& ns : im.node_state) {
    for (const auto& d : ns->digests) digest.Merge(d);
  }
  for (const auto& d : agg_digests) digest.Merge(d);
  if (stats != nullptr) {
    *stats = ClusterStats{};
    stats->fabric = im.fabric.stats();
    auto type_bytes = [&](MsgType t) {
      return stats->fabric.bytes_by_type[static_cast<size_t>(t)];
    };
    stats->lb_bytes = type_bytes(MsgType::kStarving) +
                      type_bytes(MsgType::kOffer) +
                      type_bytes(MsgType::kNoWork) +
                      type_bytes(MsgType::kAcquire) +
                      type_bytes(MsgType::kWork);
    stats->dataflow_bytes = type_bytes(MsgType::kTupleBatch);
    stats->protocol_bytes = type_bytes(MsgType::kEndOfQueuesAtNode) +
                            type_bytes(MsgType::kDrainConfirm) +
                            type_bytes(MsgType::kOpTerminated);
    for (auto& ns : im.node_state) {
      stats->steal_requests += ns->steal_reqs.load();
      stats->steals += ns->steals.load();
      stats->stolen_activations += ns->stolen_acts.load();
      stats->shipped_fragment_rows += ns->shipped_rows.load();
      stats->fragment_cache_hits += ns->cache_hits.load();
      stats->rows_filtered += ns->filtered.load();
      stats->agg_repartition_rows += ns->agg_repart_rows.load();
      stats->idle_waits_per_node.push_back(ns->idle.load());
      uint64_t busy = 0;
      for (uint64_t b : ns->busy) busy += b;
      stats->busy_per_node.push_back(busy);
    }
    if (options_.injector != nullptr) {
      stats->faults = options_.injector->counters();
    }
    stats->dup_messages_dropped = im.dup_dropped.load();
    if (im.agg != nullptr) {
      stats->agg_partials = agg_partial_entries;
      for (const auto& d : agg_digests) stats->agg_groups += d.count;
      // The agg sentinel op's kTupleBatch bytes are the repartition wire
      // traffic (also counted in dataflow_bytes).
      if (im.nops < stats->fabric.tuple_bytes_by_op.size()) {
        stats->agg_repartition_bytes =
            stats->fabric.tuple_bytes_by_op[im.nops];
      }
    }
    // Distributed intermediates: size per chain, repartition traffic
    // attributed through the per-op kTupleBatch accounting.
    const uint32_t C = static_cast<uint32_t>(im.chains.size());
    stats->per_chain.assign(C, {});
    stats->rows_per_chain.assign(C, 0);
    const uint32_t T = options_.threads_per_node;
    for (uint32_t c = 0; c < C; ++c) {
      for (auto& ns : im.node_state) {
        for (uint32_t t = 0; t < T; ++t) {
          stats->rows_per_chain[c] += ns->chain_rows[c * T + t];
        }
      }
    }
    for (uint32_t c = 0; c < C; ++c) {
      auto& pc = stats->per_chain[c];
      for (auto& ns : im.node_state) {
        // The final chain's inter[] slot holds the materialized result
        // (when requested), not a distributed intermediate: keep the
        // documented all-zero final entry.
        if (c + 1 < C) {
          pc.intermediate_rows += ns->inter[c].rows();
          pc.intermediate_bytes += ns->inter[c].bytes();
        }
        pc.repartition_rows += ns->repart_rows[c].load();
      }
      for (uint32_t dst : im.repart_dst_ops[c]) {
        if (dst < stats->fabric.tuple_bytes_by_op.size()) {
          pc.repartition_bytes += stats->fabric.tuple_bytes_by_op[dst];
        }
      }
      stats->intermediate_rows += pc.intermediate_rows;
      stats->intermediate_bytes += pc.intermediate_bytes;
    }
  }
  if (materialized != nullptr) {
    if (im.agg != nullptr) {
      // Aggregated plans gather each node's finalized group rows.
      Batch out(im.agg->OutputWidth());
      for (const Batch& part : agg_out) out.Append(part);
      *materialized = std::move(out);
    } else {
      // Gather each node's share of the final chain's rows (the
      // tuple-batch collection): plain concatenation — the digest is
      // order-independent.
      const uint32_t last = static_cast<uint32_t>(im.chains.size()) - 1;
      Batch out(im.chains[last].out_width);
      size_t total = 0;
      for (auto& ns : im.node_state) total += ns->inter[last].rows();
      out.Reserve(total);
      for (auto& ns : im.node_state) out.Append(ns->inter[last]);
      *materialized = std::move(out);
    }
  }
  impl_.reset();
  return digest;
}

}  // namespace hierdb::cluster
