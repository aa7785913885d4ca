#include "mt/pipeline_executor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "mt/node_plane.h"

namespace hierdb::mt {

double PipelineStats::Imbalance() const {
  if (busy_per_thread.empty()) return 1.0;
  uint64_t max = 0, sum = 0;
  for (uint64_t b : busy_per_thread) {
    max = std::max(max, b);
    sum += b;
  }
  if (sum == 0) return 1.0;
  double mean = static_cast<double>(sum) / busy_per_thread.size();
  return static_cast<double>(max) / mean;
}

// ---------------------------------------------------------------------
// Compiled-plan structures.

// Compiled operator kinds. Build ops scatter their source into per-bucket
// insert batches; scan ops scatter the chain input into the first probe's
// buckets (or straight to the chain output when the chain has no joins);
// probe ops run one join step and forward or finalize.
enum class COp : uint8_t { kScan, kBuild, kProbe };

namespace {

// The one definition of which builds are cacheable and what they key on,
// shared by the DP/FP compile loop and the SP build phase (the two paths
// must stay field-for-field identical or they stop sharing entries).
bool BuildCacheKeyFor(const PipelineOptions& options, const PipelinePlan& plan,
                      uint32_t buckets, const Source& build,
                      uint32_t build_col, BuildKey* key) {
  if (options.build_cache == nullptr ||
      build.kind != Source::Kind::kTable ||
      build.index >= options.table_cache_ids.size() ||
      options.table_cache_ids[build.index] == 0) {
    return false;
  }
  key->table = options.table_cache_ids[build.index];
  key->column = build_col;
  key->buckets = buckets;
  key->seed_skew = options.cache_seed_skew;
  // Scan-level predicates change the built rows: a filtered build must
  // never alias an unfiltered (or differently filtered) one.
  const std::vector<Predicate>* preds = plan.FiltersFor(build.index);
  key->filters = preds != nullptr ? PredicatesHash(*preds) : 0;
  // Same for column projections: a pruned build stores narrowed rows.
  key->projection = 0;
  if (const std::vector<uint32_t>* proj = plan.ProjectionFor(build.index)) {
    uint64_t h = 0xCBF29CE484222325ULL;
    for (uint32_t c : *proj) {
      h ^= c;
      h *= 0x100000001B3ULL;
    }
    key->projection = h == 0 ? 1 : h;
  }
  return true;
}

// A build-cache lookup of build op `op`, as a trace and recorder instant.
void RecordCacheLookup(const PipelineOptions& o, uint32_t op, bool hit) {
  const obs::EventKind kind =
      hit ? obs::EventKind::kCacheHit : obs::EventKind::kCacheMiss;
  if (o.trace != nullptr) {
    obs::TraceEvent ev;
    ev.kind = kind;
    ev.op = static_cast<int32_t>(op);
    ev.start_ns = ev.end_ns = o.trace->NowNs();
    o.trace->RecordShared(ev);
  }
  if (o.recorder != nullptr) o.recorder->Instant(kind, o.recorder_query, op);
}

// The rows of `parts` (each of `width`) in one batch; empties the parts.
Batch Concat(std::vector<Batch>& parts, uint32_t width) {
  Batch all(width);
  size_t total = 0;
  for (const Batch& part : parts) total += part.rows();
  all.Reserve(total);
  for (Batch& part : parts) {
    all.Append(part);
    part.Clear();
  }
  return all;
}

// Per-chain sums of per-slot row counts laid out [chain * slots + slot].
std::vector<uint64_t> SumPerChain(const std::vector<uint64_t>& cells,
                                  size_t chains) {
  std::vector<uint64_t> out(chains, 0);
  const size_t slots = cells.size() / chains;
  for (size_t i = 0; i < cells.size(); ++i) out[i / slots] += cells[i];
  return out;
}

// Phase 2 of the two-phase aggregation (DP, FP and SP alike): workers
// rented through the run's context claim group-hash partitions and merge
// every slot's partial of each into one final table (disjoint partitions,
// so the merge needs no locks; pooled stealing and the stop token apply
// unchanged).
struct AggMerge {
  std::vector<ResultDigest> digests;  // per partition
  std::vector<Batch> rows;            // per partition (materialize)
  uint64_t groups = 0;
  uint64_t partial_entries = 0;

  // Returns false when the run is cancelled mid-merge.
  bool Run(ExecContext* ctx, uint32_t threads, uint32_t buckets,
           const AggSpec* agg, const std::vector<AggTable>& partials,
           bool want_rows) {
    for (const AggTable& t : partials) partial_entries += t.groups();
    // Merge partitions: enough for parallelism (a few per worker), but
    // clamped below the join fragmentation degree — every partition
    // re-scans every slot's partial table, so the scan work grows with P.
    const uint32_t P = std::min(buckets, std::max(16u, 4 * threads));
    std::vector<AggTable> finals(P);
    for (AggTable& t : finals) t.Init(agg);
    digests.assign(P, {});
    rows.assign(P, Batch());
    std::atomic<uint32_t> cursor{0};
    std::atomic<bool> cancelled{false};
    ctx->SpawnWorkers(threads, [&](uint32_t) {
      for (;;) {
        if (ctx->StopRequested()) {
          cancelled.store(true);
          return;
        }
        const uint32_t p = cursor.fetch_add(1, std::memory_order_relaxed);
        if (p >= P) return;
        for (const AggTable& part : partials) {
          part.ForEachPartial(
              p, P, [&](const int64_t* row) { finals[p].MergePartial(row); });
        }
        finals[p].EmitFinal(want_rows ? &rows[p] : nullptr, &digests[p]);
      }
    });
    if (cancelled.load()) return false;
    for (const AggTable& t : finals) groups += t.groups();
    return true;
  }

  // Folds the partition digests into `digest`; with `out`, gathers the
  // group rows into it.
  void Finish(const AggSpec& agg, ResultDigest* digest, Batch* out) {
    for (const ResultDigest& d : digests) digest->Merge(d);
    if (out != nullptr) *out = Concat(rows, agg.OutputWidth());
  }
};

}  // namespace

struct PipelineExecutor::OpState {
  COp kind = COp::kScan;
  uint32_t chain = 0;
  uint32_t step = 0;          // build/probe: join index in the chain
  uint32_t join = 0;          // global join id (table array index)
  std::vector<uint32_t> blockers;
  uint32_t producer = UINT32_MAX;  // op feeding data activations
  uint32_t consumer = UINT32_MAX;  // op consuming our data activations

  // Trigger work (scan/build): morsels over a source batch. The source
  // pointer is resolved when the op unblocks (chain outputs do not exist
  // earlier).
  Source src;
  const Batch* src_batch = nullptr;
  std::atomic<size_t> morsel_cursor{0};
  std::atomic<int64_t> morsels_left{0};
  size_t total_rows = 0;

  std::atomic<int64_t> data_pending{0};  // queued + in-flight batches
  std::atomic<bool> consumable{false};
  std::atomic<bool> scatter_done{false};  // all morsels executed
  std::atomic<bool> ended{false};
  bool prebuilt = false;  // build satisfied from the shared cache

  double cost_estimate = 0.0;  // FP allocation weight
  uint32_t chain_pos = 0;      // scan = 0, probe j = j + 1 (builds = 0)

  OpState() = default;
  OpState(const OpState&) = delete;
};

struct PipelineExecutor::Shared {
  const PipelinePlan* plan = nullptr;
  std::vector<const Table*> tables;

  // Worker provider + cancellation token for this run; never null.
  ExecContext* ctx = nullptr;
  std::atomic<bool> cancelled{false};

  std::vector<std::unique_ptr<OpState>> ops;
  std::vector<uint32_t> chain_terminal;  // terminal op per chain
  std::vector<bool> materialized;        // chain output kept?

  ActivationQueues queues;

  // Per-join bucket hash tables and their insert locks.
  // tables_by_join[join][bucket]; join ids are assigned per (chain, step).
  std::vector<std::vector<RowTable>> join_tables;
  std::vector<std::vector<std::unique_ptr<std::mutex>>> bucket_mu;

  // Shared build-side reuse: prebuilt[join] set (cache hit, or a local
  // build published at build end) makes probes read the shared immutable
  // tables instead of join_tables. offer_key[join] records the cache key
  // a missed cacheable build publishes under.
  std::vector<std::shared_ptr<const BucketTables>> prebuilt;
  std::vector<char> offer_pending;
  std::vector<BuildKey> offer_key;
  uint64_t cache_hits = 0;    // resolved at compile time
  uint64_t cache_misses = 0;

  const RowTable& JoinTable(uint32_t join, uint32_t bucket) const {
    const auto& sp = prebuilt[join];
    return sp != nullptr ? (*sp)[bucket] : join_tables[join][bucket];
  }

  // Guest slots for cross-query stealers: per-worker state (busy, outbox,
  // scratch, digests, partials) is sized threads + guests; a foreign
  // thread borrows a free slot for the duration of one activation.
  std::mutex guest_mu;
  std::vector<uint32_t> guest_free;

  // Chain outputs: per-chain per-thread partials merged at chain end.
  std::vector<std::vector<Batch>> chain_partials;    // [chain][thread]
  std::vector<Batch> chain_outputs;                  // merged
  std::vector<ResultDigest> thread_digests;          // final-chain digest

  // Two-phase aggregation (plans with an AggSpec): every slot folds the
  // final-chain rows it produces into a private partial table; AggMerge
  // merges them after the run.
  const AggSpec* agg = nullptr;
  std::vector<AggTable> agg_partials;     // per slot
  std::atomic<uint64_t> stat_filtered{0};

  std::vector<uint32_t> out_width;  // per chain: its output row width

  // Where slot `self`'s rows of `chain`'s output end (width `width`).
  TerminalSink Terminal(uint32_t self, uint32_t chain, uint32_t width) {
    TerminalSink sink;
    const bool final_chain = chain + 1 == plan->chains.size();
    if (final_chain && agg != nullptr) {
      sink.agg = &agg_partials[self];
      return sink;
    }
    if (final_chain) sink.digest = &thread_digests[self];
    if (materialized[chain]) {
      Batch& part = chain_partials[chain][self];
      if (part.width() == 0) part = Batch(width);
      sink.keep = &part;
    }
    return sink;
  }

  std::mutex state_mu;                 // guards end/unblock transitions
  std::condition_variable work_cv;
  std::atomic<uint32_t> ops_remaining{0};
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  // FP: per-op thread range [lo, hi) packed as (lo << 32) | hi. A thread
  // `t` may run op `i` iff lo <= t < hi. Ranges are disjoint when threads
  // outnumber active operators; otherwise operators share threads
  // round-robin (the paper's configurations always have more processors
  // than operators per stage, so sharing is the degenerate case).
  std::vector<std::atomic<uint64_t>> fp_range;

  // Tracing (options.trace; null = off): span cells flush into the sink
  // at run end (EmitTraceCells), so cancelled runs still drain.
  // chain_rows is unconditional: the per-chain actual output cardinality
  // (rows produced by each chain's terminal op).
  uint32_t slots = 0;
  SpanCells spans;
  std::vector<uint64_t> chain_rows;  // [chain * slots + slot]

  // Stats.
  std::vector<uint64_t> busy;  // per thread, padded access is fine here
  std::atomic<uint64_t> stat_morsels{0};
  std::atomic<uint64_t> stat_data{0};
  std::atomic<uint64_t> stat_emitted{0};
  std::atomic<uint64_t> stat_escapes{0};
  std::atomic<uint64_t> stat_nonprimary{0};
  std::atomic<uint64_t> stat_idle{0};
  std::atomic<uint64_t> stat_fp_safety{0};

  // Per-slot outbox (see FlushOutbox), output buffers (scan and probe
  // rows bound for their consumer, across activations; flushed by
  // OnOpEnded) and scratch.
  std::vector<Outbox> outbox;
  SlotBuffers out;
  ScratchPool scratch;
  size_t queue_rows = 0;  // QueueRowBound(queue_capacity)
};


PipelineExecutor::PipelineExecutor(const PipelineOptions& options)
    : options_(options) {
  HIERDB_CHECK(options_.threads > 0, "need at least one thread");
  HIERDB_CHECK(options_.buckets > 0, "need at least one bucket");
  HIERDB_CHECK(options_.morsel_rows > 0, "morsel_rows must be positive");
  HIERDB_CHECK(options_.batch_rows > 0, "batch_rows must be positive");
  HIERDB_CHECK(options_.queue_capacity > 0, "queue_capacity must be positive");
}

PipelineExecutor::~PipelineExecutor() = default;

uint32_t PipelineExecutor::CompiledOpCount(const PipelinePlan& plan) {
  uint32_t n = 0;
  for (const Chain& c : plan.chains) {
    n += 1 + 2 * static_cast<uint32_t>(c.joins.size());
  }
  return n;
}

// ---------------------------------------------------------------------
// Compilation: plan -> OpStates with blockers, producers, widths.

Result<ResultDigest> PipelineExecutor::Execute(
    const PipelinePlan& plan, const std::vector<const Table*>& tables,
    PipelineStats* stats, Batch* materialized) {
  HIERDB_RETURN_NOT_OK(plan.Validate(tables));
  if (options_.strategy == LocalStrategy::kSP) {
    return ExecuteSP(plan, tables, stats, materialized);
  }

  // Workers come from the injected context (session pool) or, white-box,
  // from a one-off spawn-per-query context.
  ThreadSpawnContext fallback_ctx;
  ExecContext* ctx = options_.ctx != nullptr ? options_.ctx : &fallback_ctx;

  shared_ = std::make_unique<Shared>();
  Shared& sh = *shared_;
  sh.plan = &plan;
  sh.tables = tables;
  sh.ctx = ctx;
  const uint32_t T = options_.threads;
  const uint32_t B = options_.buckets;

  // Assign op ids chain by chain: B(c,0..k-1), S(c), P(c,0..k-1).
  sh.chain_terminal.resize(plan.chains.size());
  sh.materialized = plan.MaterializedChains();
  sh.agg = plan.agg.has_value() ? &*plan.agg : nullptr;
  // Result materialization rides the existing chain-output machinery: treat
  // the final chain as materialized and hand its merged output back. Under
  // aggregation the final chain's rows feed the partial tables instead and
  // the merge phase produces the materialized (aggregate) rows.
  if (materialized != nullptr && sh.agg == nullptr) {
    sh.materialized.back() = true;
  }
  uint32_t njoins_total = 0;
  std::vector<uint32_t> scan_of_chain(plan.chains.size());
  std::vector<std::vector<uint32_t>> build_of(plan.chains.size());
  std::vector<std::vector<uint32_t>> probe_of(plan.chains.size());

  auto source_rows = [&](const Source& s) -> double {
    // Estimated rows for FP cost weights; chain outputs are estimated as
    // their input cardinality (the FK-join heuristic). Exact enough for
    // allocation; distortion is injected on top for the error experiments.
    if (s.kind == Source::Kind::kTable) {
      return static_cast<double>(tables[s.index]->rows());
    }
    const Chain& c = plan.chains[s.index];
    if (c.input.kind == Source::Kind::kTable) {
      return static_cast<double>(tables[c.input.index]->rows());
    }
    return 0.0;
  };

  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const Chain& chain = plan.chains[c];
    const uint32_t k = static_cast<uint32_t>(chain.joins.size());
    sh.out_width.push_back(plan.OutputWidth(tables, c));

    for (uint32_t j = 0; j < k; ++j) {
      auto op = std::make_unique<OpState>();
      op->kind = COp::kBuild;
      op->chain = c;
      op->step = j;
      op->join = njoins_total + j;
      op->src = chain.joins[j].build;
      op->cost_estimate = source_rows(op->src) + 1.0;
      if (op->src.kind == Source::Kind::kChain) {
        op->blockers.push_back(sh.chain_terminal[op->src.index]);
      }
      build_of[c].push_back(static_cast<uint32_t>(sh.ops.size()));
      sh.ops.push_back(std::move(op));
    }
    {
      auto op = std::make_unique<OpState>();
      op->kind = COp::kScan;
      op->chain = c;
      op->src = chain.input;
      op->cost_estimate = source_rows(chain.input) + 1.0;
      if (chain.input.kind == Source::Kind::kChain) {
        op->blockers.push_back(sh.chain_terminal[chain.input.index]);
      }
      if (options_.apply_h1) {
        for (uint32_t j = 0; j < k; ++j) {
          op->blockers.push_back(build_of[c][j]);
        }
      }
      if (options_.apply_h2 && c > 0) {
        op->blockers.push_back(sh.chain_terminal[c - 1]);
      }
      scan_of_chain[c] = static_cast<uint32_t>(sh.ops.size());
      sh.ops.push_back(std::move(op));
    }
    for (uint32_t j = 0; j < k; ++j) {
      auto op = std::make_unique<OpState>();
      op->kind = COp::kProbe;
      op->chain = c;
      op->step = j;
      op->join = njoins_total + j;
      op->cost_estimate = source_rows(chain.input) + 1.0;
      op->chain_pos = j + 1;  // scan is position 0
      op->blockers.push_back(build_of[c][j]);  // hash constraint
      op->producer = (j == 0) ? scan_of_chain[c] : probe_of[c][j - 1];
      probe_of[c].push_back(static_cast<uint32_t>(sh.ops.size()));
      sh.ops.push_back(std::move(op));
    }
    // Wire consumers.
    if (k > 0) {
      sh.ops[scan_of_chain[c]]->consumer = probe_of[c][0];
      for (uint32_t j = 0; j + 1 < k; ++j) {
        sh.ops[probe_of[c][j]]->consumer = probe_of[c][j + 1];
      }
      sh.chain_terminal[c] = probe_of[c][k - 1];
    } else {
      sh.chain_terminal[c] = scan_of_chain[c];
    }
    njoins_total += k;
  }

  // Apply FP cost distortions.
  if (!options_.fp_cost_distortion.empty()) {
    if (options_.fp_cost_distortion.size() != sh.ops.size()) {
      return Status::InvalidArgument(
          "fp_cost_distortion size != compiled op count");
    }
    for (size_t i = 0; i < sh.ops.size(); ++i) {
      sh.ops[i]->cost_estimate *= options_.fp_cost_distortion[i];
    }
  }

  // Shared build-side reuse: resolve every cacheable base-table build
  // against the session cache. A hit makes the build op born-finished
  // (prebuilt); the first misser becomes the key's builder and records the
  // key the finished tables publish under; a concurrent misser waits for
  // that publish instead of duplicating the build (or proceeds solo when
  // its query is cancelled while waiting).
  sh.prebuilt.assign(njoins_total, nullptr);
  sh.offer_pending.assign(njoins_total, 0);
  sh.offer_key.assign(njoins_total, BuildKey{});
  if (options_.build_cache != nullptr) {
    auto cancelled = [ctx] { return ctx->StopRequested(); };
    // Once this query owns an in-flight builder entry it must not wait on
    // other queries' builds: its own publishes only happen during
    // execution, so waiting would be hold-and-wait (two queries acquiring
    // overlapping keys in opposite orders would stall each other out).
    bool holds_builder = false;
    for (uint32_t c = 0; c < plan.chains.size(); ++c) {
      for (uint32_t j = 0; j < plan.chains[c].joins.size(); ++j) {
        OpState& op = *sh.ops[build_of[c][j]];
        BuildKey key;
        if (!BuildCacheKeyFor(options_, plan, B,
                              plan.chains[c].joins[j].build,
                              plan.chains[c].joins[j].build_col, &key)) {
          continue;
        }
        auto got = options_.build_cache->Acquire(
            key, cancelled, /*allow_wait=*/!holds_builder);
        if (got.tables != nullptr) {
          sh.prebuilt[op.join] = std::move(got.tables);
          op.prebuilt = true;
          ++sh.cache_hits;
        } else {
          if (got.builder) {
            holds_builder = true;
            sh.offer_pending[op.join] = 1;
            sh.offer_key[op.join] = key;
          }
          ++sh.cache_misses;
        }
        RecordCacheLookup(options_, build_of[c][j], op.prebuilt);
      }
    }
  }

  // Shared structures. Per-worker state is sized threads + guest slots so
  // cross-query stealers get private scratch/digest/outbox slots.
  const uint32_t nops = static_cast<uint32_t>(sh.ops.size());
  const uint32_t slots = T + ctx->GuestSlots();
  for (uint32_t g = T; g < slots; ++g) sh.guest_free.push_back(g);
  sh.queues.Init(nops, T);
  sh.join_tables.resize(njoins_total);
  sh.bucket_mu.resize(njoins_total);
  uint32_t join_id = 0;
  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    for (uint32_t j = 0; j < plan.chains[c].joins.size(); ++j, ++join_id) {
      if (sh.prebuilt[join_id] != nullptr) continue;  // shared tables
      // A projected table source emits only its kept columns.
      const Source& b = plan.chains[c].joins[j].build;
      const uint32_t bw =
          b.kind == Source::Kind::kTable
              ? plan.EffectiveTableWidth(b.index, tables[b.index]->width())
              : sh.out_width[b.index];
      sh.join_tables[join_id].resize(B);
      sh.bucket_mu[join_id].resize(B);
      for (uint32_t bb = 0; bb < B; ++bb) {
        sh.join_tables[join_id][bb].Init(bw,
                                         plan.chains[c].joins[j].build_col);
        sh.bucket_mu[join_id][bb] = std::make_unique<std::mutex>();
      }
    }
  }
  sh.chain_partials.assign(plan.chains.size(), {});
  for (auto& partials : sh.chain_partials) {
    partials.resize(slots);
  }
  sh.chain_outputs.resize(plan.chains.size());
  sh.thread_digests.assign(slots, {});
  if (sh.agg != nullptr) {
    sh.agg_partials.resize(slots);
    for (AggTable& t : sh.agg_partials) t.Init(sh.agg);
  }
  sh.busy.assign(slots, 0);
  sh.outbox.resize(slots);
  sh.out.Init(slots, nops);
  sh.scratch.Init(slots, B);
  sh.queue_rows = QueueRowBound(options_.queue_capacity);
  sh.slots = slots;
  sh.chain_rows.assign(plan.chains.size() * slots, 0);
  sh.spans.Init(options_.trace, slots, nops);
  sh.fp_range = std::vector<std::atomic<uint64_t>>(nops);
  for (auto& a : sh.fp_range) a.store(0);
  sh.ops_remaining.store(nops);

  // Unblock initially runnable ops.
  {
    std::lock_guard<std::mutex> lock(sh.state_mu);
    for (uint32_t i = 0; i < nops; ++i) {
      OpState& op = *sh.ops[i];
      if (op.blockers.empty()) {
        op.consumable.store(true);
        if (op.kind != COp::kProbe) ResolveSourceLocked(op);
      }
    }
    if (options_.strategy == LocalStrategy::kFP) RecomputeFpAssignment();
  }
  // Ops that are born finished (empty or prebuilt sources) must end before
  // workers start so the dependency cascade is primed.
  for (uint32_t i = 0; i < nops; ++i) {
    OpState& op = *sh.ops[i];
    if (op.consumable.load() && !op.ended.load() && op.scatter_done.load() &&
        op.kind != COp::kProbe && op.data_pending.load() == 0) {
      OnOpEnded(i);
    }
  }

  // Run: rent workers from the context (or spawn, white-box). The steal
  // hook lets idle threads of other executions run our activations; FP
  // pins threads to operators, so only DP publishes one.
  if (options_.strategy == LocalStrategy::kDP) {
    ctx->SetStealHook([this] { return RunOneForeign(); });
  }
  ctx->SpawnWorkers(T, [this](uint32_t t) { WorkerLoop(t); });
  ctx->ClearStealHook();

  if (sh.cancelled.load()) {
    AbandonPendingOffers();
    EmitTraceCells();
    shared_.reset();
    return Status::Cancelled("query cancelled during execution");
  }
  if (sh.failed.load()) {
    AbandonPendingOffers();
    EmitTraceCells();
    return Status::Internal("pipeline execution failed");
  }

  AggMerge merge;
  if (sh.agg != nullptr &&
      !merge.Run(ctx, T, B, sh.agg, sh.agg_partials, materialized != nullptr)) {
    EmitTraceCells();
    shared_.reset();
    return Status::Cancelled("query cancelled during aggregation");
  }

  ResultDigest digest;
  for (const auto& d : sh.thread_digests) digest.Merge(d);
  if (sh.agg != nullptr) {
    merge.Finish(*sh.agg, &digest, materialized);
  } else if (materialized != nullptr) {
    *materialized = std::move(sh.chain_outputs.back());
  }

  if (stats != nullptr) {
    stats->morsels = sh.stat_morsels.load();
    stats->data_activations = sh.stat_data.load();
    stats->batches_emitted = sh.stat_emitted.load();
    stats->escapes = sh.stat_escapes.load();
    stats->nonprimary = sh.stat_nonprimary.load();
    stats->idle_waits = sh.stat_idle.load();
    stats->fp_safety_escapes = sh.stat_fp_safety.load();
    stats->build_cache_hits = sh.cache_hits;
    stats->build_cache_misses = sh.cache_misses;
    stats->rows_filtered = sh.stat_filtered.load();
    stats->agg_groups = merge.groups;
    stats->agg_partials = merge.partial_entries;
    // Guest slots (cross-query helpers) are excluded: busy_per_thread
    // drives the per-worker imbalance measure of this query's rental.
    stats->busy_per_thread.assign(sh.busy.begin(), sh.busy.begin() + T);
    stats->rows_per_chain = SumPerChain(sh.chain_rows, plan.chains.size());
  }
  EmitTraceCells();
  shared_.reset();
  return digest;
}

void PipelineExecutor::LabelSlot(uint32_t slot, obs::TraceEvent* ev) const {
  const uint32_t T = options_.threads;
  if (slot < T) {
    ev->worker = static_cast<int32_t>(slot);
  } else {
    ev->guest = static_cast<int32_t>(slot - T);
  }
}

void PipelineExecutor::EmitTraceCells() {
  shared_->spans.Emit(
      [this](uint32_t slot, obs::TraceEvent* ev) { LabelSlot(slot, ev); });
}

void PipelineExecutor::AbandonPendingOffers() {
  Shared& sh = *shared_;
  if (options_.build_cache == nullptr) return;
  for (size_t j = 0; j < sh.offer_pending.size(); ++j) {
    if (sh.offer_pending[j]) {
      options_.build_cache->Abandon(sh.offer_key[j]);
    }
  }
}

size_t PipelineExecutor::ResolveSourceLocked(OpState& op) {
  Shared& sh = *shared_;
  if (op.prebuilt) {
    // Build satisfied from the shared cache: nothing to scatter or
    // insert; the op is born finished and probes read the cached tables.
    op.total_rows = 0;
    op.morsels_left.store(0);
    op.scatter_done.store(true);
    return 0;
  }
  op.src_batch = op.src.kind == Source::Kind::kTable
                     ? &sh.tables[op.src.index]->batch
                     : &sh.chain_outputs[op.src.index];
  op.total_rows = op.src_batch->rows();
  size_t morsels =
      (op.total_rows + options_.morsel_rows - 1) / options_.morsel_rows;
  op.morsels_left.store(static_cast<int64_t>(morsels));
  if (morsels == 0) op.scatter_done.store(true);
  return morsels;
}

// Cross-query steal hook: a foreign thread (idle pool worker or a parked
// worker of another execution) borrows a guest slot and runs at most one
// activation of this query — the paper's consumption hierarchy extended
// past the query boundary.
bool PipelineExecutor::RunOneForeign() {
  Shared* shp = shared_.get();
  if (shp == nullptr) return false;
  Shared& sh = *shp;
  if (sh.done.load(std::memory_order_acquire)) return false;
  uint32_t slot;
  {
    std::lock_guard<std::mutex> lock(sh.guest_mu);
    if (sh.guest_free.empty()) return false;
    slot = sh.guest_free.back();
    sh.guest_free.pop_back();
  }
  bool ran = RunOne(slot);
  if (ran) FlushOutbox(slot);
  if (ran && options_.trace != nullptr) {
    // Cross-query help is the session-level steal event, on a guest lane.
    obs::TraceEvent ev;
    ev.kind = obs::EventKind::kSteal;
    LabelSlot(slot, &ev);
    ev.start_ns = ev.end_ns = options_.trace->NowNs();
    ev.detail = 1;
    options_.trace->Record(slot, ev);
  }
  if (ran && options_.recorder != nullptr) {
    options_.recorder->Instant(obs::EventKind::kSteal, options_.recorder_query,
                               1, 0, -1,
                               static_cast<int32_t>(slot - options_.threads));
  }
  {
    std::lock_guard<std::mutex> lock(sh.guest_mu);
    sh.guest_free.push_back(slot);
  }
  return ran;
}

// ---------------------------------------------------------------------
// Scheduling transitions.

void PipelineExecutor::OnOpEnded(uint32_t op_id) {
  Shared& sh = *shared_;
  std::unique_lock<std::mutex> lock(sh.state_mu);
  OpState& op = *sh.ops[op_id];
  if (op.ended.load()) return;
  // The forced end flush: what every slot (guest slots too) still buffers
  // for our consumer ships now, past flow control, before anyone can see
  // us ended. No slot is inside this op any more: its data_pending (or
  // morsel count) reached zero after its last activation.
  if (op.consumer != UINT32_MAX) {
    OpState& consumer = *sh.ops[op.consumer];
    sh.out.FlushResidue(op.consumer, [&](uint32_t bucket, Batch& rows) {
      consumer.data_pending.fetch_add(1);
      sh.stat_emitted.fetch_add(1, std::memory_order_relaxed);
      sh.queues.Push({op.consumer, bucket, std::move(rows)});
    });
  }
  op.ended.store(true);
  sh.ops_remaining.fetch_sub(1);

  // A finished cacheable build publishes its bucket tables: moved into a
  // shared entry (probes of this run read it via JoinTable) and inserted
  // into the session cache for overlapping/later queries. Safe under
  // state_mu — probes of this join only become consumable in the cascade
  // below, after the move.
  if (op.kind == COp::kBuild && sh.offer_pending[op.join]) {
    sh.offer_pending[op.join] = 0;
    auto published =
        std::make_shared<BucketTables>(std::move(sh.join_tables[op.join]));
    sh.join_tables[op.join] = BucketTables{};
    sh.prebuilt[op.join] = published;
    options_.build_cache->Publish(sh.offer_key[op.join], std::move(published));
  }

  // Merge chain partials when a terminal op ends.
  if (sh.chain_terminal[op.chain] == op_id) {
    if (sh.materialized[op.chain]) {
      sh.chain_outputs[op.chain] =
          Concat(sh.chain_partials[op.chain], sh.out_width[op.chain]);
    }
  }

  // Cascade: unblock dependents, resolve their sources, end empty ops.
  std::vector<uint32_t> newly_ended;
  for (uint32_t i = 0; i < sh.ops.size(); ++i) {
    OpState& other = *sh.ops[i];
    if (other.ended.load() || other.consumable.load()) continue;
    bool ready = true;
    for (uint32_t b : other.blockers) {
      if (!sh.ops[b]->ended.load()) {
        ready = false;
        break;
      }
    }
    if (!ready) continue;
    if (other.kind != COp::kProbe) {
      // Resolve the source BEFORE publishing consumable: workers read
      // src_batch/total_rows right after observing consumable == true
      // (the seq_cst store below is the release edge they synchronize
      // with), so these plain fields must be complete first.
      size_t morsels = ResolveSourceLocked(other);
      other.consumable.store(true);
      if (morsels == 0 && other.data_pending.load() == 0) {
        newly_ended.push_back(i);
      }
    } else {
      other.consumable.store(true);
      // A probe unblocked after its producer already ended with nothing
      // pending is itself finished.
      if (sh.ops[other.producer]->ended.load() &&
          other.data_pending.load() == 0) {
        newly_ended.push_back(i);
      }
    }
  }
  // A consumer probe whose producer just ended may already be drained.
  if (op.consumer != UINT32_MAX) {
    OpState& consumer = *sh.ops[op.consumer];
    if (!consumer.ended.load() && consumer.consumable.load() &&
        consumer.data_pending.load() == 0) {
      newly_ended.push_back(op.consumer);
    }
  }

  if (options_.strategy == LocalStrategy::kFP) RecomputeFpAssignment();

  if (sh.ops_remaining.load() == 0) {
    sh.done.store(true);
  }
  lock.unlock();
  sh.work_cv.notify_all();

  for (uint32_t e : newly_ended) OnOpEnded(e);
}

// FP: apportion threads across consumable, un-ended operators in
// proportion to cost estimates (ApportionThreads). Called under state_mu.
void PipelineExecutor::RecomputeFpAssignment() {
  Shared& sh = *shared_;
  std::vector<uint32_t> active;
  std::vector<double> costs;
  for (uint32_t i = 0; i < sh.ops.size(); ++i) {
    OpState& op = *sh.ops[i];
    if (op.consumable.load() && !op.ended.load()) {
      active.push_back(i);
      costs.push_back(op.cost_estimate);
    }
  }
  for (auto& a : sh.fp_range) a.store(0);  // empty range
  const std::vector<ThreadRange> ranges =
      ApportionThreads(costs, options_.threads);
  for (size_t k = 0; k < active.size(); ++k) {
    sh.fp_range[active[k]].store(ranges[k].Pack());
  }
}

bool PipelineExecutor::ThreadMayRun(uint32_t self, uint32_t op_id) const {
  if (options_.strategy != LocalStrategy::kFP) return true;
  return ThreadRange::Unpack(
             shared_->fp_range[op_id].load(std::memory_order_relaxed))
      .Holds(self);
}

// ---------------------------------------------------------------------
// Worker loop and activation selection.

void PipelineExecutor::WorkerLoop(uint32_t self) {
  Shared& sh = *shared_;
  ExecContext* ctx = sh.ctx;
  while (!sh.done.load(std::memory_order_acquire)) {
    // Cooperative cancellation, checked once per activation: the first
    // observer halts the whole run (Execute returns Status::Cancelled).
    if (ctx->StopRequested()) {
      sh.cancelled.store(true);
      {
        std::lock_guard<std::mutex> lock(sh.state_mu);
        sh.done.store(true);
      }
      sh.work_cv.notify_all();
      break;
    }
    if (!sh.outbox[self].empty()) FlushOutbox(self);
    if (RunOne(self)) {
      FlushOutbox(self);
    } else {
      sh.stat_idle.fetch_add(1, std::memory_order_relaxed);
      // Nothing runnable here: lend this beat to another in-flight query
      // (cross-query steal) before napping.
      if (ctx->Park()) continue;
      std::unique_lock<std::mutex> lock(sh.state_mu);
      sh.work_cv.wait_for(lock, std::chrono::microseconds(200));
    }
  }
}

// Selects and executes one activation. Returns false if no runnable work
// was found. Selection order implements the paper's priority scheme:
// primary queues first, then trigger work, then other threads' queues.
bool PipelineExecutor::RunOne(uint32_t self) {
  Shared& sh = *shared_;
  const uint32_t T = options_.threads;
  const uint32_t nops = static_cast<uint32_t>(sh.ops.size());
  // Queues only exist for the T rented workers; a guest slot (self >= T,
  // cross-query stealer) adopts a column as its primary.
  const uint32_t primary = self % T;

  // Pass 1: primary queues (this thread's column), then morsel claims.
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = (self + k) % nops;  // stagger start positions
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load()) continue;
    if (!ThreadMayRun(self, op_id)) continue;
    Activation act;
    if (sh.queues.TryPopFront(op_id, primary, &act)) {
      ExecuteData(self, std::move(act));
      return true;
    }
  }
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = (self + k) % nops;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load()) continue;
    if (!ThreadMayRun(self, op_id)) continue;
    if (op.kind != COp::kProbe && ClaimMorsel(self, op_id)) {
      return true;
    }
  }
  // Pass 2: steal from other threads' queues (back pop).
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = (self + k) % nops;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load()) continue;
    if (!ThreadMayRun(self, op_id)) continue;
    for (uint32_t d = 1; d < T; ++d) {
      uint32_t t = (primary + d) % T;
      Activation act;
      if (sh.queues.TryPopBack(op_id, t, &act)) {
        sh.stat_nonprimary.fetch_add(1, std::memory_order_relaxed);
        ExecuteData(self, std::move(act));
        return true;
      }
    }
  }
  return false;
}

bool PipelineExecutor::ClaimMorsel(uint32_t self, uint32_t op_id) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[op_id];
  size_t begin = op.morsel_cursor.fetch_add(options_.morsel_rows,
                                            std::memory_order_relaxed);
  if (begin >= op.total_rows) return false;
  size_t end = std::min<size_t>(begin + options_.morsel_rows, op.total_rows);
  ExecuteMorsel(self, op_id, begin, end);
  sh.stat_morsels.fetch_add(1, std::memory_order_relaxed);
  ++sh.busy[self];
  if (op.morsels_left.fetch_sub(1) == 1) {
    op.scatter_done.store(true);
    if (op.data_pending.load() == 0) OnOpEnded(op_id);
  }
  return true;
}

// ---------------------------------------------------------------------
// Operator bodies.

void PipelineExecutor::ExecuteMorsel(uint32_t self, uint32_t op_id,
                                     size_t begin, size_t end) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[op_id];
  const PipelinePlan& plan = *sh.plan;
  const Chain& chain = plan.chains[op.chain];
  const uint64_t tr0 = sh.spans.Now();
  const bool capturing = !options_.captures.empty();
  // Scan-level predicates filter a base table's rows where they enter the
  // pipeline, and a projected table emits only its kept columns.
  const ScanSpec scan = ScanSpec::For(plan, op.src, *op.src_batch);
  ScratchPool::Lease sc(sh.scratch, self);
  size_t kept = 0;
  if (chain.joins.empty()) {
    // A join-less chain's scan is its terminal op: the passing rows are
    // the chain's output.
    const Batch& src = *scan.src;
    const uint32_t w = scan.out_width();
    kept = end - begin;
    const uint32_t* selp = nullptr;
    if (scan.preds != nullptr) {
      kept = FilterBatch(src, begin, kept, *scan.preds, &sc->sel);
      selp = sc->sel.data();
    }
    const TerminalSink sink = sh.Terminal(self, op.chain, w);
    sc->row.resize(w);
    if (sink.agg == nullptr || capturing) {
      for (size_t i = 0; i < kept; ++i) {
        const int64_t* row = src.row(begin + (selp != nullptr ? selp[i] : i));
        if (scan.proj != nullptr) {
          for (uint32_t c = 0; c < w; ++c) sc->row[c] = row[(*scan.proj)[c]];
          row = sc->row.data();
        }
        OfferCapture(options_.captures, op.chain, 0, row, w);
        if (sink.agg == nullptr) sink(row, w);
      }
    }
    if (sink.agg != nullptr) {
      // Phase 1 of the two-phase aggregation, batched: one GroupHash
      // column plus column-at-a-time key gathers; the projection (if
      // any) maps the spec's pruned coordinates back to source ones.
      sink.agg->AccumulateBatch(
          src, begin, selp, kept,
          scan.proj != nullptr ? scan.proj->data() : nullptr, &sc->agg);
    }
    sh.chain_rows[op.chain * sh.slots + self] += kept;
  } else {
    // A build scatters into its own buckets, a whole morsel per insert;
    // a scan feeds the first probe through this slot's buffered batches,
    // and its output is capture point 0.
    const bool build = op.kind == COp::kBuild;
    const uint32_t dst = build ? op_id : op.consumer;
    auto emit = [&](uint32_t bucket, Batch& rows) {
      Emit(self, dst, bucket, std::move(rows));
    };
    BucketBuffer& out = build ? sc->scatter : sh.out.At(self, dst);
    kept = ScatterMorsel(
        scan, begin, end,
        build ? chain.joins[op.step].build_col : chain.joins[0].probe_col,
        options_.buckets, out,
        build ? ShipRule{} : ShipRule::Buffered(options_.batch_rows), *sc,
        emit, [&](const int64_t* row, uint32_t w) {
          if (!build) OfferCapture(options_.captures, op.chain, 0, row, w);
        });
    if (build) out.FlushAll(emit);
  }
  if (scan.preds != nullptr) {
    sh.stat_filtered.fetch_add(end - begin - kept, std::memory_order_relaxed);
  }
  if (sh.spans.on()) sh.spans.Add(self, op_id, tr0, end - begin, kept);
}

void PipelineExecutor::ExecuteData(uint32_t self, Activation&& act) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[act.op];
  const Chain& chain = sh.plan->chains[op.chain];
  sh.stat_data.fetch_add(1, std::memory_order_relaxed);
  ++sh.busy[self];
  const uint64_t tr0 = sh.spans.Now();
  const uint64_t rows_in = act.rows.rows();
  uint64_t rows_out = rows_in;
  if (op.kind == COp::kBuild) {
    InsertBuild(sh.join_tables[op.join][act.bucket],
                *sh.bucket_mu[op.join][act.bucket], act.rows);
  } else {
    // Probe step. JoinTable resolves shared (cached) vs locally built.
    // The output of step s (0-based) is capture point s + 1.
    const uint32_t probe_col = chain.joins[op.step].probe_col;
    const RowTable& table = sh.JoinTable(op.join, act.bucket);
    auto capture = [&](const int64_t* row, uint32_t w) {
      OfferCapture(options_.captures, op.chain, op.step + 1, row, w);
    };
    ScratchPool::Lease sc(sh.scratch, self);
    if (op.step + 1 == chain.joins.size()) {
      // The last probe is its chain's terminal op: its output rows are the
      // chain's actual cardinality (pre-aggregation on agg plans).
      const TerminalSink sink =
          sh.Terminal(self, op.chain, act.rows.width() + table.width());
      rows_out = ProbeRows(act.rows, probe_col, table, *sc,
                           [&](const int64_t* row, uint32_t w) {
                             capture(row, w);
                             sink(row, w);
                           });
      sh.chain_rows[op.chain * sh.slots + self] += rows_out;
    } else {
      rows_out = ProbeForward(
          act.rows, probe_col, table, chain.joins[op.step + 1].probe_col,
          options_.buckets, sh.out.At(self, op.consumer),
          ShipRule::Buffered(options_.batch_rows), *sc,
          [&](uint32_t bucket, Batch& rows) {
            Emit(self, op.consumer, bucket, std::move(rows));
          },
          capture);
    }
  }
  if (sh.spans.on()) sh.spans.Add(self, act.op, tr0, rows_in, rows_out);
  FinishActivation(act.op);
}

void PipelineExecutor::FinishActivation(uint32_t op_id) {
  Shared& sh = *shared_;
  OpState& op = *sh.ops[op_id];
  if (op.data_pending.fetch_sub(1) == 1) {
    bool producer_finished =
        op.kind == COp::kBuild
            ? op.scatter_done.load()
            : sh.ops[op.producer]->ended.load();
    if (producer_finished && op.consumable.load()) OnOpEnded(op_id);
  }
}

// Emits one data activation toward `dst_op`. Operator bodies never block:
// if the destination queue is full, the activation is staged in the
// producing thread's outbox and FlushOutbox drains it at the top level —
// the iterative equivalent of the paper's procedure-call suspension
// (Section 3.1: a thread in a waiting situation suspends its current
// execution and processes another activation; here the suspended frame is
// the staged push rather than a nested stack frame, so the thread's stack
// stays bounded regardless of how long the pipeline is).
void PipelineExecutor::Emit(uint32_t self, uint32_t dst_op, uint32_t bucket,
                            Batch&& rows) {
  Shared& sh = *shared_;
  sh.ops[dst_op]->data_pending.fetch_add(1);
  sh.stat_emitted.fetch_add(1, std::memory_order_relaxed);
  Activation act{dst_op, bucket, std::move(rows)};
  if (!sh.queues.TryPush(act, sh.queue_rows)) {
    sh.stat_escapes.fetch_add(1, std::memory_order_relaxed);
    sh.outbox[self].Push(std::move(act));
  }
}

// Drains this thread's outbox. While pushes are stuck the thread helps by
// executing other activations, subject to the flow-control rule that it
// never runs an operator *upstream* of a stuck destination in the same
// chain (that would only produce more input for the congested queue —
// the paper's "will not consume activations of the same operator" rule,
// generalized to whole upstream segments). Build operators are always
// allowed: they emit only to themselves. If nothing allowed is runnable
// for a long stretch (every remaining op is upstream of a stuck
// destination — possible only in degenerate schedules), the restriction
// is lifted so global progress is guaranteed; the outbox absorbs the
// overflow.
void PipelineExecutor::FlushOutbox(uint32_t self) {
  Shared& sh = *shared_;
  Outbox& outbox = sh.outbox[self];
  uint32_t stalls = 0;
  while (!outbox.empty()) {
    // A cancelled run abandons staged activations (the whole execution
    // is being torn down); normal completion never reaches done with a
    // non-empty outbox (pending activations keep their op alive).
    if (sh.cancelled.load(std::memory_order_relaxed)) return;
    const bool progressed = outbox.Retry([&](Activation& act) {
      return sh.queues.TryPush(act, sh.queue_rows);
    });
    if (outbox.empty()) return;
    if (progressed) {
      stalls = 0;
      continue;
    }
    if (RunAllowedWhileStuck(self, /*unrestricted=*/stalls > 10000)) {
      stalls = 0;
      continue;
    }
    ++stalls;
    std::this_thread::yield();
  }
}

// Executes one activation (or build morsel) permitted while this thread
// has stuck pushes. Allowed: destination operators of stuck pushes (the
// most useful — draining them frees queue slots), any operator not
// upstream of a stuck destination in its chain, and all build operators.
// `unrestricted` lifts the upstream exclusion (progress valve).
bool PipelineExecutor::RunAllowedWhileStuck(uint32_t self,
                                            bool unrestricted) {
  Shared& sh = *shared_;
  const uint32_t T = options_.threads;
  const uint32_t nops = static_cast<uint32_t>(sh.ops.size());
  const bool fp = options_.strategy == LocalStrategy::kFP;

  // Per-chain minimum stuck position: ops of that chain strictly before
  // this position are forbidden (they would feed the congested queue).
  std::vector<uint32_t> min_stuck_pos(sh.chain_terminal.size(), UINT32_MAX);
  for (const Activation& act : sh.outbox[self].items()) {
    OpState& dst = *sh.ops[act.op];
    if (dst.kind == COp::kBuild) continue;  // self-feeding, nothing upstream
    uint32_t& cur = min_stuck_pos[dst.chain];
    cur = std::min(cur, dst.chain_pos);
  }

  auto allowed = [&](uint32_t op_id) {
    OpState& op = *sh.ops[op_id];
    if (op.kind == COp::kBuild || unrestricted) return true;
    return op.chain_pos >= min_stuck_pos[op.chain] ||
           min_stuck_pos[op.chain] == UINT32_MAX;
  };

  // Deepest operators first: executing the terminal op always shrinks the
  // backlog, so helping downstream-first keeps the outbox bounded.
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = nops - 1 - k;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load() || !allowed(op_id)) continue;
    // FP threads drain only destinations of their own stuck pushes.
    const auto& stuck = sh.outbox[self].items();
    if (fp && std::none_of(stuck.begin(), stuck.end(), [&](const auto& a) {
          return a.op == op_id;
        })) {
      continue;
    }
    for (uint32_t d = 0; d < T; ++d) {
      uint32_t t = (self + d) % T;
      Activation act;
      if (sh.queues.TryPopFront(op_id, t, &act)) {
        if (fp) sh.stat_fp_safety.fetch_add(1, std::memory_order_relaxed);
        if (d != 0 && !fp) {
          sh.stat_nonprimary.fetch_add(1, std::memory_order_relaxed);
        }
        ExecuteData(self, std::move(act));
        return true;
      }
    }
  }
  if (fp) return false;
  for (uint32_t k = 0; k < nops; ++k) {
    uint32_t op_id = nops - 1 - k;
    OpState& op = *sh.ops[op_id];
    if (!op.consumable.load() || op.ended.load() || !allowed(op_id)) continue;
    if (op.kind != COp::kProbe && ClaimMorsel(self, op_id)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Synchronous pipelining (SP).

Result<ResultDigest> PipelineExecutor::ExecuteSP(
    const PipelinePlan& plan, const std::vector<const Table*>& tables,
    PipelineStats* stats, Batch* out_rows) {
  ThreadSpawnContext fallback_ctx;
  ExecContext* ctx = options_.ctx != nullptr ? options_.ctx : &fallback_ctx;
  const uint32_t T = options_.threads;
  const uint32_t B = options_.buckets;
  const AggSpec* agg = plan.agg.has_value() ? &*plan.agg : nullptr;
  std::vector<bool> materialized = plan.MaterializedChains();
  if (out_rows != nullptr && agg == nullptr) materialized.back() = true;
  std::vector<Batch> chain_outputs(plan.chains.size());
  std::vector<ResultDigest> digests(T);
  std::vector<AggTable> agg_partials;
  if (agg != nullptr) {
    agg_partials.resize(T);
    for (AggTable& t : agg_partials) t.Init(agg);
  }
  std::vector<uint64_t> busy(T, 0);
  uint64_t morsel_count = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  std::atomic<uint64_t> filtered{0};

  // Tracing: SP has no per-activation queues, so spans are coarse — one
  // per (thread, phase): build phases on the build op's id, the fused
  // scan+probe walk on the scan op's id, using the same compiled-op
  // numbering as DP/FP (B(c,*), S(c), P(c,*)).
  obs::TraceSink* trace = options_.trace;
  if (trace != nullptr) trace->EnsureSlots(T);
  auto record_phase = [trace](uint32_t t, uint32_t op, uint64_t t0,
                              uint64_t acts, uint64_t rin, uint64_t rout) {
    if (trace == nullptr || acts == 0) return;
    obs::TraceEvent ev;
    ev.worker = static_cast<int32_t>(t);
    ev.op = static_cast<int32_t>(op);
    ev.start_ns = t0;
    ev.end_ns = trace->NowNs();
    ev.activations = acts;
    ev.rows_in = rin;
    ev.rows_out = rout;
    ev.detail = ev.end_ns - ev.start_ns;
    trace->Record(t, ev);
  };
  std::vector<uint32_t> op_base(plan.chains.size());
  {
    uint32_t base = 0;
    for (uint32_t c = 0; c < plan.chains.size(); ++c) {
      op_base[c] = base;
      base += 1 + 2 * static_cast<uint32_t>(plan.chains[c].joins.size());
    }
  }
  std::vector<uint64_t> chain_rows(plan.chains.size() * T, 0);

  auto scan_of = [&](const Source& s) {
    return ScanSpec::For(plan, s,
                         s.kind == Source::Kind::kTable
                             ? tables[s.index]->batch
                             : chain_outputs[s.index]);
  };
  auto cache_cancelled = [ctx] { return ctx->StopRequested(); };

  for (uint32_t c = 0; c < plan.chains.size(); ++c) {
    const Chain& chain = plan.chains[c];

    // Build phase: every join's bucket tables are either taken shared
    // from the session cache or built cooperatively (threads claim
    // morsels, insert under per-bucket locks) and then published. A
    // concurrent query already building the same key is waited on
    // instead of duplicating the work (see BuildCache::Acquire).
    std::vector<std::shared_ptr<const BucketTables>> join_tables(
        chain.joins.size());
    for (size_t j = 0; j < chain.joins.size(); ++j) {
      const JoinStep& js = chain.joins[j];
      BuildKey key;
      bool publish = false;
      if (BuildCacheKeyFor(options_, plan, B, js.build, js.build_col, &key)) {
        auto got = options_.build_cache->Acquire(key, cache_cancelled);
        const bool hit = got.tables != nullptr;
        RecordCacheLookup(options_, op_base[c] + j, hit);
        if (hit) {
          join_tables[j] = std::move(got.tables);
          ++cache_hits;
          continue;
        }
        publish = got.builder;
        ++cache_misses;
      }
      const ScanSpec scan = scan_of(js.build);
      const size_t rows = scan.src->rows();
      auto built = std::make_shared<BucketTables>(B);
      std::vector<std::mutex> bucket_mu(B);
      for (RowTable& t : *built) t.Init(scan.out_width(), js.build_col);
      std::atomic<size_t> cursor{0};
      ctx->SpawnWorkers(T, [&](uint32_t t) {
        // Scatter each morsel into local per-bucket batches, then take
        // each bucket lock once per morsel (amortized locking).
        Scratch sc;
        const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
        uint64_t acts = 0, rin = 0, rout = 0;
        while (!ctx->StopRequested()) {
          const size_t begin = cursor.fetch_add(options_.morsel_rows);
          if (begin >= rows) break;
          const size_t end = std::min<size_t>(begin + options_.morsel_rows,
                                              rows);
          auto insert = [&](uint32_t bucket, Batch& part) {
            InsertBuild((*built)[bucket], bucket_mu[bucket], part);
          };
          const size_t kept =
              ScatterMorsel(scan, begin, end, js.build_col, B, sc.scatter,
                            ShipRule{}, sc, insert,
                            [](const int64_t*, uint32_t) {});
          sc.scatter.FlushAll(insert);
          if (scan.preds != nullptr) {
            filtered.fetch_add(end - begin - kept, std::memory_order_relaxed);
          }
          ++busy[t];
          ++acts;
          rin += end - begin;
          rout += kept;
        }
        record_phase(t, op_base[c] + j, tr0, acts, rin, rout);
      });
      if (ctx->StopRequested()) {
        if (publish) options_.build_cache->Abandon(key);
        return Status::Cancelled("query cancelled during execution");
      }
      if (publish) options_.build_cache->Publish(key, built);
      join_tables[j] = std::move(built);
      morsel_count += (rows + options_.morsel_rows - 1) / options_.morsel_rows;
    }

    // Probe phase: every thread drives scan morsels through the whole
    // chain with nested procedure calls.
    const ScanSpec scan = scan_of(chain.input);
    const Batch& input = *scan.src;
    const uint32_t in_w = scan.out_width();
    const uint32_t out_width = plan.OutputWidth(tables, c);
    std::vector<Batch> partials(T);
    std::atomic<size_t> cursor{0};
    ctx->SpawnWorkers(T, [&](uint32_t t) {
      std::vector<int64_t> row_buf(out_width);
      SelVec sel;
      const uint64_t tr0 = trace != nullptr ? trace->NowNs() : 0;
      uint64_t acts = 0, rin = 0;
      uint64_t produced = 0;
      TerminalSink sink;
      if (c + 1 == plan.chains.size()) {
        if (agg != nullptr) {
          sink.agg = &agg_partials[t];
        } else {
          sink.digest = &digests[t];
        }
      }
      if (materialized[c]) {
        partials[t] = Batch(out_width);
        sink.keep = &partials[t];
      }
      // Recursive pipeline walker: step j consumes the prefix of row_buf
      // filled so far, which IS the output of plan point j (0 = scan
      // output, J = chain output), so offering at each level covers every
      // capture point exactly once per row.
      auto walk = [&](auto&& self_fn, size_t step, uint32_t filled) -> void {
        OfferCapture(options_.captures, c, static_cast<uint32_t>(step),
                     row_buf.data(), filled);
        if (step == chain.joins.size()) {
          ++produced;
          sink(row_buf.data(), filled);
          return;
        }
        const JoinStep& js = chain.joins[step];
        uint32_t bucket = static_cast<uint32_t>(
            HashKey(row_buf[js.probe_col]) % B);
        const RowTable& table = (*join_tables[step])[bucket];
        table.ForEachMatch(row_buf[js.probe_col], [&](const int64_t* brow) {
          std::copy(brow, brow + table.width(), row_buf.begin() + filled);
          self_fn(self_fn, step + 1, filled + table.width());
        });
      };
      while (!ctx->StopRequested()) {
        size_t begin = cursor.fetch_add(options_.morsel_rows);
        if (begin >= input.rows()) break;
        size_t end =
            std::min<size_t>(begin + options_.morsel_rows, input.rows());
        const size_t n = end - begin;
        size_t m = n;
        const uint32_t* selp = nullptr;
        if (scan.preds != nullptr) {
          m = FilterBatch(input, begin, n, *scan.preds, &sel);
          filtered.fetch_add(n - m, std::memory_order_relaxed);
          selp = sel.data();
        }
        for (size_t k = 0; k < m; ++k) {
          const int64_t* row =
              input.row(begin + (selp != nullptr ? selp[k] : k));
          if (scan.proj != nullptr) {
            for (uint32_t cc = 0; cc < in_w; ++cc) {
              row_buf[cc] = row[(*scan.proj)[cc]];
            }
          } else {
            std::copy(row, row + in_w, row_buf.begin());
          }
          walk(walk, 0, in_w);
        }
        ++busy[t];
        ++acts;
        rin += end - begin;
      }
      chain_rows[c * T + t] += produced;
      // The fused scan+probe walk reports on the chain's scan op.
      record_phase(t,
                   op_base[c] + static_cast<uint32_t>(chain.joins.size()),
                   tr0, acts, rin, produced);
    });
    if (ctx->StopRequested()) {
      return Status::Cancelled("query cancelled during execution");
    }
    morsel_count +=
        (input.rows() + options_.morsel_rows - 1) / options_.morsel_rows;

    if (materialized[c]) chain_outputs[c] = Concat(partials, out_width);
  }

  AggMerge merge;
  if (agg != nullptr &&
      !merge.Run(ctx, T, B, agg, agg_partials, out_rows != nullptr)) {
    return Status::Cancelled("query cancelled during aggregation");
  }

  ResultDigest digest;
  for (const auto& d : digests) digest.Merge(d);
  if (agg != nullptr) {
    merge.Finish(*agg, &digest, out_rows);
  } else if (out_rows != nullptr) {
    *out_rows = std::move(chain_outputs.back());
  }
  if (stats != nullptr) {
    *stats = PipelineStats{};
    stats->morsels = morsel_count;
    stats->build_cache_hits = cache_hits;
    stats->build_cache_misses = cache_misses;
    stats->rows_filtered = filtered.load();
    stats->agg_groups = merge.groups;
    stats->agg_partials = merge.partial_entries;
    stats->busy_per_thread = busy;
    stats->rows_per_chain = SumPerChain(chain_rows, plan.chains.size());
  }
  return digest;
}

}  // namespace hierdb::mt
