// The node data plane: the execution model the paper runs inside every
// SM-node (Sections 3.1-3.2), shared by both real backends. It holds the
// activation queues (one per operator x thread, bounded in rows), the
// outbox that stages pushes into full queues, the output buffers that
// batch rows into data activations across activations, per-slot scratch,
// FP's thread apportionment, trace span cells and the operator kernels:
// scan/build scatter, build insert and probe. The threads backend
// (mt/pipeline_executor) runs it as one node, the cluster
// (cluster/cluster_executor) as one per node. The kernels take the
// executor's emission as a callable (a queue push, or a local-or-fabric
// route), so the per-row loops compile to direct calls.

#ifndef HIERDB_MT_NODE_PLANE_H_
#define HIERDB_MT_NODE_PLANE_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "mt/column_batch.h"
#include "mt/plan.h"
#include "mt/row.h"
#include "mt/row_table.h"
#include "obs/trace.h"

namespace hierdb::mt {

/// A data activation: a batch of rows bound for one bucket of one operator.
struct Activation {
  uint32_t op = 0;
  uint32_t bucket = 0;
  Batch rows;
};

/// Data-activation buffering, as the simulator's Engine::FlushBucket and
/// FlushProducerResidue model it: a slot's output rows for one consumer
/// persist across activations. A bucket ships once it holds `batch_rows`
/// rows. When an activation leaves the slot holding more than
/// kResidencyBatches * batch_rows rows for that consumer (the residency
/// cap that bounds buffered memory), its fullest buckets ship until it is
/// back under the cap. Whatever is left ships, regardless of flow
/// control, when the producing operator ends.
inline constexpr size_t kResidencyBatches = 4;

/// Flow control counts rows: an activation queue refuses a push that
/// would take it past kQueueRowsPerCapacity * queue_capacity rows, but a
/// push into an empty queue always succeeds.
inline constexpr size_t kQueueRowsPerCapacity = 16;

/// The row bound of every activation queue under `queue_capacity`.
inline size_t QueueRowBound(uint32_t queue_capacity) {
  return kQueueRowsPerCapacity * queue_capacity;
}

/// The bounded activation queues of one node, one per (operator x thread);
/// flow control counts rows.
class ActivationQueues {
 public:
  void Init(uint32_t ops, uint32_t threads);
  /// Pushes onto the primary queue (bucket mod threads) if it is empty or
  /// stays within `max_rows` rows; `a` is moved from only on success.
  bool TryPush(Activation& a, size_t max_rows);
  /// Pushes past any bound (the forced end-of-producer flush).
  void Push(Activation&& a);
  bool TryPopFront(uint32_t op, uint32_t t, Activation* out) {
    return Pop(op, t, /*front=*/true, out);
  }
  bool TryPopBack(uint32_t op, uint32_t t, Activation* out) {
    return Pop(op, t, /*front=*/false, out);
  }
  /// Activations queued for `op` over all threads (approximate).
  uint64_t Depth(uint32_t op) const;

 private:
  struct alignas(64) Queue {  // one cache line start per queue
    mutable std::mutex mu;
    std::deque<Activation> items;
    size_t rows = 0;  // over items
  };
  Queue& QueueOf(const Activation& a) {
    return queues_[static_cast<size_t>(a.op) * threads_ + a.bucket % threads_];
  }
  bool Pop(uint32_t op, uint32_t t, bool front, Activation* out);

  uint32_t threads_ = 0;
  std::unique_ptr<Queue[]> queues_;  // [op * threads + t]
};

/// Activations whose destination queue was full. Operator bodies never
/// block: a failed push is staged here and retried at the top level (the
/// iterative form of the paper's procedure-call suspension).
class Outbox {
 public:
  bool empty() const { return items_.empty(); }
  void Push(Activation&& a) { items_.push_back(std::move(a)); }
  const std::vector<Activation>& items() const { return items_; }

  /// One retry pass, oldest first: try_push(Activation&) moves from an
  /// activation only when it returns true; the rest keep their order.
  /// Returns whether anything left the outbox.
  template <typename TryPush>
  bool Retry(TryPush&& try_push) {
    size_t kept = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (try_push(items_[i])) continue;
      if (kept != i) items_[kept] = std::move(items_[i]);
      ++kept;
    }
    const bool progressed = kept != items_.size();
    items_.resize(kept);
    return progressed;
  }

 private:
  std::vector<Activation> items_;
};

/// When a BucketBuffer ships on its own: a bucket at `batch_rows` rows,
/// and the fullest buckets while an activation leaves more than
/// `cap_rows` held. The default ships only on FlushAll (a build's
/// whole-morsel inserts).
struct ShipRule {
  size_t batch_rows = SIZE_MAX;
  size_t cap_rows = SIZE_MAX;

  /// The buffered data-activation rule (see kResidencyBatches).
  static ShipRule Buffered(size_t batch_rows) {
    return {batch_rows, kResidencyBatches * batch_rows};
  }
};

/// One producer's output rows toward one consumer, one batch per bucket.
/// Only one thread touches a buffer at a time: its slot's holder, or the
/// forced end flush once the producer has no activation in flight.
class alignas(64) BucketBuffer {
 public:
  /// Sizes the buffer for `buckets` buckets (kept if already so sized).
  void Resize(uint32_t buckets) {
    if (bucket_.size() != buckets) bucket_.resize(buckets);
  }
  uint32_t buckets() const { return static_cast<uint32_t>(bucket_.size()); }
  /// Rows held over all buckets.
  size_t rows() const { return rows_; }

  /// The batch collecting bucket `b` at `width`, registered as touched.
  /// Append one row to it, then call Appended.
  Batch& Bucket(uint32_t b, uint32_t width) {
    Batch& batch = bucket_[b];
    if (batch.empty()) {
      if (batch.width() != width) batch = Batch(width);
      hit_.push_back(b);
    }
    return batch;
  }
  /// Counts the row just appended to bucket `b` and ships the bucket
  /// through emit(bucket, Batch&), which may move from the batch, once it
  /// holds `rule.batch_rows` rows.
  template <typename Emit>
  void Appended(uint32_t b, const ShipRule& rule, Emit&& emit) {
    ++rows_;
    if (bucket_[b].rows() < rule.batch_rows) return;
    Ship(std::find(hit_.begin(), hit_.end(), b), emit);
  }
  /// The residency cap, at the end of an activation: the fullest buckets
  /// ship while more than `rule.cap_rows` rows are held.
  template <typename Emit>
  void ShipOverCap(const ShipRule& rule, Emit&& emit) {
    while (rows_ > rule.cap_rows) {
      Ship(std::max_element(hit_.begin(), hit_.end(),
                            [&](uint32_t x, uint32_t y) {
                              return bucket_[x].rows() < bucket_[y].rows();
                            }),
           emit);
    }
  }
  /// Hands every touched bucket to emit, in first-use order.
  template <typename Emit>
  void FlushAll(Emit&& emit) {
    for (uint32_t b : hit_) {
      emit(b, bucket_[b]);
      bucket_[b].Clear();
    }
    hit_.clear();
    rows_ = 0;
  }

 private:
  template <typename Emit>
  void Ship(std::vector<uint32_t>::iterator it, Emit&& emit) {
    const uint32_t b = *it;
    hit_.erase(it);
    rows_ -= bucket_[b].rows();
    emit(b, bucket_[b]);
    bucket_[b].Clear();
  }

  std::vector<Batch> bucket_;
  std::vector<uint32_t> hit_;  // buckets holding rows, in first-use order
  size_t rows_ = 0;
};

/// Every slot's output buffers, one per (slot, consumer operator), alive
/// for the whole run so data activations fill up across activations.
class SlotBuffers {
 public:
  void Init(uint32_t slots, uint32_t ops) {
    slots_ = slots;
    ops_ = ops;
    bufs_ = std::make_unique<BucketBuffer[]>(static_cast<size_t>(slots) * ops);
  }
  BucketBuffer& At(uint32_t slot, uint32_t op) {
    return bufs_[static_cast<size_t>(slot) * ops_ + op];
  }
  /// The forced end flush of the operator feeding `op`: every slot's rows
  /// for `op` go to emit. Pre: that producer has no activation in flight
  /// (and the caller synchronizes with its last one).
  template <typename Emit>
  void FlushResidue(uint32_t op, Emit&& emit) {
    for (uint32_t s = 0; s < slots_; ++s) At(s, op).FlushAll(emit);
  }

 private:
  uint32_t slots_ = 0;
  uint32_t ops_ = 0;
  std::unique_ptr<BucketBuffer[]> bufs_;  // [slot * ops + op]
};

/// One activation's scratch: the bucket batches of a build scatter in
/// progress, selection vector, hash and key columns, joined-row and agg
/// buffers.
struct Scratch {
  BucketBuffer scatter;
  SelVec sel;
  std::vector<uint64_t> hashes;
  std::vector<int64_t> keys;
  std::vector<int64_t> row;
  AggTable::BatchScratch agg;
};

/// Scratch per slot, pooled by re-entrancy depth: helping while stuck
/// nests one activation inside another on the same slot.
class ScratchPool {
 public:
  /// Each scratch's scatter buffer is sized for `buckets`.
  void Init(uint32_t slots, uint32_t buckets);

  /// Holds one depth level of a slot's scratch while alive.
  class Lease {
   public:
    Lease(ScratchPool& pool, uint32_t slot);
    ~Lease() { --pool_.depth_[slot_]; }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Scratch& operator*() const { return *sc_; }
    Scratch* operator->() const { return sc_; }

   private:
    ScratchPool& pool_;
    uint32_t slot_;
    Scratch* sc_;
  };

 private:
  uint32_t buckets_ = 0;
  std::vector<std::vector<std::unique_ptr<Scratch>>> pool_;  // [slot][depth]
  std::vector<size_t> depth_;
};

/// A thread range [lo, hi) allotted to one operator under FP.
struct ThreadRange {
  uint32_t lo = 0;
  uint32_t hi = 0;
  bool Holds(uint32_t t) const { return lo <= t && t < hi; }
  uint64_t Pack() const { return (static_cast<uint64_t>(lo) << 32) | hi; }
  static ThreadRange Unpack(uint64_t p) {
    return {static_cast<uint32_t>(p >> 32), static_cast<uint32_t>(p)};
  }
};

/// FP allocation of `threads` among operators weighted by `costs`: one
/// thread each, the rest in proportion to cost by largest remainder
/// (evenly when the costs sum to zero), as consecutive ranges in input
/// order. With at least as many operators as threads, operator k shares
/// thread k mod threads.
std::vector<ThreadRange> ApportionThreads(const std::vector<double>& costs,
                                          uint32_t threads);

/// Per-(slot, operator) span aggregates, each written only by its slot's
/// holder and emitted as one kSpan per cell at run end.
class SpanCells {
 public:
  /// A null sink leaves tracing off.
  void Init(obs::TraceSink* sink, uint32_t slots, uint32_t ops);
  bool on() const { return sink_ != nullptr; }
  /// Start stamp of an activation (0 when off).
  uint64_t Now() const { return sink_ != nullptr ? sink_->NowNs() : 0; }
  /// Folds one activation into its cell. Pre: on().
  void Add(uint32_t slot, uint32_t op, uint64_t t0, uint64_t rows_in,
           uint64_t rows_out) {
    cells_[static_cast<size_t>(slot) * ops_ + op].Add(t0, sink_->NowNs(),
                                                      rows_in, rows_out);
  }
  /// Records the non-empty cells; label(slot, &ev) names who ran each.
  void Emit(
      const std::function<void(uint32_t, obs::TraceEvent*)>& label) const;

 private:
  obs::TraceSink* sink_ = nullptr;
  uint32_t slots_ = 0;
  uint32_t ops_ = 0;
  std::vector<obs::OpSpanAgg> cells_;  // [slot * ops + op]
};

/// A trigger's rows: the source batch plus a base table's scan predicates
/// and projection (null for intermediates, pruned at their own scan).
struct ScanSpec {
  const Batch* src = nullptr;
  const std::vector<Predicate>* preds = nullptr;
  const std::vector<uint32_t>* proj = nullptr;

  static ScanSpec For(const PipelinePlan& plan, const Source& s,
                      const Batch& rows);
  uint32_t out_width() const {
    return proj != nullptr ? static_cast<uint32_t>(proj->size())
                           : src->width();
  }
};

/// Kernel: rows [begin, end) of a scan pass its predicates, are hashed on
/// `key_col` (emitted coordinates), projected and appended to their
/// bucket (hash mod buckets) of `out`, which ships to emit(bucket, Batch&)
/// per `rule`; rows still held stay in `out`. on_row(row, width) sees
/// each appended row. Returns the rows that passed.
template <typename Emit, typename OnRow>
size_t ScatterMorsel(const ScanSpec& scan, size_t begin, size_t end,
                     uint32_t key_col, uint32_t buckets, BucketBuffer& out,
                     const ShipRule& rule, Scratch& sc, Emit&& emit,
                     OnRow&& on_row) {
  const Batch& src = *scan.src;
  const uint32_t out_w = scan.out_width();
  const uint32_t key = scan.proj != nullptr ? (*scan.proj)[key_col] : key_col;
  size_t m = end - begin;
  const uint32_t* selp = nullptr;
  if (scan.preds != nullptr) {
    m = FilterBatch(src, begin, m, *scan.preds, &sc.sel);
    selp = sc.sel.data();
  }
  sc.hashes.resize(m);
  HashStrided(src.data().data() + begin * src.width() + key, src.width(),
              selp, m, sc.hashes.data());
  out.Resize(buckets);
  for (size_t i = 0; i < m; ++i) {
    const int64_t* row = src.row(begin + (selp != nullptr ? selp[i] : i));
    const uint32_t b = static_cast<uint32_t>(sc.hashes[i] % buckets);
    Batch& batch = out.Bucket(b, out_w);
    if (scan.proj != nullptr) {
      batch.AppendRowProjected(row, *scan.proj);
    } else {
      batch.AppendRow(row);
    }
    on_row(batch.row(batch.rows() - 1), out_w);
    out.Appended(b, rule, emit);
  }
  out.ShipOverCap(rule, emit);
  return m;
}

/// Kernel: inserts a build activation into its bucket's table.
inline void InsertBuild(RowTable& table, std::mutex& mu, const Batch& rows) {
  std::lock_guard<std::mutex> lock(mu);
  table.InsertBatch(rows);
}

/// Kernel: joins every row of `rows` with its matches in `table` on
/// `probe_col` (one gathered key column, one hash pass, a prefetching
/// table walk) and hands each joined row — probe columns, then build
/// columns — to on_joined(row, width). Returns the joined row count.
template <typename OnJoined>
uint64_t ProbeRows(const Batch& rows, uint32_t probe_col,
                   const RowTable& table, Scratch& sc, OnJoined&& on_joined) {
  const size_t n = rows.rows();
  if (n == 0) return 0;
  const uint32_t in_w = rows.width(), out_w = in_w + table.width();
  sc.keys.resize(n);
  sc.hashes.resize(n);
  sc.row.resize(out_w);
  GatherStrided(rows.data().data() + probe_col, in_w, nullptr, n,
                sc.keys.data());
  HashStrided(sc.keys.data(), 1, nullptr, n, sc.hashes.data());
  uint64_t produced = 0;
  int64_t* out = sc.row.data();
  table.ProbeBatch(sc.keys.data(), sc.hashes.data(), n,
                   [&](size_t i, const int64_t* brow) {
                     std::copy(rows.row(i), rows.row(i) + in_w, out);
                     std::copy(brow, brow + table.width(), out + in_w);
                     ++produced;
                     on_joined(static_cast<const int64_t*>(out), out_w);
                   });
  return produced;
}

/// ProbeRows for a probe with a successor: each joined row, after
/// on_joined(row, width) sees it, is scattered by its `next_col` key into
/// the next join's buckets of `out` and shipped as in ScatterMorsel.
template <typename Emit, typename OnJoined>
uint64_t ProbeForward(const Batch& rows, uint32_t probe_col,
                      const RowTable& table, uint32_t next_col,
                      uint32_t buckets, BucketBuffer& out,
                      const ShipRule& rule, Scratch& sc, Emit&& emit,
                      OnJoined&& on_joined) {
  out.Resize(buckets);
  const uint64_t produced = ProbeRows(
      rows, probe_col, table, sc, [&](const int64_t* row, uint32_t w) {
        on_joined(row, w);
        const uint32_t b =
            static_cast<uint32_t>(HashKey(row[next_col]) % buckets);
        out.Bucket(b, w).AppendRow(row);
        out.Appended(b, rule, emit);
      });
  out.ShipOverCap(rule, emit);
  return produced;
}

/// Where a chain's output rows end: folded into an aggregation partial
/// (and nothing else), or digested and/or kept.
struct TerminalSink {
  AggTable* agg = nullptr;
  ResultDigest* digest = nullptr;
  Batch* keep = nullptr;

  void operator()(const int64_t* row, uint32_t width) const {
    if (agg != nullptr) return agg->Accumulate(row);
    if (digest != nullptr) digest->Add(row, width);
    if (keep != nullptr) keep->AppendRow(row);
  }
};

/// Offers `row` to every capture bound to (chain, point); no captures
/// cost one empty loop.
inline void OfferCapture(const std::vector<CaptureSink>& captures,
                         uint32_t chain, uint32_t point, const int64_t* row,
                         uint32_t width) {
  for (const CaptureSink& cs : captures) {
    if (cs.chain == chain && cs.point == point && cs.sink != nullptr) {
      cs.sink->Offer(row, width);
    }
  }
}

}  // namespace hierdb::mt

#endif  // HIERDB_MT_NODE_PLANE_H_
