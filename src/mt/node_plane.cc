#include "mt/node_plane.h"

namespace hierdb::mt {

void ActivationQueues::Init(uint32_t ops, uint32_t threads) {
  threads_ = threads;
  queues_ = std::make_unique<Queue[]>(static_cast<size_t>(ops) * threads);
}

bool ActivationQueues::TryPush(Activation& a, uint32_t capacity) {
  Queue& q =
      queues_[static_cast<size_t>(a.op) * threads_ + a.bucket % threads_];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.items.size() >= capacity) return false;
  q.items.push_back(std::move(a));
  return true;
}

bool ActivationQueues::Pop(uint32_t op, uint32_t t, bool front,
                           Activation* out) {
  Queue& q = queues_[static_cast<size_t>(op) * threads_ + t];
  std::lock_guard<std::mutex> lock(q.mu);
  if (q.items.empty()) return false;
  if (front) {
    *out = std::move(q.items.front());
    q.items.pop_front();
  } else {
    *out = std::move(q.items.back());
    q.items.pop_back();
  }
  return true;
}

uint64_t ActivationQueues::Depth(uint32_t op) const {
  uint64_t n = 0;
  for (uint32_t t = 0; t < threads_; ++t) {
    const Queue& q = queues_[static_cast<size_t>(op) * threads_ + t];
    std::lock_guard<std::mutex> lock(q.mu);
    n += q.items.size();
  }
  return n;
}

void ScratchPool::Init(uint32_t slots, uint32_t buckets) {
  buckets_ = buckets;
  pool_.clear();
  pool_.resize(slots);
  depth_.assign(slots, 0);
}

ScratchPool::Lease::Lease(ScratchPool& pool, uint32_t slot)
    : pool_(pool), slot_(slot) {
  const size_t d = pool.depth_[slot]++;
  auto& levels = pool.pool_[slot];
  if (d == levels.size()) {
    levels.push_back(std::make_unique<Scratch>());
    levels.back()->bucket.resize(pool.buckets_);
  }
  sc_ = levels[d].get();
}

std::vector<ThreadRange> ApportionThreads(const std::vector<double>& costs,
                                          uint32_t threads) {
  const size_t n = costs.size();
  std::vector<ThreadRange> out(n);
  if (n == 0 || threads == 0) return out;
  if (n >= threads) {
    for (size_t k = 0; k < n; ++k) {
      const uint32_t t = static_cast<uint32_t>(k % threads);
      out[k] = {t, t + 1};
    }
    return out;
  }
  double total = 0.0;
  for (double c : costs) total += c;
  const uint32_t rest = threads - static_cast<uint32_t>(n);
  std::vector<uint32_t> alloc(n, 1);
  std::vector<double> frac(n);
  std::vector<size_t> order(n);
  uint32_t used = 0;
  for (size_t k = 0; k < n; ++k) {
    const double share = total > 0 ? costs[k] / total * rest
                                   : static_cast<double>(rest) / n;
    const uint32_t whole = static_cast<uint32_t>(share);
    alloc[k] += whole;
    used += whole;
    frac[k] = share - whole;
    order[k] = k;
  }
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return frac[a] > frac[b]; });
  for (size_t k = 0; k < n && used < rest; ++k, ++used) ++alloc[order[k]];
  uint32_t t = 0;
  for (size_t k = 0; k < n; t += alloc[k++]) out[k] = {t, t + alloc[k]};
  return out;
}

void SpanCells::Init(obs::TraceSink* sink, uint32_t slots, uint32_t ops) {
  sink_ = sink;
  slots_ = slots;
  ops_ = ops;
  cells_.clear();
  if (sink == nullptr) return;
  sink->EnsureSlots(slots);
  cells_.assign(static_cast<size_t>(slots) * ops, obs::OpSpanAgg{});
}

void SpanCells::Emit(
    const std::function<void(uint32_t, obs::TraceEvent*)>& label) const {
  if (sink_ == nullptr) return;
  for (uint32_t s = 0; s < slots_; ++s) {
    for (uint32_t op = 0; op < ops_; ++op) {
      const obs::OpSpanAgg& c = cells_[static_cast<size_t>(s) * ops_ + op];
      if (c.empty()) continue;
      obs::TraceEvent ev;
      ev.kind = obs::EventKind::kSpan;
      label(s, &ev);
      ev.op = static_cast<int32_t>(op);
      ev.start_ns = c.first_ns;
      ev.end_ns = c.last_ns;
      ev.activations = c.activations;
      ev.rows_in = c.rows_in;
      ev.rows_out = c.rows_out;
      ev.detail = c.busy_ns;
      sink_->Record(s, ev);
    }
  }
}

ScanSpec ScanSpec::For(const PipelinePlan& plan, const Source& s,
                       const Batch& rows) {
  ScanSpec spec;
  spec.src = &rows;
  if (s.kind == Source::Kind::kTable) {
    spec.preds = plan.FiltersFor(s.index);
    spec.proj = plan.ProjectionFor(s.index);
  }
  return spec;
}

}  // namespace hierdb::mt
