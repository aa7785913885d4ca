#include "obs/recorder.h"

#include <algorithm>

namespace hierdb::obs {

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) p <<= 1;
  return p;
}

std::atomic<uint64_t> g_recorder_ids{1};

/// Thread-local cache of the ring this thread writes in one recorder.
/// Keyed by the recorder's unique id, so a recorder destroyed and another
/// allocated at the same address can never alias a stale pointer.
struct ThreadRingCache {
  uint64_t recorder_id = 0;
  void* ring = nullptr;  // null once cached = this thread dropped
  bool resolved = false;
};
thread_local ThreadRingCache t_ring_cache;

/// `worker` in the low and `guest` in the high 32 bits of one slot word.
uint64_t PackLanes(int32_t worker, int32_t guest) {
  return static_cast<uint64_t>(static_cast<uint32_t>(worker)) |
         static_cast<uint64_t>(static_cast<uint32_t>(guest)) << 32;
}

}  // namespace

FlightRecorder::Ring::Ring(uint32_t capacity)
    : mask(RoundUpPow2(std::max(8u, capacity)) - 1) {
  slots = std::vector<Slot>(mask + 1);
}

FlightRecorder::FlightRecorder(const Options& options)
    : armed_(options.armed),
      t0_(std::chrono::steady_clock::now()),
      id_(g_recorder_ids.fetch_add(1, std::memory_order_relaxed)) {
  if (!armed_) return;
  const uint32_t n = std::max(1u, options.rings);
  rings_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    rings_.push_back(std::make_unique<Ring>(options.events_per_ring));
  }
}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  ThreadRingCache& c = t_ring_cache;
  if (c.recorder_id == id_ && c.resolved) {
    return static_cast<Ring*>(c.ring);
  }
  // First Record from this thread into this recorder: claim a ring (or
  // learn that the pool is exhausted) once, then cache the answer.
  Ring* r = nullptr;
  {
    std::lock_guard<std::mutex> lock(claim_mu_);
    auto it = claimed_.find(std::this_thread::get_id());
    if (it != claimed_.end()) {
      r = it->second;
    } else if (next_ring_ < rings_.size()) {
      r = rings_[next_ring_++].get();
      claimed_.emplace(std::this_thread::get_id(), r);
    } else {
      claimed_.emplace(std::this_thread::get_id(), nullptr);
    }
  }
  c.recorder_id = id_;
  c.ring = r;
  c.resolved = true;
  return r;
}

void FlightRecorder::Write(Ring& r, const TraceEvent& ev) {
  const uint64_t h = r.head.load(std::memory_order_relaxed);
  Slot& s = r.slots[h & r.mask];
  // Invalidate, fill, publish (the seqlock write protocol, with the
  // release fence that makes the invalidation observable before any
  // payload store — a reader whose payload loads saw this write's data
  // is then guaranteed to see seq != generation on its recheck).
  s.seq.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.w[0].store(static_cast<uint64_t>(ev.kind), std::memory_order_relaxed);
  s.w[1].store(static_cast<uint64_t>(static_cast<int64_t>(ev.node)),
               std::memory_order_relaxed);
  s.w[2].store(PackLanes(ev.worker, ev.guest), std::memory_order_relaxed);
  s.w[3].store(static_cast<uint64_t>(static_cast<int64_t>(ev.op)),
               std::memory_order_relaxed);
  s.w[4].store(ev.start_ns, std::memory_order_relaxed);
  s.w[5].store(ev.end_ns, std::memory_order_relaxed);
  s.w[6].store(ev.activations, std::memory_order_relaxed);
  s.w[7].store(ev.rows_in, std::memory_order_relaxed);
  s.w[8].store(ev.rows_out, std::memory_order_relaxed);
  s.w[9].store(ev.detail, std::memory_order_relaxed);
  s.w[10].store(ev.query, std::memory_order_relaxed);
  s.seq.store(h + 2, std::memory_order_release);
  r.head.store(h + 1, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  if (!armed_) return out;
  for (const auto& rp : rings_) {
    const Ring& r = *rp;
    const uint64_t head = r.head.load(std::memory_order_acquire);
    const uint64_t cap = static_cast<uint64_t>(r.mask) + 1;
    const uint64_t lo = head > cap ? head - cap : 0;
    for (uint64_t i = lo; i < head; ++i) {
      const Slot& s = r.slots[i & r.mask];
      if (s.seq.load(std::memory_order_acquire) != i + 2) continue;
      TraceEvent ev;
      ev.kind = static_cast<EventKind>(s.w[0].load(std::memory_order_relaxed));
      ev.node = static_cast<int32_t>(
          static_cast<int64_t>(s.w[1].load(std::memory_order_relaxed)));
      const uint64_t lanes = s.w[2].load(std::memory_order_relaxed);
      ev.worker = static_cast<int32_t>(static_cast<uint32_t>(lanes));
      ev.guest = static_cast<int32_t>(static_cast<uint32_t>(lanes >> 32));
      ev.op = static_cast<int32_t>(
          static_cast<int64_t>(s.w[3].load(std::memory_order_relaxed)));
      ev.start_ns = s.w[4].load(std::memory_order_relaxed);
      ev.end_ns = s.w[5].load(std::memory_order_relaxed);
      ev.activations = s.w[6].load(std::memory_order_relaxed);
      ev.rows_in = s.w[7].load(std::memory_order_relaxed);
      ev.rows_out = s.w[8].load(std::memory_order_relaxed);
      ev.detail = s.w[9].load(std::memory_order_relaxed);
      ev.query = s.w[10].load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != i + 2) continue;
      out.push_back(ev);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.start_ns < b.start_ns;
                   });
  return out;
}

FlightRecorder::Stats FlightRecorder::stats() const {
  Stats s;
  s.recorded = recorded_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.rings = static_cast<uint32_t>(rings_.size());
  s.events_per_ring = rings_.empty() ? 0 : rings_[0]->mask + 1;
  {
    std::lock_guard<std::mutex> lock(claim_mu_);
    s.rings_claimed = next_ring_;
  }
  return s;
}

}  // namespace hierdb::obs
