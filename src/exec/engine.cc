#include "exec/engine.h"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace hierdb::exec {

std::string RunMetrics::ToString() const {
  std::ostringstream os;
  os << "RunMetrics{rt=" << ResponseMs() << "ms threads=" << threads
     << " idle=" << IdleFraction() * 100.0 << "% acts="
     << activations_processed << " tuples=" << tuples_processed
     << " io=" << io_requests << " steals=" << global_steals
     << " lb_bytes=" << net.bytes_loadbalance
     << " pipe_bytes=" << net.bytes_pipeline
     << " ctl_bytes=" << net.bytes_control << "}";
  return os.str();
}

uint64_t Message::WireBytes(uint32_t tuple_size) const {
  constexpr uint64_t kHeader = 64;
  switch (kind) {
    case Kind::kDataBatch:
      return kHeader + batch.tuples * tuple_size;
    case Kind::kTransfer: {
      uint64_t t = 0;
      for (const auto& a : activations) t += a.tuples;
      return kHeader + t * tuple_size + ht_bytes;
    }
    default:
      return kHeader;
  }
}

Engine::Engine(const sim::SystemConfig& cfg, Strategy strategy)
    : cfg_(cfg), strategy_(strategy), rng_(0) {
  instr_ns_ = cfg_.instr_ns(cfg_.procs_per_node);
  if (strategy_ == Strategy::kSP) {
    HIERDB_CHECK(cfg_.num_nodes == 1,
                 "SP is a shared-memory-only strategy (Section 5.2.1)");
  }
}

RunResult Engine::Run(const plan::PhysicalPlan& pplan,
                      const catalog::Catalog& cat, const RunOptions& opts) {
  RunResult result;
  Status st = pplan.Validate();
  if (!st.ok()) {
    result.status = st;
    return result;
  }
  rng_.Seed(opts.seed);
  net_ = std::make_unique<sim::Network>(&sim_, cfg_.net);
  compiled_ = std::make_unique<CompiledPlan>(pplan, cat, cfg_,
                                             opts.skew_theta, &rng_);

  const uint32_t n_ops = compiled_->num_ops();
  metrics_ = RunMetrics{};
  metrics_.op_tuples_in.assign(n_ops, 0);
  metrics_.op_end_time.assign(n_ops, 0);
  metrics_.op_busy_ns.assign(n_ops, 0.0);

  // Ledgers for every pipelining producer (scan or non-root probe).
  ledgers_.clear();
  ledgers_.resize(n_ops);
  for (OpId o = 0; o < n_ops; ++o) {
    const CompiledOp& cop = compiled_->op(o);
    if (cop.def.IsBuild() || cop.def.consumer == kNoOp) continue;
    const CompiledOp& consumer = compiled_->op(cop.def.consumer);
    ledgers_[o] = std::make_unique<EmissionLedger>(
        cop.def.IsScan() ? cop.in_tuples : cop.in_tuples,
        consumer.in_shares);
  }

  end_signals_.assign(n_ops, {});
  drain_confirms_.assign(n_ops, {});
  op_globally_ended_.assign(n_ops, 0);
  ops_ended_count_ = 0;
  done_ = false;

  SetupNodes(opts);
  switch (strategy_) {
    case Strategy::kDP: SetupQueuesDp(); break;
    case Strategy::kFP: SetupQueuesFp(opts); break;
    case Strategy::kSP: SetupQueuesSp(); break;
  }
  PreloadTriggers();
  InitialUnblock();

  for (auto& nd : nodes_) {
    RebuildActiveList(nd->id);
  }
  // Operators that start with nothing to do anywhere must be detected.
  if (strategy_ != Strategy::kSP) {
    for (auto& nd : nodes_) {
      for (OpId o = 0; o < n_ops; ++o) CheckLocalEnd(nd->id, o);
    }
  }
  for (auto& nd : nodes_) KickAllWorkers(nd->id);

  uint64_t events = 0;
  while (!done_ && !sim_.Empty() && events < opts.max_events) {
    // Cooperative cancellation, once per event batch.
    if (opts.stop != nullptr &&
        opts.stop->load(std::memory_order_acquire)) {
      FinalizeMetrics();
      result.status = Status::Cancelled("query cancelled during simulation");
      result.metrics = metrics_;
      return result;
    }
    events += sim_.Run(1024);
    if (done_) break;
  }
  if (!done_) {
    std::ostringstream os;
    os << "execution did not complete ("
       << (sim_.Empty() ? "deadlock: event queue drained"
                        : "event budget exhausted")
       << ") after " << events << " events at t=" << ToMillis(sim_.Now())
       << "ms; ops ended " << ops_ended_count_ << "/" << n_ops << "\n";
    for (OpId o = 0; o < n_ops; ++o) {
      os << "  op " << compiled_->op(o).def.label
         << (op_globally_ended_[o] ? " ENDED" : "");
      for (auto& nd : nodes_) {
        uint64_t backlog = 0;
        for (auto& q : nd->queues[o]) {
          if (q) backlog += q->size();
        }
        os << " [n" << nd->id << " unb=" << int(nd->op_unblocked[o])
           << " q=" << backlog << " inflt=" << nd->inflight[o]
           << " pend=" << nd->pending[o]
           << " sig=" << int(nd->end_signaled[o])
           << " cnf=" << int(nd->drain_confirmed[o]) << "]";
      }
      os << "\n";
    }
    result.status = Status::Internal(os.str());
  }
  FinalizeMetrics();
  if (result.status.ok()) result.status = VerifyConservation();
  result.metrics = metrics_;
  return result;
}

void Engine::SetupNodes(const RunOptions& opts) {
  (void)opts;
  nodes_.clear();
  const uint32_t n_ops = compiled_->num_ops();
  for (NodeId n = 0; n < cfg_.num_nodes; ++n) {
    auto nd = std::make_unique<SmNode>();
    nd->id = n;
    for (uint32_t p = 0; p < cfg_.procs_per_node; ++p) {
      nd->workers.push_back(std::make_unique<Worker>(this, n, p));
    }
    nd->disks = std::make_unique<sim::DiskArray>(
        &sim_, cfg_.disk, cfg_.page_size_bytes,
        cfg_.procs_per_node * cfg_.disks_per_proc);
    nd->queues.resize(n_ops);
    for (auto& v : nd->queues) v.resize(cfg_.procs_per_node + 1);
    nd->accum.assign(n_ops,
                     std::vector<uint64_t>(cfg_.buckets_per_operator, 0));
    nd->inflight.assign(n_ops, 0);
    nd->pending.assign(n_ops, 0);
    nd->end_signaled.assign(n_ops, 0);
    nd->drain_requested.assign(n_ops, 0);
    nd->drain_confirmed.assign(n_ops, 0);
    nd->op_ended.assign(n_ops, 0);
    nd->op_unblocked.assign(n_ops, 0);
    nd->ht_copies.assign(n_ops, {});
    nodes_.push_back(std::move(nd));
  }
}

void Engine::SetupQueuesDp() {
  const uint32_t n_ops = compiled_->num_ops();
  fp_threads_of_op_.assign(n_ops, {});
  for (OpId o = 0; o < n_ops; ++o) {
    for (uint32_t t = 0; t < cfg_.procs_per_node; ++t) {
      fp_threads_of_op_[o].push_back(t);
    }
  }
  for (auto& nd : nodes_) {
    for (OpId o = 0; o < n_ops; ++o) {
      for (uint32_t t = 0; t < cfg_.procs_per_node; ++t) {
        nd->queues[o][t] = std::make_unique<ActivationQueue>(
            o, nd->id, t, cfg_.queue_capacity);
      }
    }
  }
}

void Engine::SetupQueuesFp(const RunOptions& opts) {
  ComputeFpAssignments(opts);
  const uint32_t n_ops = compiled_->num_ops();
  for (auto& nd : nodes_) {
    for (OpId o = 0; o < n_ops; ++o) {
      for (uint32_t t : fp_threads_of_op_[o]) {
        nd->queues[o][t] = std::make_unique<ActivationQueue>(
            o, nd->id, t, cfg_.queue_capacity);
      }
    }
  }
}

void Engine::SetupQueuesSp() {
  const uint32_t n_ops = compiled_->num_ops();
  fp_threads_of_op_.assign(n_ops, {});
  sp_triggers_left_.assign(compiled_->plan().chains.size(), 0);
  sp_chain_end_.assign(compiled_->plan().chains.size(), 0);
  sp_chain_cursor_ = 0;
  for (auto& nd : nodes_) {
    for (OpId o = 0; o < n_ops; ++o) {
      if (!compiled_->op(o).def.IsScan()) continue;
      for (uint32_t t = 0; t < cfg_.procs_per_node; ++t) {
        nd->queues[o][t] = std::make_unique<ActivationQueue>(
            o, nd->id, t, cfg_.queue_capacity);
      }
    }
  }
}

void Engine::PreloadTriggers() {
  for (OpId o = 0; o < compiled_->num_ops(); ++o) {
    const CompiledOp& cop = compiled_->op(o);
    if (!cop.def.IsScan()) continue;
    for (auto& nd : nodes_) {
      NodeTriggers nt;
      const uint32_t assigned =
          static_cast<uint32_t>(fp_threads_of_op_.empty()
                                    ? 0
                                    : fp_threads_of_op_[o].size());
      if (strategy_ == Strategy::kFP && assigned > 0 &&
          assigned < cfg_.procs_per_node) {
        nt = compiled_->ReassignTriggers(o, nd->id, assigned, &rng_);
        for (size_t i = 0; i < nt.triggers.size(); ++i) {
          uint32_t t = fp_threads_of_op_[o][nt.queue_slot[i]];
          nd->queues[o][t]->Push(nt.triggers[i]);
        }
      } else {
        const NodeTriggers& src = compiled_->TriggersFor(o, nd->id);
        for (size_t i = 0; i < src.triggers.size(); ++i) {
          uint32_t slot = src.queue_slot[i];
          if (strategy_ == Strategy::kFP) {
            // Map through the op's assigned threads.
            const auto& ths = fp_threads_of_op_[o];
            slot = ths[slot % ths.size()];
          }
          nd->queues[o][slot]->Push(src.triggers[i]);
        }
      }
      if (strategy_ == Strategy::kSP) {
        sp_triggers_left_[cop.def.chain] +=
            compiled_->TriggersFor(o, nd->id).triggers.size();
      }
    }
  }
}

void Engine::InitialUnblock() {
  for (auto& nd : nodes_) {
    for (OpId o = 0; o < compiled_->num_ops(); ++o) {
      nd->op_unblocked[o] = compiled_->op(o).blockers.empty() ? 1 : 0;
    }
  }
}

void Engine::ComputeFpAssignments(const RunOptions& opts) {
  const uint32_t n_ops = compiled_->num_ops();
  const uint32_t procs = cfg_.procs_per_node;
  fp_threads_of_op_.assign(n_ops, {});

  // Cost-model error injection (Fig 7): base and intermediate relation
  // cardinalities are distorted independently, which propagates into the
  // per-operator cost estimates. Because an operator's cost is roughly
  // linear in its (distorted) input/output cardinalities, we distort each
  // operator's estimated cost by an independent factor in [1-r, 1+r].
  Rng drng(opts.seed ^ 0xd15707ULL);
  std::vector<double> factors(n_ops, 1.0);
  if (opts.fp_error_rate > 0.0) {
    for (auto& f : factors) {
      f = drng.NextDoubleInRange(1.0 - opts.fp_error_rate,
                                 1.0 + opts.fp_error_rate);
    }
  }
  std::vector<double> costs = compiled_->EstimateOpCosts({});
  for (OpId o = 0; o < n_ops; ++o) costs[o] *= factors[o];

  for (const auto& ch : compiled_->plan().chains) {
    const auto& ops = ch.ops;
    const uint32_t k = static_cast<uint32_t>(ops.size());
    std::vector<uint32_t> alloc(k, 0);
    if (k >= procs) {
      // More operators than processors: round-robin op-to-thread mapping.
      for (uint32_t i = 0; i < k; ++i) {
        fp_threads_of_op_[ops[i]].push_back(i % procs);
      }
      continue;
    }
    // One processor guaranteed per operator; the remainder is split
    // proportionally to estimated cost (largest-remainder rounding) — the
    // source of FP's discretization errors.
    double total = 0.0;
    for (OpId o : ops) total += costs[o];
    if (total <= 0.0) total = 1.0;
    uint32_t left = procs - k;
    std::vector<std::pair<double, uint32_t>> rem(k);
    uint32_t given = 0;
    for (uint32_t i = 0; i < k; ++i) {
      double exact = left * costs[ops[i]] / total;
      uint32_t whole = static_cast<uint32_t>(exact);
      alloc[i] = 1 + whole;
      given += whole;
      rem[i] = {exact - whole, i};
    }
    std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    for (uint32_t g = 0; g < left - given; ++g) {
      alloc[rem[g % k].second] += 1;
    }
    // Contiguous thread ranges per operator.
    uint32_t next_thread = 0;
    for (uint32_t i = 0; i < k; ++i) {
      for (uint32_t c = 0; c < alloc[i] && next_thread < procs; ++c) {
        fp_threads_of_op_[ops[i]].push_back(next_thread++);
      }
    }
  }

  // Per-worker op lists.
  for (auto& nd : nodes_) {
    for (auto& w : nd->workers) w->assignment().fp_ops.clear();
    for (OpId o = 0; o < n_ops; ++o) {
      for (uint32_t t : fp_threads_of_op_[o]) {
        nd->workers[t]->assignment().fp_ops.push_back(o);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Dataflow.
// ---------------------------------------------------------------------

void Engine::Accumulate(NodeId from, OpId consumer, uint32_t b,
                        uint64_t tuples) {
  nodes_[from]->accum[consumer][b] += tuples;
}

ActivationQueue* Engine::DestQueue(OpId op, uint32_t b) {
  NodeId n = compiled_->NodeOfBucket(b);
  const auto& threads = fp_threads_of_op_[op];
  HIERDB_CHECK(!threads.empty(), "no queues exist for consumer op");
  uint32_t slot =
      threads[compiled_->SlotOfBucket(b, static_cast<uint32_t>(
                                             threads.size()))];
  ActivationQueue* q = nodes_[n]->queue(op, slot);
  HIERDB_CHECK(q != nullptr, "destination queue missing");
  return q;
}

ActivationQueue* Engine::FlushBucket(NodeId from, OpId consumer, uint32_t b,
                                     bool force, double* instr) {
  SmNode& nd = *nodes_[from];
  uint64_t& acc = nd.accum[consumer][b];
  const uint64_t batch = cfg_.activation_batch_tuples;
  const uint64_t threshold = compiled_->op(consumer).flush_threshold;
  const NodeId dest = compiled_->NodeOfBucket(b);
  bool pushed = false;
  bool hungry = false;
  if (dest == from && acc > 0 && acc < threshold) {
    // Adaptive batching: if the destination queue has run dry the consumer
    // is starving — ship whatever has accumulated instead of waiting for a
    // full batch (keeps pipeline ramp-up delay near zero; batches grow
    // back to full size at steady state).
    hungry = DestQueue(consumer, b)->Empty();
  }
  while (acc >= threshold || ((force || hungry) && acc > 0)) {
    hungry = false;
    uint64_t t = std::min<uint64_t>(acc, batch);
    Activation a;
    a.op = consumer;
    a.bucket = b;
    a.tuples = t;
    if (dest == from) {
      ActivationQueue* q = DestQueue(consumer, b);
      if (!force && q->Full()) return q;  // flow control
      q->Push(a);
      *instr += cfg_.cost.queue_op_instr;
      pushed = true;
    } else {
      Message m;
      m.kind = Message::Kind::kDataBatch;
      m.from = from;
      m.op = consumer;
      m.batch = a;
      *instr += net_->SendCpuInstr(m.WireBytes(cfg_.tuple_size_bytes));
      nodes_[dest]->pending[consumer] += 1;
      SendMessage(from, dest, std::move(m), sim::TrafficClass::kPipeline);
    }
    acc -= t;
  }
  if (pushed) KickAllWorkers(from);
  return nullptr;
}

// ---------------------------------------------------------------------
// Messaging.
// ---------------------------------------------------------------------

void Engine::SendMessage(NodeId from, NodeId to, Message msg,
                         sim::TrafficClass cls) {
  msg.from = from;
  if (from == to) {
    HandleMessage(to, std::move(msg));
    return;
  }
  const uint64_t bytes = msg.WireBytes(cfg_.tuple_size_bytes);
  // Data-batch send CPU is charged to the producing worker by the caller;
  // every other kind is shipped by the scheduler thread.
  if (msg.kind != Message::Kind::kDataBatch) {
    nodes_[from]->scheduler_busy_ns += InstrNs(net_->SendCpuInstr(bytes));
  }
  if (msg.kind == Message::Kind::kEndOfQueuesAtNode ||
      msg.kind == Message::Kind::kDrainCheck ||
      msg.kind == Message::Kind::kDrainConfirm ||
      msg.kind == Message::Kind::kOperatorEnded) {
    ++metrics_.end_protocol_messages;
  }
  auto shared = std::make_shared<Message>(std::move(msg));
  net_->Send(from, to, bytes, cls, [this, to, shared]() {
    nodes_[to]->scheduler_busy_ns +=
        InstrNs(net_->RecvCpuInstr(shared->WireBytes(cfg_.tuple_size_bytes)));
    HandleMessage(to, std::move(*shared));
  });
}

void Engine::HandleMessage(NodeId at, Message msg) {
  switch (msg.kind) {
    case Message::Kind::kDataBatch: {
      SmNode& nd = *nodes_[at];
      HIERDB_CHECK(nd.pending[msg.op] > 0, "pending underflow");
      nd.pending[msg.op] -= 1;
      DestQueue(msg.op, msg.batch.bucket)->Push(msg.batch);
      KickAllWorkers(at);
      break;
    }
    case Message::Kind::kStarving:
      LbHandleStarving(at, msg);
      break;
    case Message::Kind::kCandidateReply:
      LbHandleReply(at, msg);
      break;
    case Message::Kind::kAcquire:
      LbHandleAcquire(at, msg);
      break;
    case Message::Kind::kTransfer:
      LbHandleTransfer(at, std::move(msg));
      break;
    case Message::Kind::kEndOfQueuesAtNode:
      EndHandleSignal(at, msg);
      break;
    case Message::Kind::kDrainCheck:
      EndHandleDrainCheck(at, msg);
      break;
    case Message::Kind::kDrainConfirm:
      EndHandleDrainConfirm(at, msg);
      break;
    case Message::Kind::kOperatorEnded:
      EndHandleEnded(at, msg);
      break;
  }
}

// ---------------------------------------------------------------------
// Worker support.
// ---------------------------------------------------------------------

void Engine::OnFrameStart(NodeId n, OpId op) {
  nodes_[n]->inflight[op] += 1;
}

void Engine::OnFrameDone(NodeId n, OpId op, SimTime burst_end) {
  SmNode& nd = *nodes_[n];
  HIERDB_CHECK(nd.inflight[op] > 0, "inflight underflow");
  nd.inflight[op] -= 1;
  if (strategy_ == Strategy::kSP) {
    SpOnTriggerDone(compiled_->op(op).def.chain, burst_end);
    return;
  }
  CheckLocalEnd(n, op);
  TryConfirmDrain(n, op);
}

void Engine::KickAllWorkers(NodeId n) {
  for (auto& w : nodes_[n]->workers) w->Kick();
}

void Engine::RebuildActiveList(NodeId n) {
  SmNode& nd = *nodes_[n];
  nd.active_list.clear();
  for (OpId o = 0; o < compiled_->num_ops(); ++o) {
    if (!nd.op_unblocked[o] || nd.op_ended[o]) continue;
    for (auto& q : nd.queues[o]) {
      if (q) nd.active_list.push_back(q.get());
    }
  }
  nd.start_pos.assign(nd.workers.size(), 0);
  for (uint32_t t = 0; t < nd.workers.size(); ++t) {
    for (size_t i = 0; i < nd.active_list.size(); ++i) {
      if (nd.active_list[i]->owner_thread() == t) {
        nd.start_pos[t] = i;
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------
// SP chain tracking.
// ---------------------------------------------------------------------

void Engine::SpPublishCpuBatches(NodeId n, const Activation& trigger) {
  SmNode& nd = *nodes_[n];
  const uint32_t chain = compiled_->op(trigger.op).def.chain;
  const uint64_t batch = cfg_.activation_batch_tuples;
  uint64_t remaining = trigger.tuples;
  auto& queues = nd.queues[trigger.op];
  while (remaining > 0) {
    Activation a;
    a.op = trigger.op;
    a.tuples = std::min(remaining, batch);
    remaining -= a.tuples;
    sp_triggers_left_[chain] += 1;
    queues[sp_rr_++ % cfg_.procs_per_node]->PushFront(a);
  }
  KickAllWorkers(n);
}

void Engine::SpOnTriggerDone(uint32_t chain_id, SimTime burst_end) {
  HIERDB_CHECK(sp_triggers_left_[chain_id] > 0, "SP trigger underflow");
  sp_chain_end_[chain_id] = std::max(sp_chain_end_[chain_id], burst_end);
  if (--sp_triggers_left_[chain_id] > 0) return;
  // Chain complete: mark all of its operators ended when its last burst
  // does (every burst of the chain ends by then).
  for (OpId o : compiled_->plan().chains[chain_id].ops) {
    MarkOpEndedEverywhere(o, sp_chain_end_[chain_id]);
  }
  ++sp_chain_cursor_;
  if (!done_) {
    for (auto& nd : nodes_) KickAllWorkers(nd->id);
  }
}

void Engine::MarkOpEndedEverywhere(OpId op, SimTime at) {
  if (op_globally_ended_[op]) return;
  op_globally_ended_[op] = 1;
  metrics_.op_end_time[op] = at;
  for (auto& nd : nodes_) nd->op_ended[op] = 1;
  if (++ops_ended_count_ == compiled_->num_ops()) {
    done_ = true;
    // An earlier chain's last burst may outlast a short final chain.
    metrics_.response_time = *std::max_element(metrics_.op_end_time.begin(),
                                               metrics_.op_end_time.end());
  }
}

// ---------------------------------------------------------------------
// Finalization.
// ---------------------------------------------------------------------

void Engine::FinalizeMetrics() {
  metrics_.threads = cfg_.num_nodes * cfg_.procs_per_node;
  metrics_.busy_ns_total = 0;
  metrics_.scheduler_busy_ns = 0;
  for (auto& nd : nodes_) {
    for (auto& w : nd->workers) metrics_.busy_ns_total += w->busy_ns();
    metrics_.scheduler_busy_ns += nd->scheduler_busy_ns;
  }
  metrics_.net = net_->stats();
  uint64_t pages = 0, reqs = 0;
  for (auto& nd : nodes_) {
    pages += nd->disks->total_pages_read();
  }
  metrics_.pages_read = pages;
  (void)reqs;
  if (metrics_.response_time == 0) metrics_.response_time = sim_.Now();
}

Status Engine::VerifyConservation() const {
  if (strategy_ == Strategy::kSP) {
    // SP collapses chains; only scan-level conservation applies.
    for (OpId o = 0; o < compiled_->num_ops(); ++o) {
      const CompiledOp& cop = compiled_->op(o);
      if (!cop.def.IsScan()) continue;
      if (metrics_.op_tuples_in[o] != cop.in_tuples) {
        return Status::Internal("SP scan tuple conservation violated");
      }
    }
    return Status::OK();
  }
  for (OpId o = 0; o < compiled_->num_ops(); ++o) {
    const CompiledOp& cop = compiled_->op(o);
    if (metrics_.op_tuples_in[o] != cop.in_tuples) {
      std::ostringstream os;
      os << "tuple conservation violated at op " << cop.def.label
         << ": processed " << metrics_.op_tuples_in[o] << " of "
         << cop.in_tuples;
      return Status::Internal(os.str());
    }
  }
  return Status::OK();
}

}  // namespace hierdb::exec
