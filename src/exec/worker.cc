// Worker threads (one per processor, Section 3.1): the dispatch loop,
// local activation selection over the circular queue list (Section 4,
// Figure 5), and the execution of activations as resumable frames whose
// blocking actions are escaped by nesting into another activation.

#include <algorithm>

#include "exec/engine.h"

namespace hierdb::exec {

namespace {
/// Blocking-escape nesting is bounded by the number of operators in
/// practice (a queue-blocked op is never re-entered); this is a safety
/// valve against pathological plans.
constexpr size_t kMaxStackDepth = 64;

enum class StepResult { kContinue, kBlockedIo, kBlockedQueue, kDone };
}  // namespace

void Worker::Kick() {
  // No-op while a continuation is already scheduled or while this worker
  // is the one running right now (events triggered by its own side
  // effects — e.g. a local enqueue — must not double-schedule it).
  if (continuation_pending_ || running_) return;
  continuation_pending_ = true;
  eng_->simulator().ScheduleAfter(0, [this]() {
    continuation_pending_ = false;
    Dispatch();
  });
}

void Worker::OnIoComplete(uint64_t frame_serial) {
  for (auto& f : stack_) {
    if (f.serial == frame_serial) {
      f.io_complete = true;
      break;
    }
  }
  Kick();
}

bool Worker::CanResumeTop() const {
  if (stack_.empty()) return false;
  const Frame& f = stack_.back();
  if (f.waiting_io) return f.io_complete;
  if (f.wait_queue != nullptr) return !f.wait_queue->Full();
  return true;
}

// Suspended frames are independent activations — the stack order is an
// artifact of the procedure-call escape, not a dependency. Blocking
// conditions clear in arbitrary order (reads complete in disk order,
// queues drain when consumers run), so when the top frame is still
// blocked but a buried frame has become resumable, rotate the resumable
// one to the top. Without this, a resumable frame buried under blocked
// ones can deadlock the node (every worker holding a blocked frame of the
// operator everyone else needs consumed).
void Worker::RotateResumableToTop() {
  if (stack_.empty() || CanResumeTop()) return;
  for (size_t i = stack_.size(); i-- > 0;) {
    const Frame& f = stack_[i];
    const bool resumable =
        f.waiting_io ? f.io_complete
                     : (f.wait_queue != nullptr && !f.wait_queue->Full());
    if (resumable) {
      std::rotate(stack_.begin() + i, stack_.begin() + i + 1, stack_.end());
      return;
    }
  }
}

void Worker::Dispatch() {
  running_ = true;
  DispatchImpl();
  running_ = false;
}

void Worker::DispatchImpl() {
  if (eng_->done()) return;
  RotateResumableToTop();
  if (CanResumeTop()) {
    RunBurst(0.0);
    return;
  }
  if (stack_.size() < kMaxStackDepth && SelectAndRun()) return;
  // Nothing to do locally. If the whole stack is empty this thread (and,
  // if all queues are dry, this SM-node) is starving: ask the scheduler
  // for global work (Section 3.2).
  if (stack_.empty()) {
    if (eng_->strategy() == Strategy::kDP) {
      // The node starves only when no unblocked queue holds work.
      bool any = false;
      for (ActivationQueue* q : eng_->node(node_).active_list) {
        if (!q->Empty()) {
          any = true;
          break;
        }
      }
      if (!any) eng_->WorkerStarving(node_, kNoOp);
    } else if (eng_->strategy() == Strategy::kFP) {
      for (OpId o : assignment_.fp_ops) {
        const CompiledOp& cop = eng_->compiled().op(o);
        SmNode& nd = eng_->node(node_);
        if (!cop.def.IsProbe()) continue;
        if (!nd.op_unblocked[o] || nd.op_ended[o] || nd.end_signaled[o]) {
          continue;
        }
        eng_->WorkerStarving(node_, o);
        break;
      }
    }
  }
  // Idle until kicked by new work, queue space, I/O or protocol events.
}

// "The procedure ProcessAnotherActivation will not consume activations of
// the same operator in order to avoid new blocking situations" (Section
// 4). The kind is part of the identity: a scan's trigger (blocks on I/O)
// and SP's shared CPU batches (never block) are different work classes.
// Exception: a bounded number of I/O-blocked triggers of the same scan may
// be nested — that is asynchronous prefetch within the I/O cache window,
// without which a thread dedicated to a scan (FP) would idle through every
// disk access.
bool Worker::OpConflictsWithStack(OpId op, bool is_trigger) const {
  const uint32_t prefetch = eng_->cfg().io_prefetch_depth;
  uint32_t same_trigger = 0;
  for (const Frame& f : stack_) {
    if (f.act.op != op || f.act.IsTrigger() != is_trigger) continue;
    if (is_trigger && f.waiting_io) {
      // Only reads still in flight occupy prefetch-window slots.
      if (!f.io_complete && ++same_trigger >= prefetch) return true;
      continue;
    }
    return true;
  }
  return false;
}

bool Worker::TryConsume(ActivationQueue* q, bool primary) {
  if (q->Empty()) return false;
  if (OpConflictsWithStack(q->op(), q->items_view().front().IsTrigger())) {
    return false;
  }

  const auto& cost = eng_->cfg().cost;
  double instr = cost.dispatch_instr;
  if (eng_->strategy() != Strategy::kSP) {
    // SP has no activation queues in the real system (procedure-call
    // pipelining over shared buffers); DP/FP pay per-queue costs.
    instr += cost.queue_op_instr;
    if (!primary) {
      instr += cost.nonprimary_latch_instr;
      ++eng_->metrics().nonprimary_consumptions;
    }
  }
  const bool was_full = q->Full();
  Frame f;
  f.act = q->Pop();
  f.serial = next_frame_serial_++;
  eng_->OnFrameStart(node_, f.act.op);
  if (was_full) {
    // Space freed: producers blocked on this queue by flow control can
    // resume their suspended frames.
    eng_->KickAllWorkers(node_);
  }
  if (q->Empty()) {
    eng_->CheckLocalEnd(node_, q->op());
  }
  stack_.push_back(std::move(f));
  RunBurst(instr);
  return true;
}

bool Worker::SelectAndRun() {
  SmNode& nd = eng_->node(node_);
  const Strategy strat = eng_->strategy();

  if (strat == Strategy::kDP) {
    const auto& list = nd.active_list;
    if (list.empty()) return false;
    const size_t start = nd.start_pos[idx_];
    const bool affinity = eng_->cfg().primary_queue_affinity;
    // Pass 1: primary queues only (queues owned by this thread); pass 2:
    // any queue of the node.
    for (int pass = affinity ? 0 : 1; pass < 2; ++pass) {
      for (size_t k = 0; k < list.size(); ++k) {
        ActivationQueue* q = list[(start + k) % list.size()];
        const bool primary = q->owner_thread() == idx_;
        if (pass == 0 && !primary) continue;
        if (TryConsume(q, primary)) return true;
      }
    }
    return false;
  }

  if (strat == Strategy::kFP) {
    for (OpId o : assignment_.fp_ops) {
      if (!nd.op_unblocked[o] || nd.op_ended[o]) continue;
      // Own queue first, then the op's other queues (intra-operator load
      // balancing), then the op's LB queue.
      auto& qs = nd.queues[o];
      if (qs[idx_] && TryConsume(qs[idx_].get(), /*primary=*/true)) {
        return true;
      }
      for (uint32_t s = 0; s < qs.size(); ++s) {
        if (s == idx_ || !qs[s]) continue;
        if (TryConsume(qs[s].get(), /*primary=*/false)) return true;
      }
    }
    return false;
  }

  // SP: consume trigger activations of the current chain's driving scan.
  const auto& order = eng_->compiled().plan().chain_order;
  if (eng_->sp_chain_cursor() >= order.size()) return false;
  const auto& chain = eng_->compiled().plan().chains[
      order[eng_->sp_chain_cursor()]];
  OpId scan = chain.ops[0];
  auto& qs = nd.queues[scan];
  if (qs[idx_] && TryConsume(qs[idx_].get(), /*primary=*/true)) return true;
  for (uint32_t s = 0; s < qs.size(); ++s) {
    if (s == idx_ || !qs[s]) continue;
    if (TryConsume(qs[s].get(), /*primary=*/false)) return true;
  }
  return false;
}

void Worker::RunBurst(double initial_instr) {
  double instr = initial_instr;
  HIERDB_CHECK(!stack_.empty(), "burst without a frame");
  const OpId burst_op = stack_.back().act.op;
  while (true) {
    Frame& f = stack_.back();
    const bool is_done = StepFrame(f, &instr);
    const StepResult r =
        is_done ? StepResult::kDone
        : (f.waiting_io && !f.io_complete) ? StepResult::kBlockedIo
                                           : StepResult::kBlockedQueue;
    if (r == StepResult::kDone) {
      Activation done_act = f.act;
      stack_.pop_back();
      ++eng_->metrics().activations_processed;
      // Under SP a trigger's tuples are re-counted by the CPU batches it
      // publishes; count them once.
      if (!(eng_->strategy() == Strategy::kSP && done_act.IsTrigger())) {
        eng_->metrics().tuples_processed += done_act.tuples;
        eng_->metrics().op_tuples_in[done_act.op] += done_act.tuples;
      }
      eng_->OnFrameDone(node_, done_act.op,
                        eng_->simulator().Now() + eng_->InstrNs(instr));
      break;
    }
    if (r == StepResult::kBlockedIo) {
      ++eng_->metrics().suspensions_io;
    } else {
      ++eng_->metrics().suspensions_queue;
    }
    break;
  }
  eng_->metrics().op_busy_ns[burst_op] +=
      static_cast<double>(eng_->InstrNs(instr));
  FinishBurst(instr);
}

void Worker::FinishBurst(double instr) {
  SimTime ns = eng_->InstrNs(instr);
  busy_ns_ += ns;
  HIERDB_CHECK(!continuation_pending_, "burst while continuation pending");
  continuation_pending_ = true;
  eng_->simulator().ScheduleAfter(ns, [this]() {
    continuation_pending_ = false;
    Dispatch();
  });
}

/// Executes frame steps until the frame blocks or completes.
/// Returns true when the frame is done.
bool Worker::StepFrame(Frame& f, double* instr) {
  Engine& e = *eng_;
  const CompiledOp& cop = e.compiled().op(f.act.op);
  const auto& cost = e.cfg().cost;
  SmNode& nd = e.node(node_);

  while (true) {
    switch (f.pc) {
      case 0: {  // start: trigger activations issue asynchronous I/O
        if (f.act.IsTrigger()) {
          *instr += e.cfg().disk.async_init_instr;
          f.waiting_io = true;
          f.io_complete = false;
          ++e.metrics().io_requests;
          Worker* self = this;
          uint64_t serial = f.serial;
          nd.disks->disk(f.act.disk).SubmitRead(
              f.act.pages,
              [self, serial]() { self->OnIoComplete(serial); });
          f.pc = 1;
          return false;  // blocked on I/O (escape via another activation)
        }
        f.pc = 1;
        break;
      }
      case 1: {  // process the activation's tuples
        f.waiting_io = false;
        if (e.strategy() == Strategy::kSP) {
          if (f.act.IsTrigger()) {
            // I/O role: the read is done; hand the tuples over as shared
            // CPU work units so that every thread of the node can pick
            // them up ([Shekita93]: CPU threads read tuples from the I/O
            // buffers and probe along the chain).
            e.SpPublishCpuBatches(node_, f.act);
          } else {
            // CPU role: carry the batch through the whole pipeline chain
            // by procedure calls — no queues, no interference.
            const SpChain& chain = e.compiled().sp_chains()[cop.def.chain];
            double t = static_cast<double>(f.act.tuples);
            for (const SpStage& st : chain.stages) {
              *instr += t * st.instr_per_tuple;
              t *= st.expansion;
            }
          }
          f.pc = 3;
          break;
        }
        switch (cop.def.kind) {
          case plan::OpKind::kScan: {
            *instr += static_cast<double>(f.act.tuples) *
                      cost.scan_instr_per_tuple;
            break;
          }
          case plan::OpKind::kBuild: {
            *instr += static_cast<double>(f.act.tuples) *
                      cost.build_instr_per_tuple;
            f.pc = 3;
            break;
          }
          case plan::OpKind::kProbe: {
            *instr += static_cast<double>(f.act.tuples) *
                      cost.probe_instr_per_tuple;
            break;
          }
          case plan::OpKind::kAggPartial: {
            // Hash + accumulate into the local partial group table.
            *instr += static_cast<double>(f.act.tuples) *
                      cost.agg_update_instr_per_tuple;
            break;
          }
          case plan::OpKind::kAggMerge: {
            // Merge repartitioned partials; result-group formation is
            // charged here (the merge is the blocking terminal).
            *instr += static_cast<double>(f.act.tuples) *
                      (cost.agg_merge_instr_per_tuple +
                       cost.result_instr_per_tuple);
            f.pc = 3;
            break;
          }
        }
        if (f.pc == 3) break;  // build: no output
        // Emit output via the operator's ledger.
        EmissionLedger* ledger = e.ledger(f.act.op);
        if (ledger != nullptr) {
          f.emissions = ledger->Emit(f.act.tuples);
          uint64_t out = 0;
          for (const auto& em : f.emissions) out += em.second;
          *instr += static_cast<double>(out) * cost.result_instr_per_tuple;
          for (const auto& em : f.emissions) {
            e.Accumulate(node_, cop.def.consumer, em.first, em.second);
          }
        } else if (cop.def.IsProbe()) {
          // Root probe: result tuples are produced for the user.
          double expansion =
              cop.in_tuples > 0 ? static_cast<double>(cop.out_tuples) /
                                      static_cast<double>(cop.in_tuples)
                                : 0.0;
          *instr += static_cast<double>(f.act.tuples) * expansion *
                    cost.result_instr_per_tuple;
          f.pc = 3;
          break;
        }
        f.pc = 2;
        break;
      }
      case 2: {  // flush emitted batches downstream (flow-controlled)
        f.wait_queue = nullptr;
        while (f.emit_idx < f.emissions.size()) {
          uint32_t b = f.emissions[f.emit_idx].first;
          ActivationQueue* full =
              e.FlushBucket(node_, cop.def.consumer, b, /*force=*/false,
                            instr);
          if (full != nullptr) {
            f.wait_queue = full;  // flow control: escape via another act
            return false;
          }
          ++f.emit_idx;
        }
        f.pc = 3;
        break;
      }
      case 3:
        return true;  // done
    }
    if (f.pc == 3) return true;
  }
}

}  // namespace hierdb::exec
