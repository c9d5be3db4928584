#include "simmpi/comm.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/log.hpp"

namespace ftmr::simmpi {

namespace {

double log2ceil(int p) noexcept {
  return p > 1 ? std::ceil(std::log2(static_cast<double>(p))) : 0.0;
}

// Tolerant-op namespaces for collective slot keys (see comm.hpp: shrink and
// agree rendezvous by shared epoch, not per-rank sequence, so ranks whose
// op counts diverged after a failure still meet in the same slot).
constexpr uint64_t kNsNormal = 0;
constexpr uint64_t kNsShrink = 1;
constexpr uint64_t kNsAgree = 2;

uint64_t slot_seq(uint64_t ns, uint64_t n) noexcept { return (ns << 56) | n; }

// Cooperative-progress guard for the non-blocking query ops (iprobe,
// failure/revocation observation, clock reads). User and engine code spins
// on these — `while (failed_ranks().empty()) {}` — and under cooperative
// scheduling such a loop would otherwise pin its worker and starve the very
// fibers whose progress would terminate it (with preemptive thread-per-rank
// the OS forced fairness; the scheduler needs the op itself to yield).
void cooperative_yield(Job* job) { job->sched->yield(); }

// A new communicator's ctx, as the result payload of dup/split/shrink.
Bytes ctx_bytes(uint64_t ctx) {
  ByteWriter w;
  w.put<uint64_t>(ctx);
  return std::move(w).take();
}

using Member = CollectiveSlot::Member;

// A picked-up result: this rank's copy of the shared one, or its own.
Bytes take_result(Job::Pickup& mine) {
  return mine.shared_result ? *mine.shared_result : std::move(mine.result);
}

template <typename T>
T apply_op(ReduceOp op, T a, T b) noexcept {
  switch (op) {
    case ReduceOp::kSum: return a + b;
    case ReduceOp::kMin: return std::min(a, b);
    case ReduceOp::kMax: return std::max(a, b);
    case ReduceOp::kLand: return static_cast<T>((a != T{}) && (b != T{}));
    case ReduceOp::kLor: return static_cast<T>((a != T{}) || (b != T{}));
  }
  return a;
}

}  // namespace

Comm::Comm(Job* job, std::shared_ptr<CommState> state, int global_rank)
    : job_(job), state_(std::move(state)), global_rank_(global_rank) {
  rel_rank_ = state_ ? state_->rel_rank_of(global_rank) : -1;
}

Status Comm::handle(Status s) {
  if (s.ok() || !errhandler_) return s;
  errhandler_(*this, s);
  return s;
}

double Comm::now() const {
  MutexLock lock(job_->mu);
  return job_->ranks[global_rank_].vtime;
}

int64_t Comm::ops_issued() const {
  if (job_ == nullptr) return -1;
  MutexLock lock(job_->mu);
  return job_->ranks[global_rank_].op_count;
}

void Comm::compute(double seconds) {
  MutexLock lock(job_->mu);
  job_->check_callable_locked(global_rank_);
  job_->ranks[global_rank_].vtime += seconds;
  job_->check_vtime_kill_locked(global_rank_);
}

void Comm::abort(int code) {
  FTMR_INFO << "rank " << global_rank_ << " calls MPI_Abort(" << code << ")";
  job_->abort_job(code);
  throw AbortError(code);
}

// ---------------------------------------------------------------------------
// point-to-point
// ---------------------------------------------------------------------------

Status Comm::send(int dst, int tag, std::span<const std::byte> data) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  if (Status s = job_->peer_status_locked(*state_, dst, "send"); !s.ok()) {
    lock.unlock();
    return handle(std::move(s));
  }
  const int dst_global = state_->group[dst];
  RankState& me = job_->ranks[global_rank_];
  double arrival = 0.0;
  if (state_->accounts_time) {
    // Eager protocol: sender pays serialization, wire adds latency.
    me.vtime += static_cast<double>(data.size()) / job_->opts.net.bandwidth_Bps;
    arrival = me.vtime + job_->opts.net.latency_s;
  }
  Message msg;
  msg.ctx = state_->ctx;
  msg.src_rel = rel_rank_;
  msg.tag = tag;
  msg.payload.assign(data.begin(), data.end());
  msg.arrival = arrival;
  // Batched delivery: stage into the destination's inbox. A wakeup is
  // issued only when the receiver has published its intent to park
  // (inbox.waiting), and clearing the flag here makes the *first* send of
  // a batch pay the wakeup while the rest just append — the receiver
  // splices the entire batch in one drain.
  bool need_wake = false;
  {
    Inbox& inbox = *job_->inboxes[dst_global];
    MutexLock il(inbox.mu);
    inbox.staged.push_back(std::move(msg));
    need_wake = inbox.waiting;
    inbox.waiting = false;
  }
  lock.unlock();
  if (need_wake) job_->wake_recv(dst_global);
  job_->check_vtime_kill(global_rank_);
  return Status::Ok();
}

Status Comm::send_string(int dst, int tag, std::string_view s) {
  return send(dst, tag, as_bytes_view(s));
}

// One-sided ops: the wire handshake only. The caller moves the actual
// bytes through the external replica store after the op returns OK, so a
// kill that lands on the op (it is counted, hence addressable by
// KillEvent::after_ops) leaves no partial deposit behind.

Status Comm::rma_put(int dst, size_t bytes) {
  return rma_handshake(dst, bytes, "rma_put");
}

Status Comm::rma_get(int src, size_t bytes) {
  return rma_handshake(src, bytes, "rma_get");
}

Status Comm::rma_handshake(int peer, size_t bytes, std::string_view op) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  if (Status s = job_->peer_status_locked(*state_, peer, op); !s.ok()) {
    lock.unlock();
    return handle(std::move(s));
  }
  if (state_->accounts_time) {
    job_->ranks[global_rank_].vtime += job_->opts.net.point_to_point_cost(bytes);
  }
  lock.unlock();
  job_->check_vtime_kill(global_rank_);
  return Status::Ok();
}

Status Comm::recv(int src, int tag, Bytes& out, MessageInfo* info) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  RankState& me = job_->ranks[global_rank_];
  Inbox& inbox = *job_->inboxes[global_rank_];
  for (;;) {
    job_->check_callable_locked(global_rank_);
    // 1) a buffered matching message is deliverable even if the sender has
    //    since died (eager buffering survives the sender).
    if (auto it = job_->match_message_locked(global_rank_, state_->ctx, src, tag, info);
        it != me.mailbox.end()) {
      out = std::move(it->payload);
      if (state_->accounts_time) me.vtime = std::max(me.vtime, it->arrival);
      me.mailbox.erase(it);
      lock.unlock();
      job_->check_vtime_kill(global_rank_);
      return Status::Ok();
    }
    // 2) otherwise fail on revocation / peer death.
    if (state_->revoked) {
      lock.unlock();
      return handle({ErrorCode::kRevoked, "recv on revoked comm"});
    }
    if (src != kAnySource) {
      const int src_global = state_->group[src];
      if (!job_->ranks[src_global].alive) {
        lock.unlock();
        return handle({ErrorCode::kProcFailed, "recv: peer is dead"});
      }
    } else {
      // ULFM semantics: a wildcard receive cannot complete while there are
      // un-acknowledged failures in the communicator.
      if (!job_->unacked_dead_locked(global_rank_, *state_).empty()) {
        lock.unlock();
        return handle({ErrorCode::kProcFailedPending,
                       "recv(ANY_SOURCE) with un-acked failures"});
      }
    }
    // 3) two-phase park: publish the intent to sleep, re-check for sends
    //    staged in between, then block. The first sender to stage after
    //    `waiting` is set clears it and issues exactly one wakeup (a wake
    //    racing the park itself is latched on the channel).
    {
      MutexLock il(inbox.mu);
      if (!inbox.staged.empty()) continue;
      inbox.waiting = true;
    }
    if (job_->wait_blocked(job_->recv_ch[global_rank_])) {
      lock.unlock();
      return handle({ErrorCode::kInternal, "recv: deadlock timeout"});
    }
  }
}

bool Comm::iprobe(int src, int tag, MessageInfo* info) {
  job_->check_callable(global_rank_);
  {
    MutexLock lock(job_->mu);
    const auto& box = job_->ranks[global_rank_].mailbox;
    if (auto it = job_->match_message_locked(global_rank_, state_->ctx, src, tag, info);
        it != box.end()) {
      return true;
    }
  }
  // Miss: yield (outside the lock) so the peers a spinning prober is
  // waiting on get scheduled. A hit must NOT yield — drain loops probe
  // millions of times and each hit is immediately followed by a recv.
  cooperative_yield(job_);
  return false;
}

// ---------------------------------------------------------------------------
// nonblocking point-to-point
// ---------------------------------------------------------------------------

struct Request::State {
  bool done = false;
  Status status;
  // Pending receive parameters (unused for sends, which complete eagerly).
  bool is_recv = false;
  Comm comm;
  int src = kAnySource;
  int tag = kAnyTag;
  Bytes* out = nullptr;
  MessageInfo* info = nullptr;
};

bool Request::done() const { return !state_ || state_->done; }

Status Request::status() const { return state_ ? state_->status : Status::Ok(); }

bool Request::test() {
  if (!state_ || state_->done) return true;
  if (!state_->is_recv) {
    state_->done = true;
    return true;
  }
  MessageInfo probe;
  if (!state_->comm.iprobe(state_->src, state_->tag, &probe)) return false;
  // A matching message is buffered: the blocking recv returns immediately.
  state_->status =
      state_->comm.recv(probe.source, probe.tag, *state_->out, state_->info);
  state_->done = true;
  return true;
}

Status Request::wait() {
  if (!state_ || state_->done) return status();
  if (state_->is_recv) {
    state_->status = state_->comm.recv(state_->src, state_->tag, *state_->out,
                                       state_->info);
  }
  state_->done = true;
  return state_->status;
}

Status Request::wait_all(std::span<Request> requests) {
  Status first;
  for (Request& r : requests) {
    Status s = r.wait();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Request Comm::isend(int dst, int tag, std::span<const std::byte> data) {
  Request r;
  r.state_ = std::make_shared<Request::State>();
  // Eager buffering: the send happens now; the request carries its status.
  r.state_->status = send(dst, tag, data);
  r.state_->done = true;
  return r;
}

Request Comm::irecv(int src, int tag, Bytes* out, MessageInfo* info) {
  Request r;
  r.state_ = std::make_shared<Request::State>();
  r.state_->is_recv = true;
  r.state_->comm = *this;
  r.state_->src = src;
  r.state_->tag = tag;
  r.state_->out = out;
  r.state_->info = info;
  return r;
}

// ---------------------------------------------------------------------------
// the collective rendezvous: join, settle, compute once, pick up
// ---------------------------------------------------------------------------

Status Comm::run_collective(const CollectiveSig& sig, Bytes contribution,
                            const CollectiveCompute& compute, Bytes* result_out,
                            std::vector<Bytes>* row) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  if (state_->revoked) {
    lock.unlock();
    return handle({ErrorCode::kRevoked, "collective on revoked comm"});
  }
  const uint64_t seq = job_->ranks[global_rank_].coll_seq[state_->ctx]++;
  const SlotKey key{state_->ctx, slot_seq(kNsNormal, seq)};
  auto slot = job_->join_slot_locked(key, *state_, rel_rank_, sig, std::move(contribution));
  if (row) slot->members[rel_rank_].row = std::move(*row);

  for (;;) {
    job_->check_callable_locked(global_rank_);
    if (state_->revoked && !slot->computed) {
      lock.unlock();
      return handle({ErrorCode::kRevoked, "collective interrupted by revoke"});
    }
    if (slot->computed) break;
    if (job_->settled_locked(*slot, *state_)) {
      // A dead member fails the collective for every participant, and
      // mismatched signatures skip compute so no payload is decoded as the
      // wrong collective's.
      if (job_->any_dead_in_locked(*state_)) {
        slot->failed = true;
      } else if (!slot->mismatched) {
        compute(*slot, *state_, *job_);
      }
      slot->computed = true;
      job_->slots.erase(key);
      job_->wake_channel(slot->ch);
      break;
    }
    if (job_->wait_blocked(slot->ch)) {
      lock.unlock();
      return handle({ErrorCode::kInternal, "collective: deadlock timeout"});
    }
  }

  const bool mismatched = slot->mismatched;
  Job::Pickup mine = job_->pickup_locked(*slot, *state_, rel_rank_);
  lock.unlock();
  job_->check_vtime_kill(global_rank_);
  if (mismatched) {
    return handle({ErrorCode::kInternal,
                   "collective: ranks issued different collectives, roots, ops or "
                   "counts at one position"});
  }
  if (mine.failed) {
    return handle({ErrorCode::kProcFailed, "collective: participant died"});
  }
  if (result_out) *result_out = take_result(mine);
  if (row) *row = std::move(mine.row);
  return Status::Ok();
}

// Tolerant rendezvous used by shrink/agree: ranks meet by a shared epoch
// (one counter per op namespace per comm, see Job::tol_epochs), not by
// per-rank sequence numbers — survivors whose op streams diverged after a
// failure still pair up. The epoch is bumped by whichever rank computes the
// slot, inside the same critical section, so a rank entering afterwards
// joins the *next* logical operation.
Status Comm::run_tolerant(uint64_t ns, CollectiveKind kind, Bytes contribution,
                          const CollectiveCompute& compute, Bytes* result_out) {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  const SlotKey epoch_key{state_->ctx, ns};
  const uint64_t epoch = job_->tol_epochs[epoch_key];
  const SlotKey key{state_->ctx, slot_seq(ns, epoch)};
  auto slot = job_->join_slot_locked(key, *state_, rel_rank_, CollectiveSig{kind},
                                     std::move(contribution));

  for (;;) {
    job_->check_callable_locked(global_rank_);
    if (slot->computed) break;
    if (job_->settled_locked(*slot, *state_)) {
      // A dead member never fails the slot: compute runs over what arrived.
      compute(*slot, *state_, *job_);
      slot->computed = true;
      job_->slots.erase(key);
      job_->tol_epochs[epoch_key] = epoch + 1;
      job_->wake_channel(slot->ch);
      break;
    }
    if (job_->wait_blocked(slot->ch)) {
      lock.unlock();
      return handle({ErrorCode::kInternal, "tolerant collective: deadlock timeout"});
    }
  }

  Job::Pickup mine = job_->pickup_locked(*slot, *state_, rel_rank_);
  lock.unlock();
  job_->check_vtime_kill(global_rank_);
  if (result_out) *result_out = take_result(mine);
  return Status::Ok();
}

Status Comm::bind_new_comm(const Bytes& result, Comm& out) {
  ByteReader reader(result);
  uint64_t ctx = 0;
  (void)reader.get(ctx);
  if (ctx == 0) {  // split's MPI_UNDEFINED color: no communicator
    out = Comm();
    return Status::Ok();
  }
  MutexLock lock(job_->mu);
  out = Comm(job_, job_->comms.at(ctx), global_rank_);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// the concrete collectives
// ---------------------------------------------------------------------------

Status Comm::barrier() {
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job&) {
    slot.finish_all(slot.latest_arrival() + alpha * log2ceil(cs.size()));
  };
  return run_collective({CollectiveKind::kBarrier}, {}, compute,
                        nullptr);
}

Status Comm::bcast(int root, Bytes& data) {
  if (root < 0 || root >= size()) {
    return handle({ErrorCode::kInvalidArgument, "bcast: bad root"});
  }
  Bytes contribution = (rel_rank_ == root) ? data : Bytes{};
  const NetworkModel net = job_->opts.net;
  auto compute = [root, net](CollectiveSlot& slot, const CommState& cs, Job&) {
    Bytes& payload = slot.members[root].contrib;
    const double t =
        slot.latest_arrival() +
        log2ceil(cs.size()) *
            (net.latency_s + static_cast<double>(payload.size()) / net.bandwidth_Bps);
    slot.finish_all(t, std::move(payload));
  };
  Bytes result;
  Status s = run_collective({CollectiveKind::kBcast, root}, std::move(contribution),
                            compute, &result);
  if (s.ok()) data = std::move(result);
  return s;
}

template <typename T>
Status Comm::reduce_impl(int root, ReduceOp op, std::span<const T> in,
                         std::vector<T>& out, bool to_all) {
  if (root < 0 || root >= size()) {
    return handle({ErrorCode::kInvalidArgument, "reduce: bad root"});
  }
  ByteWriter w;
  w.put<uint64_t>(in.size());
  for (const T& v : in) w.put(v);
  const NetworkModel net = job_->opts.net;
  auto compute = [root, op, net, to_all](CollectiveSlot& slot, const CommState& cs,
                                         Job&) {
    std::vector<T> acc;
    bool first = true;
    size_t payload_bytes = 0;
    // Deterministic order: reduce in rel-rank order.
    for (const Member& m : slot.members) {
      ByteReader reader(m.contrib);
      uint64_t n = 0;
      (void)reader.get(n);
      payload_bytes = std::max(payload_bytes, m.contrib.size());
      std::vector<T> vals(n);
      for (auto& v : vals) (void)reader.get(v);
      if (first) {
        acc = std::move(vals);
        first = false;
      } else {
        for (size_t i = 0; i < acc.size() && i < vals.size(); ++i) {
          acc[i] = apply_op(op, acc[i], vals[i]);
        }
      }
    }
    ByteWriter rw;
    rw.put<uint64_t>(acc.size());
    for (const T& v : acc) rw.put(v);
    Bytes result = std::move(rw).take();
    const double t =
        slot.latest_arrival() +
        (to_all ? 2.0 : 1.0) * log2ceil(cs.size()) *
            (net.latency_s + static_cast<double>(payload_bytes) / net.bandwidth_Bps);
    if (to_all) {
      slot.finish_all(t, std::move(result));
    } else {
      slot.finish_all(t);
      slot.members[root].result = std::move(result);
    }
  };
  constexpr bool kF64 = std::is_same_v<T, double>;
  const CollectiveKind kind =
      to_all ? (kF64 ? CollectiveKind::kAllreduceF64 : CollectiveKind::kAllreduceI64)
             : (kF64 ? CollectiveKind::kReduceF64 : CollectiveKind::kReduceI64);
  Bytes result;
  // The op and element count join the signature: ranks that disagree on
  // either fail instead of getting a truncated result in one rank's op.
  const CollectiveSig sig{kind, root, static_cast<int>(op), in.size()};
  Status s = run_collective(sig, std::move(w).take(), compute, &result);
  if (!s.ok()) return s;
  out.clear();
  if (!result.empty()) {
    ByteReader reader(result);
    uint64_t n = 0;
    (void)reader.get(n);
    out.resize(n);
    for (auto& v : out) (void)reader.get(v);
  }
  return Status::Ok();
}

Status Comm::reduce(int root, ReduceOp op, std::span<const double> in,
                    std::vector<double>& out) {
  return reduce_impl<double>(root, op, in, out, false);
}
Status Comm::reduce(int root, ReduceOp op, std::span<const int64_t> in,
                    std::vector<int64_t>& out) {
  return reduce_impl<int64_t>(root, op, in, out, false);
}
Status Comm::allreduce(ReduceOp op, std::span<const double> in,
                       std::vector<double>& out) {
  return reduce_impl<double>(0, op, in, out, true);
}
Status Comm::allreduce(ReduceOp op, std::span<const int64_t> in,
                       std::vector<int64_t>& out) {
  return reduce_impl<int64_t>(0, op, in, out, true);
}
Status Comm::allreduce_one(ReduceOp op, double in, double& out) {
  std::vector<double> v;
  Status s = allreduce(op, std::span<const double>(&in, 1), v);
  if (s.ok() && !v.empty()) out = v[0];
  return s;
}
Status Comm::allreduce_one(ReduceOp op, int64_t in, int64_t& out) {
  std::vector<int64_t> v;
  Status s = allreduce(op, std::span<const int64_t>(&in, 1), v);
  if (s.ok() && !v.empty()) out = v[0];
  return s;
}

Status Comm::gather(int root, std::span<const std::byte> in, std::vector<Bytes>& out) {
  return gather_impl(root, in, out, false);
}

Status Comm::allgather(std::span<const std::byte> in, std::vector<Bytes>& out) {
  return gather_impl(0, in, out, true);
}

Status Comm::gather_impl(int root, std::span<const std::byte> in,
                         std::vector<Bytes>& out, bool to_all) {
  if (root < 0 || root >= size()) {
    return handle({ErrorCode::kInvalidArgument, "gather: bad root"});
  }
  const NetworkModel net = job_->opts.net;
  const int p = size();
  auto compute = [root, net, p, to_all](CollectiveSlot& slot, const CommState& cs, Job&) {
    ByteWriter w;
    w.put<uint32_t>(static_cast<uint32_t>(p));
    size_t total = 0;
    for (const Member& m : slot.members) {
      w.put_blob(m.contrib);
      total += m.contrib.size();
    }
    Bytes result = std::move(w).take();
    const double t = slot.latest_arrival();
    const double hops = log2ceil(cs.size()) * net.latency_s;
    if (to_all) {
      // Everyone receives all `total` bytes: t + (hops + total/bw).
      slot.finish_all(t + (hops + static_cast<double>(total) / net.bandwidth_Bps),
                      std::move(result));
      return;
    }
    // The root receives `total` bytes, every other rank sends its own:
    // (t + hops) + bytes/bw.
    for (int r = 0; r < p; ++r) {
      Member& m = slot.members[r];
      const size_t bytes = r == root ? total : m.contrib.size();
      m.done_vtime = (t + hops) + static_cast<double>(bytes) / net.bandwidth_Bps;
    }
    slot.members[root].result = std::move(result);
  };
  Bytes result;
  Status s = run_collective({to_all ? CollectiveKind::kAllgather : CollectiveKind::kGather,
                             root},
                            Bytes(in.begin(), in.end()), compute, &result);
  if (!s.ok()) return s;
  out.clear();
  if (!result.empty()) {
    ByteReader reader(result);
    uint32_t n = 0;
    (void)reader.get(n);
    out.resize(n);
    for (auto& b : out) (void)reader.get_blob(b);
  }
  return Status::Ok();
}

Status Comm::alltoall(std::vector<Bytes> send, std::vector<Bytes>& recv) {
  const int p = size();
  if (static_cast<int>(send.size()) != p) {
    return handle({ErrorCode::kInvalidArgument, "alltoall: send.size() != comm size"});
  }
  const NetworkModel net = job_->opts.net;
  auto compute = [net](CollectiveSlot& slot, const CommState& cs, Job&) {
    std::vector<Member>& m = slot.members;
    // Byte counts first: what each rank sends plus what it receives.
    std::vector<size_t> moved(m.size(), 0);
    for (size_t src = 0; src < m.size(); ++src) {
      for (size_t dst = 0; dst < m.size(); ++dst) {
        moved[src] += m[src].row[dst].size();
        moved[dst] += m[src].row[dst].size();
      }
    }
    const double t0 = slot.latest_arrival();
    // Transpose in place: swapping blob [i][j] with [j][i] turns each row
    // into its receive column without copying a byte.
    for (size_t i = 0; i < m.size(); ++i) {
      for (size_t j = i + 1; j < m.size(); ++j) std::swap(m[i].row[j], m[j].row[i]);
    }
    for (size_t r = 0; r < m.size(); ++r) {
      m[r].done_vtime = t0 + static_cast<double>(cs.size()) * net.latency_s +
                        static_cast<double>(moved[r]) / net.bandwidth_Bps;
    }
  };
  Status s = run_collective({CollectiveKind::kAlltoall}, {},
                            compute, nullptr, &send);
  if (!s.ok()) return s;
  recv = std::move(send);
  return Status::Ok();
}

Status Comm::dup(Comm& out, bool accounts_time) {
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha, accounts_time](CollectiveSlot& slot, const CommState& cs,
                                        Job& job) {
    job.mu.assert_held();  // compute callbacks run inside run_collective's CS
    slot.finish_all(slot.latest_arrival() + alpha * log2ceil(cs.size()),
                    ctx_bytes(job.register_comm_locked(cs.group, accounts_time)));
  };
  Bytes result;
  Status s = run_collective({CollectiveKind::kDup}, {}, compute,
                            &result);
  if (!s.ok()) return s;
  return bind_new_comm(result, out);
}

Status Comm::split(int color, int key, Comm& out) {
  ByteWriter w;
  w.put<int32_t>(color);
  w.put<int32_t>(key);
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job& job) {
    job.mu.assert_held();  // compute callbacks run inside run_collective's CS
    // (color, key, old rel rank) triples, grouped by color.
    struct Entry {
      int color, key, rel;
    };
    std::vector<Entry> entries;
    for (int r = 0; r < cs.size(); ++r) {
      ByteReader reader(slot.members[r].contrib);
      int32_t col = 0, k = 0;
      (void)reader.get(col);
      (void)reader.get(k);
      entries.push_back({col, k, r});
    }
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      if (a.color != b.color) return a.color < b.color;
      if (a.key != b.key) return a.key < b.key;
      return a.rel < b.rel;
    });
    std::map<int, uint64_t> ctx_of_color;
    for (const Entry& e : entries) {
      if (e.color < 0) continue;  // MPI_UNDEFINED
      if (!ctx_of_color.count(e.color)) {
        std::vector<int> group;
        for (const Entry& e2 : entries) {
          if (e2.color == e.color) group.push_back(cs.group[e2.rel]);
        }
        ctx_of_color[e.color] =
            job.register_comm_locked(std::move(group), cs.accounts_time);
      }
    }
    slot.finish_all(slot.latest_arrival() + alpha * log2ceil(cs.size()));
    for (const Entry& e : entries) {
      slot.members[e.rel].result = ctx_bytes(e.color >= 0 ? ctx_of_color[e.color] : 0);
    }
  };
  Bytes result;
  Status s = run_collective({CollectiveKind::kSplit},
                            std::move(w).take(), compute, &result);
  if (!s.ok()) return s;
  return bind_new_comm(result, out);
}

// ---------------------------------------------------------------------------
// ULFM extensions
// ---------------------------------------------------------------------------

Status Comm::revoke() {
  job_->check_callable(global_rank_);
  MutexLock lock(job_->mu);
  if (!state_->revoked) {
    FTMR_INFO << "rank " << global_rank_ << " revokes comm ctx=" << state_->ctx;
    state_->revoked = true;
  }
  // Revocation interrupts recvs and collectives on every channel: broadcast.
  job_->wake_all();
  return Status::Ok();
}

bool Comm::is_revoked() const {
  cooperative_yield(job_);
  MutexLock lock(job_->mu);
  return state_->revoked;
}

Status Comm::shrink(Comm& out) {
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job& job) {
    job.mu.assert_held();  // compute callbacks run inside run_tolerant's CS
    // Build the shrunken communicator from alive contributors, ordered by
    // old rel rank (dense new ranks) — ULFM MPI_Comm_shrink semantics.
    std::vector<int> group;
    for (int rel = 0; rel < cs.size(); ++rel) {
      const int g = cs.group[rel];
      if (job.ranks[g].alive && slot.members[rel].arrived) group.push_back(g);
    }
    // ~agreement-protocol rounds
    slot.finish_all(slot.latest_arrival() + 3.0 * alpha * log2ceil(cs.size()),
                    ctx_bytes(job.register_comm_locked(std::move(group),
                                                       cs.accounts_time)));
  };
  Bytes result;
  Status s = run_tolerant(kNsShrink, CollectiveKind::kShrink, {}, compute, &result);
  if (!s.ok()) return s;
  return bind_new_comm(result, out);
}

Status Comm::agree(int& flag) {
  ByteWriter w;
  w.put<int32_t>(flag);
  const double alpha = job_->opts.net.latency_s;
  auto compute = [alpha](CollectiveSlot& slot, const CommState& cs, Job&) {
    int32_t acc = ~0;
    for (const Member& m : slot.members) {
      if (!m.arrived) continue;  // died before arriving
      ByteReader reader(m.contrib);
      int32_t v = 0;
      (void)reader.get(v);
      acc &= v;
    }
    ByteWriter rw;
    rw.put<int32_t>(acc);
    slot.finish_all(slot.latest_arrival() + 3.0 * alpha * log2ceil(cs.size()),
                    std::move(rw).take());
  };
  Bytes result;
  Status s = run_tolerant(kNsAgree, CollectiveKind::kAgree, std::move(w).take(), compute,
                          &result);
  if (!s.ok()) return s;
  ByteReader reader(result);
  int32_t v = 0;
  (void)reader.get(v);
  flag = v;
  bool unacked = false;
  {
    MutexLock lock(job_->mu);
    unacked = !job_->unacked_dead_locked(global_rank_, *state_).empty();
  }
  if (unacked) {
    // ULFM: the agreed flag is valid, but the caller is told about the
    // failures it has not yet acknowledged. Deliberately NOT routed through
    // the error handler: agree is itself a recovery primitive.
    return {ErrorCode::kProcFailed, "agree: un-acked failures present"};
  }
  return Status::Ok();
}

void Comm::ack_failures() {
  MutexLock lock(job_->mu);
  job_->ranks[global_rank_].acked[state_->ctx] = job_->dead_in_locked(*state_);
}

std::vector<int> Comm::failed_ranks() const {
  cooperative_yield(job_);
  MutexLock lock(job_->mu);
  std::vector<int> out;
  for (int rel = 0; rel < state_->size(); ++rel) {
    if (!job_->ranks[state_->group[rel]].alive) out.push_back(rel);
  }
  return out;
}

std::vector<int> Comm::failed_global_ranks() const {
  cooperative_yield(job_);
  MutexLock lock(job_->mu);
  return job_->dead_in_locked(*state_);
}

}  // namespace ftmr::simmpi
