// comm.hpp — the communicator: the public face of the simulated MPI+ULFM.
//
// The API mirrors the MPI calls FT-MRMPI uses, in C++ clothing:
//   send/recv/iprobe          -> MPI_Send / MPI_Recv / MPI_Iprobe
//   barrier/bcast/reduce/...  -> the corresponding MPI collectives
//   alltoall (v-semantics)    -> MPI_Alltoallv, the shuffle workhorse
//   set_error_handler         -> MPI_Comm_set_errhandler (FT-MRMPI's
//                                FailureHandler hooks in here, Sec. 4.1)
//   abort                     -> MPI_Abort + process-manager broadcast
//   revoke/shrink/agree/ack   -> ULFM MPI_Comm_revoke / _shrink / _agree /
//                                _failure_ack (Sec. 4.2.1)
//
// All blocking calls return Status; error classes match the MPI/ULFM ones
// (PROC_FAILED, REVOKED, ...). A registered error handler is invoked on any
// error before the call returns — it may throw to unwind into recovery
// code, exactly how FT-MRMPI's handler transfers control.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "simmpi/job.hpp"
#include "simmpi/types.hpp"

namespace ftmr::simmpi {

class Comm;

/// Handle for a nonblocking operation (MPI_Request analogue). Sends
/// complete eagerly; receives complete when a matching message is
/// consumed by test()/wait(). Value-semantic; copies share completion
/// state.
class Request {
 public:
  Request() = default;

  /// Attempt completion without blocking; true once complete.
  bool test();
  /// Block until complete; returns the operation's status.
  Status wait() FTMR_MAY_PARK;
  [[nodiscard]] bool done() const;
  /// Status observed so far (meaningful once done()).
  [[nodiscard]] Status status() const;

  /// MPI_Waitall: wait on every request; returns the first non-OK status.
  static Status wait_all(std::span<Request> requests) FTMR_MAY_PARK;

 private:
  friend class Comm;
  struct State;
  std::shared_ptr<State> state_;
};

class Comm {
 public:
  using ErrorHandler = std::function<void(Comm&, const Status&)>;

  Comm() = default;
  Comm(Job* job, std::shared_ptr<CommState> state, int global_rank);

  [[nodiscard]] bool valid() const noexcept { return job_ != nullptr; }
  [[nodiscard]] int rank() const noexcept { return rel_rank_; }
  [[nodiscard]] int size() const noexcept { return state_ ? state_->size() : 0; }
  [[nodiscard]] int global_rank() const noexcept { return global_rank_; }
  /// Comm-relative rank of a global rank (-1 if not a member).
  [[nodiscard]] int rel_of_global(int g) const noexcept {
    return state_ ? state_->rel_rank_of(g) : -1;
  }
  /// Global rank of a comm-relative rank.
  [[nodiscard]] int global_of_rel(int rel) const noexcept {
    return (state_ && rel >= 0 && rel < state_->size()) ? state_->group[rel] : -1;
  }
  [[nodiscard]] Job* job() const noexcept { return job_; }

  /// Install an error handler invoked on every non-OK status produced by an
  /// operation on this handle. It may throw to transfer control.
  void set_error_handler(ErrorHandler h) { errhandler_ = std::move(h); }

  // ---- virtual time ----

  /// This rank's virtual clock (seconds since job start).
  [[nodiscard]] double now() const;
  /// MPI operations this rank has issued so far (across all its comms —
  /// the counter is per rank, not per communicator). This is the axis
  /// KillEvent::after_ops addresses: harvesting an op index here and
  /// scheduling a kill at it reproduces the failure at the same MPI call
  /// on a deterministic rerun.
  [[nodiscard]] int64_t ops_issued() const;
  /// Advance the virtual clock by `seconds` of modeled computation. May
  /// throw KilledError if a scheduled failure time is crossed.
  void compute(double seconds);

  // ---- point-to-point ----

  Status send(int dst, int tag, std::span<const std::byte> data);
  Status send_string(int dst, int tag, std::string_view s);
  Status recv(int src, int tag, Bytes& out, MessageInfo* info = nullptr);
  /// Non-blocking probe for a matching message.
  bool iprobe(int src, int tag, MessageInfo* info = nullptr);

  /// Nonblocking send: the payload is buffered eagerly, so the request is
  /// complete on return (its status carries any delivery error).
  Request isend(int dst, int tag, std::span<const std::byte> data);
  /// Nonblocking receive into `*out` (which must outlive the request).
  Request irecv(int src, int tag, Bytes* out, MessageInfo* info = nullptr);

  // ---- one-sided (RMA) ----
  //
  // Model of MPI_Put/MPI_Get into a peer's exposed window, used by the
  // in-memory checkpoint replication tier. These charge wire time and
  // verify the target is alive (PROC_FAILED otherwise) but move no bytes
  // themselves — the caller performs the actual deposit/fetch against the
  // shared ReplicaStore after the op succeeds. Both are counted MPI ops,
  // so fault schedules can address kills inside the replication window.

  /// One-sided put handshake: `bytes` toward rank `dst`.
  Status rma_put(int dst, size_t bytes);
  /// One-sided get handshake: `bytes` from rank `src`.
  Status rma_get(int src, size_t bytes);

  // ---- collectives (blocking, all group members must call in order) ----

  Status barrier();
  /// In-place bcast: root's `data` is sent, everyone else's is replaced.
  Status bcast(int root, Bytes& data);
  Status reduce(int root, ReduceOp op, std::span<const double> in,
                std::vector<double>& out);
  Status reduce(int root, ReduceOp op, std::span<const int64_t> in,
                std::vector<int64_t>& out);
  Status allreduce(ReduceOp op, std::span<const double> in, std::vector<double>& out);
  Status allreduce(ReduceOp op, std::span<const int64_t> in, std::vector<int64_t>& out);
  Status allreduce_one(ReduceOp op, double in, double& out);
  Status allreduce_one(ReduceOp op, int64_t in, int64_t& out);
  /// Gather with per-rank sizes (MPI_Gatherv): `out[i]` = rank i's bytes
  /// (only filled at root).
  Status gather(int root, std::span<const std::byte> in, std::vector<Bytes>& out);
  Status allgather(std::span<const std::byte> in, std::vector<Bytes>& out);
  /// MPI_Alltoallv over blobs: send[j] goes to rank j; recv[i] arrives
  /// from rank i. `send` must have size() == comm size. The blobs are
  /// moved, never copied: a caller that passes std::move(send) receives the
  /// peers' own buffers. `recv` is only written on success.
  Status alltoall(std::vector<Bytes> send, std::vector<Bytes>& recv);

  Status dup(Comm& out, bool accounts_time = true);
  Status split(int color, int key, Comm& out);

  // ---- ULFM fault-tolerance extensions ----

  /// MPI_Comm_revoke: mark the communicator inoperable everywhere; wakes
  /// and fails (REVOKED) every pending op except shrink/agree.
  Status revoke();
  [[nodiscard]] bool is_revoked() const;
  /// MPI_Comm_shrink: collectively build a new communicator from the
  /// surviving members. Works on revoked comms.
  Status shrink(Comm& out);
  /// MPI_Comm_agree: fault-tolerant agreement; `flag` becomes the bitwise
  /// AND of all alive contributions. Returns PROC_FAILED (with the agreed
  /// flag still valid) if this rank has un-acked dead members.
  Status agree(int& flag);
  /// MPI_Comm_failure_ack: acknowledge currently-known failures.
  void ack_failures();
  /// Comm-relative ranks of currently dead members.
  [[nodiscard]] std::vector<int> failed_ranks() const;
  [[nodiscard]] std::vector<int> failed_global_ranks() const;

  /// MPI_Abort: tear down the whole job. Throws AbortError in this thread;
  /// every other rank throws at its next MPI call.
  [[noreturn]] void abort(int code);

 private:
  friend class Runtime;

  /// Run the error handler (if any) on a non-OK status, then return it.
  /// May-park: a user error handler may issue arbitrary MPI calls (recv,
  /// collectives), so it must never run under a live lock.
  Status handle(Status s) FTMR_MAY_PARK;

  /// A collective's completion step: runs once, on the last arriver, under
  /// Job::mu. It sets each member's done_vtime and either the slot's
  /// shared result or per-member results (CollectiveSlot::finish_all).
  /// run_collective computes only once every member has arrived;
  /// run_tolerant also computes over members that died before arriving.
  using CollectiveCompute = std::function<void(CollectiveSlot&, const CommState&, Job&)>;

  /// Generic arrival-synchronized collective (see job.hpp). It fails on a
  /// revoked comm and when a member is dead (shrink/agree use run_tolerant
  /// instead). A non-null `row` is deposited by move into this rank's
  /// Member::row and, on success only, replaced by that row after compute
  /// (alltoall's transpose). If the ranks issued different signatures
  /// (kind, root, reduce op or element count) at this position, compute
  /// never runs and every participant fails kInternal.
  Status run_collective(const CollectiveSig& sig, Bytes contribution,
                        const CollectiveCompute& compute, Bytes* result_out,
                        std::vector<Bytes>* row = nullptr);

  /// Failure-tolerant rendezvous (shrink/agree): proceeds once every *alive*
  /// member has arrived, keyed by a shared epoch rather than per-rank
  /// sequence numbers. Ignores revocation.
  Status run_tolerant(uint64_t ns, CollectiveKind kind, Bytes contribution,
                      const CollectiveCompute& compute, Bytes* result_out);

  /// Bind `out` to the communicator whose ctx is encoded in `result`
  /// (dup/split/shrink); ctx 0 yields an invalid Comm.
  Status bind_new_comm(const Bytes& result, Comm& out);

  /// rma_put/rma_get: charge the wire time of `bytes` toward live `peer`.
  Status rma_handshake(int peer, size_t bytes, std::string_view op);

  template <typename T>
  Status reduce_impl(int root, ReduceOp op, std::span<const T> in,
                     std::vector<T>& out, bool to_all);
  Status gather_impl(int root, std::span<const std::byte> in, std::vector<Bytes>& out,
                     bool to_all);

  Job* job_ = nullptr;
  std::shared_ptr<CommState> state_;
  int global_rank_ = -1;
  int rel_rank_ = -1;
  ErrorHandler errhandler_;
};

}  // namespace ftmr::simmpi
