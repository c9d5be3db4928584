// job.hpp — internal shared state of one simulated MPI job.
//
// Concurrency design (CP.20/CP.22 style): one job-wide mutex guards all
// cross-rank state (mailboxes, collective slots, comm registry, liveness);
// it keeps the failure paths easy to audit. Blocking and wakeups, however,
// are *targeted*: rank fibers park on per-predicate WaitChannels (a rank's
// recv channel, a collective slot's channel) via Job::wait_blocked, and a
// state change wakes only the channel whose predicate it touched — a send
// wakes its destination, a collective arrival wakes that slot. Only rare
// global events (death, revoke, abort, rank finish) broadcast via
// Job::wake_all. Point-to-point sends additionally stage into a per-rank
// Inbox with its own small mutex, so a receiver drains a whole batch of
// pending sends with one lock acquisition and senders issue at most one
// wakeup per batch (see Inbox).
//
// Lock ordering: Job::mu -> Scheduler internals; Job::mu -> Inbox::mu.
// Inbox::mu and the scheduler mutex are never held together.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "simmpi/scheduler.hpp"
#include "simmpi/types.hpp"

namespace ftmr::simmpi {

/// An in-flight point-to-point message. `src_rel` is the sender's rank
/// *within the communicator* identified by `ctx`; matching is on
/// (ctx, src_rel, tag). `arrival` is the virtual time at which the payload
/// is fully available at the receiver (0 for non-time-accounting comms).
struct Message {
  uint64_t ctx = 0;
  int src_rel = 0;
  int tag = 0;
  Bytes payload;
  double arrival = 0.0;
};

/// Shared state of a communicator. `group[i]` is the global rank of the
/// comm-relative rank i, and `rel_of` is its inverse over every global rank
/// of the job (-1 for a non-member). Revocation (ULFM MPI_Comm_revoke) is a
/// flag here: every op except shrink/agree observes it.
///
/// Thread model: `ctx`, `group`, `rel_of` and `accounts_time` are filled by
/// Job::register_comm_locked before it publishes the CommState into
/// Job::comms and never change after, so they may be read without a lock.
/// `revoked` is mutable shared state guarded by the owning Job's `mu` — the
/// analysis cannot express a guard living in a different object, so that
/// rule is enforced by review + TSan.
struct CommState {
  uint64_t ctx = 0;
  std::vector<int> group;
  std::vector<int> rel_of;
  bool revoked = false;
  /// Master/copier-thread comms don't advance the rank's virtual clock.
  bool accounts_time = true;

  [[nodiscard]] int size() const noexcept { return static_cast<int>(group.size()); }
  [[nodiscard]] int rel_rank_of(int global_rank) const noexcept {
    // A negative rank wraps to a huge index: one bounds check covers both ends.
    return static_cast<size_t>(global_rank) < rel_of.size() ? rel_of[global_rank] : -1;
  }
};

/// Which collective a slot serves. Ranks that issue different collectives
/// at the same position on a comm meet in one slot; the kind tag turns that
/// into an error instead of one collective decoding the other's payloads.
enum class CollectiveKind : uint8_t {
  kBarrier,
  kBcast,
  kReduceF64,
  kReduceI64,
  kAllreduceF64,
  kAllreduceI64,
  kGather,
  kAllgather,
  kAlltoall,
  kDup,
  kSplit,
  kShrink,
  kAgree,
};

/// What every participant of one collective call must agree on. The first
/// arrival's signature tags the slot; an arrival with another signature
/// marks it mismatched.
struct CollectiveSig {
  /// The root of a collective that has none (barrier, alltoall, dup, ...).
  static constexpr int kNoRoot = -1;

  CollectiveKind kind{};
  int root = kNoRoot;
  /// Reduce kinds: the ReduceOp and the element count (0 for the others).
  int op = 0;
  uint64_t count = 0;

  bool operator==(const CollectiveSig&) const = default;
};

/// Rendezvous state for one arrival-synchronized collective call.
/// Keyed by (ctx, per-rank call sequence number); MPI requires all ranks to
/// issue collectives on a comm in the same order, which makes the sequence
/// number a consistent key. Shrink and agree key by a shared epoch instead
/// (see Job::tol_epochs). The slot stays in Job::slots until it is
/// computed; every participant holds its own shared_ptr and picks up from
/// that.
struct CollectiveSlot {
  /// One member of the comm, at its rel rank.
  struct Member {
    bool arrived = false;
    Bytes contrib;
    double arrive_vtime = 0.0;  // its clock at arrival
    double done_vtime = 0.0;    // its clock after the op
    Bytes result;               // a result for this member alone
    /// alltoall only: its send row on arrival, transposed in place (by
    /// swap) into its receive column by the last arriver.
    std::vector<Bytes> row;
  };
  std::vector<Member> members;  // sized to the group by the first arrival
  /// The result every member receives, when they all receive the same one.
  std::shared_ptr<const Bytes> shared_result;
  CollectiveSig sig;        // set by the first arrival
  bool mismatched = false;  // a later arrival's signature differed: no compute
  bool computed = false;
  bool failed = false;  // a participant died (fails intolerant collectives)
  /// First group index not yet arrived-or-dead. Arrivals and deaths are
  /// both monotone, so the completion predicate advances this cursor
  /// instead of rescanning the whole group: O(p) per collective.
  int scan_cursor = 0;
  /// Fibers waiting on this slot (arrivals / compute) park here, so an
  /// arrival wakes only this collective's participants, not the whole job.
  /// Waiters hold their own shared_ptr, so the slot outlives its erasure
  /// from Job::slots.
  WaitChannel ch;

  /// Latest arrival clock (0 if none): no collective completes earlier.
  [[nodiscard]] double latest_arrival() const;
  /// Every member finishes at `t`.
  void finish_all(double t);
  /// Every member finishes at `t` and receives `result`, held once.
  void finish_all(double t, Bytes result);
};

/// Collective slot key: (ctx, namespaced sequence or epoch).
using SlotKey = std::pair<uint64_t, uint64_t>;

/// Staging area for point-to-point sends to one rank. Senders append under
/// `mu` (already holding Job::mu for liveness/vtime checks) and issue a
/// wakeup only when `waiting` was set; the receiver splices the whole batch
/// into its private mailbox in one acquisition. `waiting` is the receiver's
/// published intent to park (two-phase: set waiting, re-check staged, then
/// park) — it makes "N pending sends" cost one wakeup instead of N.
struct Inbox {
  Mutex mu{"inbox.mu"};
  std::vector<Message> staged FTMR_GUARDED_BY(mu);
  bool waiting FTMR_GUARDED_BY(mu) = false;
};

/// Per-rank runtime state. Every field is guarded by the owning Job's `mu`
/// (expressed there via FTMR_GUARDED_BY on Job::ranks; access through
/// references escaping the container is covered by TSan, not the static
/// analysis).
struct RankState {
  bool alive = true;
  bool killed = false;
  bool finished = false;
  int exit_code = 0;
  double vtime = 0.0;
  int64_t op_count = 0;
  // Failure injection triggers (either may be set).
  double kill_vtime = -1.0;
  int64_t kill_after_ops = -1;
  std::deque<Message> mailbox;
  std::map<uint64_t, uint64_t> coll_seq;          // ctx -> next collective seq
  std::map<uint64_t, std::vector<int>> acked;     // ctx -> acked dead global ranks
};

/// Whole-job shared state; owned by the Runtime, outlives all rank fibers.
class Job {
 public:
  Job(int nranks, JobOptions opts);

  Job(const Job&) = delete;
  Job& operator=(const Job&) = delete;

  // ---- guarded by mu ----
  Mutex mu{"job.mu"};

  const int nranks;
  const JobOptions opts;
  /// Set by the Runtime for the duration of the run (before the worker
  /// pool starts, cleared after it joins — publication is ordered by
  /// thread creation/join, so no lock is needed). Every MPI call runs on
  /// one of its fibers, so it is never null while a rank can use it.
  Scheduler* sched = nullptr;
  /// Per-global-rank recv wait channel; sized at construction, immutable
  /// after. Channel contents are guarded by the scheduler's mutex.
  std::vector<WaitChannel> recv_ch;
  /// Per-global-rank send staging; sized at construction, immutable after.
  std::vector<std::unique_ptr<Inbox>> inboxes;
  std::vector<RankState> ranks FTMR_GUARDED_BY(mu);
  std::map<SlotKey, std::shared_ptr<CollectiveSlot>> slots FTMR_GUARDED_BY(mu);
  /// Current epoch of the tolerant collectives (shrink/agree) per
  /// (ctx, namespace). Bumped by the rank that computes a slot, in the same
  /// critical section that sets `computed` — so a rank entering afterwards
  /// always lands in the next logical operation.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> tol_epochs FTMR_GUARDED_BY(mu);
  std::map<uint64_t, std::shared_ptr<CommState>> comms FTMR_GUARDED_BY(mu);
  bool aborted FTMR_GUARDED_BY(mu) = false;
  int abort_code FTMR_GUARDED_BY(mu) = 0;
  uint64_t next_ctx FTMR_GUARDED_BY(mu) = 0;  // the world comm registers first

  // ---- helpers; "locked" variants require mu held ----

  /// Mark `rank` dead and wake everyone. Idempotent.
  void die_locked(int rank) FTMR_REQUIRES(mu);

  /// Entry check for every MPI call issued on behalf of `rank` by any of
  /// its threads: throws AbortError when the job is aborted, KilledError
  /// when the rank is (or must now become) dead. Counts the op.
  void check_callable(int rank) FTMR_EXCLUDES(mu);

  /// The abort/liveness part of check_callable, for wait loops (mu already
  /// held, op not re-counted).
  void check_callable_locked(int rank) FTMR_REQUIRES(mu);

  /// Called after advancing `rank`'s virtual clock: enforces vtime kills.
  void check_vtime_kill(int rank) FTMR_EXCLUDES(mu);
  void check_vtime_kill_locked(int rank) FTMR_REQUIRES(mu);

  /// Guard of the ops aimed at one peer (send, rma): `op` fails on a peer
  /// outside `cs`, a revoked `cs` or a dead peer. Non-parking: the caller
  /// unlocks before routing a failure through its error handler.
  [[nodiscard]] Status peer_status_locked(const CommState& cs, int peer,
                                          std::string_view op) const FTMR_REQUIRES(mu);

  /// Splice `rank`'s staged sends into its mailbox (one inbox acquisition
  /// per batch, withdrawing any intent to park), then return its first
  /// message matching (ctx, src, tag) — wildcards allowed — or
  /// mailbox.end(). A hit fills `info`. The drain moves end(): compare
  /// against an end() read after the call, never one read before it.
  std::deque<Message>::iterator match_message_locked(int rank, uint64_t ctx, int src,
                                                     int tag, MessageInfo* info)
      FTMR_REQUIRES(mu);

  /// Global ranks of dead members of `cs` (mu held).
  [[nodiscard]] std::vector<int> dead_in_locked(const CommState& cs) const
      FTMR_REQUIRES(mu);
  [[nodiscard]] bool any_dead_in_locked(const CommState& cs) const FTMR_REQUIRES(mu);

  /// Dead members not yet acked by `rank` on this comm (mu held).
  [[nodiscard]] std::vector<int> unacked_dead_locked(int rank, const CommState& cs)
      const FTMR_REQUIRES(mu);

  /// Allocate a fresh communicator context id (mu held).
  uint64_t alloc_ctx_locked() FTMR_REQUIRES(mu) { return next_ctx++; }

  /// Create and publish a communicator over `group` (global ranks, in
  /// new-rank order); returns its fresh ctx.
  uint64_t register_comm_locked(std::vector<int> group, bool accounts_time)
      FTMR_REQUIRES(mu);

  // ---- the collective rendezvous (see DESIGN.md "Collective rendezvous") ----

  /// Join: find or create the slot at `key`, tag a new slot with `sig`
  /// (or mark an existing one of another signature mismatched), and
  /// deposit comm-relative `rel`'s contribution and arrival clock.
  std::shared_ptr<CollectiveSlot> join_slot_locked(const SlotKey& key,
                                                   const CommState& cs, int rel,
                                                   const CollectiveSig& sig,
                                                   Bytes contribution) FTMR_REQUIRES(mu);

  /// Complete-check: true once every member of `cs` has arrived at `slot`
  /// or died. Advances the slot's monotone scan cursor.
  bool settled_locked(CollectiveSlot& slot, const CommState& cs) FTMR_REQUIRES(mu);

  /// What one rank takes out of a computed slot.
  struct Pickup {
    std::shared_ptr<const Bytes> shared_result;
    Bytes result;            // used when there is no shared result
    std::vector<Bytes> row;  // alltoall's receive column
    bool failed = false;
  };
  /// Pick up: take `rel`'s result and row and advance its clock to its
  /// done time.
  Pickup pickup_locked(CollectiveSlot& slot, const CommState& cs, int rel)
      FTMR_REQUIRES(mu);

  /// Trigger job-wide abort (MPI_Abort semantics).
  void abort_job(int code) FTMR_EXCLUDES(mu);

  // ---- blocking / wakeup ----

  /// Park the calling rank fiber on `ch` until a wake arrives, releasing
  /// `mu` for the duration (condition-variable style; the caller re-checks
  /// its predicate in a loop). Waiting is fiber-only: every MPI call runs
  /// on a scheduler fiber. Returns true if the wait was ended by deadlock
  /// detection / the wall-clock livelock backstop.
  bool wait_blocked(WaitChannel& ch) FTMR_REQUIRES(mu) FTMR_MAY_PARK;

  /// Wake fibers parked on `ch`. Callable with or without `mu`; the caller
  /// must have already applied its state change.
  void wake_channel(WaitChannel& ch);

  /// Wake `global_rank`'s recv channel (a message was staged for it).
  void wake_recv(int global_rank) { wake_channel(recv_ch[global_rank]); }

  /// Broadcast: wake every parked fiber. For events whose predicate spans
  /// all channels (death, revoke, abort, finish).
  void wake_all();
};

}  // namespace ftmr::simmpi
