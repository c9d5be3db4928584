// replica.hpp — the in-memory replicated checkpoint tier (Tier::kMemory).
//
// ReStore-style diskless checkpointing: each rank's framed checkpoint blobs
// are pushed into k peer ranks' RAM, so recovery after a process failure
// reads a survivor's memory at network speed instead of re-reading the
// shared file system (whose contention term dominates recovery at >=256
// writers — the Fig. 5 observation that motivates this tier).
//
// The store is a passive per-rank object map: it holds bytes and answers
// queries, but knows nothing about MPI. Wire time for remote puts/gets is
// charged by the *caller* through simmpi rma ops; the store's own TierModel
// exists for pure cost queries (bench model series) and for the local-fetch
// case where a survivor reads a replica out of its own memory.
//
// Death semantics: when a rank dies, Job's death hook calls wipe_rank(),
// which drops everything the rank held AND dead-marks it inside the store.
// The dead-mark closes the deposit/death race — a put whose rma handshake
// succeeded an instant before the target died would otherwise deposit into
// a ghost; instead it fails with kProcFailed under the same mutex that ran
// the wipe. wipe_all() resets holdings and dead-marks for the next
// checkpoint/restart incarnation.
//
// Blobs are immutable and shared: the simulated ranks live in one process,
// so a blob pushed to k holders is one run of the StorageSystem's segment
// store (segment_store.hpp), the host file every tier keeps its bytes in,
// held by k extents. A checkpoint's replicas share the run of the
// checkpoint file itself when that write persisted the whole frame. Each
// holder's copy is logically private — nothing can mutate a run, and a
// holder's death or removal drops only its extent; the last one punches
// the run out of the host file. So replicas cost the host page cache, not
// the heap.
//
// Host I/O stays outside the store's mutex: a put of bytes stashes them as
// a run before it locks, a get reads its extent after it unlocks, and a
// dropped extent is released after the mutex is. wipe_rank() runs under
// the job lock (the death hook), so it releases nothing: the dead rank's
// extents wait for the store's next put, get, remove or wipe_all().
//
// Faults are decided by the one FaultInjector (storage.hpp), on this
// tier's own stream: torn puts silently keep a strict prefix extent for
// that holder only, corrupt gets flip one bit of a private copy handed to
// the caller (the stored blob stays pristine — transient, like bus bit
// rot), clean failures return kIo. All of it feeds FaultStats so tests can
// assert the injector actually fired.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "storage/segment_store.hpp"
#include "storage/storage.hpp"

namespace ftmr::storage {

class ReplicaStore {
 public:
  using Extent = SegmentStore::Extent;

  /// A store whose replicas are extents of `segments`, which must outlive it.
  ReplicaStore(TierModel model, SegmentStore& segments)
      : model_(model), segments_(segments) {}

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  /// Deposit a blob into `holder`'s memory (overwrites any prior copy —
  /// puts are idempotent, which makes concurrent re-replication pushes
  /// harmless). Fails with kProcFailed if `holder` is dead-marked, kIo on
  /// an injected clean failure. `*sim_cost` (if non-null) gets the modeled
  /// tier time; callers that already charged wire time pass nullptr. The
  /// bytes are stored as a segment-store run of their own.
  Status put(int holder, std::string_view path, std::span<const std::byte> data,
             double* sim_cost = nullptr);
  /// Same, depositing a share of `blob` instead of a copy: no host I/O (a
  /// torn put keeps a prefix of it).
  Status put(int holder, std::string_view path, const Extent& blob,
             double* sim_cost = nullptr);

  /// Fetch a blob from `holder`'s memory. kNotFound if the holder has no
  /// copy (or was wiped), kIo on injected read failure; an injected
  /// corrupt-read flips one bit of `out` only.
  Status get(int holder, std::string_view path, Bytes& out,
             double* sim_cost = nullptr);
  /// Same, sharing the stored extent instead of reading it; an injected
  /// corrupt read hands back a private flipped copy.
  Status get(int holder, std::string_view path, Extent& out,
             double* sim_cost = nullptr);

  /// Drop one blob from one holder (no-op if absent).
  void remove(int holder, std::string_view path);

  [[nodiscard]] bool exists(int holder, std::string_view path) const;

  /// Live ranks currently holding a copy of `path`, sorted ascending.
  [[nodiscard]] std::vector<int> holders_of(std::string_view path) const;

  /// Every distinct path held anywhere, sorted (recovery enumerates this).
  [[nodiscard]] std::vector<std::string> all_paths() const;

  /// Paths `holder` currently holds, sorted (re-replication walks these).
  [[nodiscard]] std::vector<std::string> paths_held_by(int holder) const;

  [[nodiscard]] bool is_dead(int rank) const;

  /// Rank death: its RAM is gone. Drops all blobs it held and dead-marks
  /// it so in-flight deposits fail instead of ghost-writing. Called under
  /// the job lock, it does no host I/O (see the header comment).
  void wipe_rank(int rank);

  /// Full reset (holdings, dead-marks; stats are retained) — called
  /// between checkpoint/restart incarnations, whose fresh processes start
  /// with empty memories.
  void wipe_all();

  [[nodiscard]] TierStats stats() const;
  [[nodiscard]] double cost_of(size_t bytes, int ops,
                               int concurrency = 1) const noexcept {
    return model_.cost(bytes, ops, concurrency);
  }
  [[nodiscard]] const TierModel& model() const noexcept { return model_; }

  /// Arm the seeded fault injector for this tier (see TierFaults).
  void set_fault_injector(uint64_t seed, TierFaults faults,
                          std::string path_filter);
  void clear_fault_injector();
  [[nodiscard]] FaultStats fault_stats() const;

 private:
  using Holders = std::map<int, Extent>;
  /// Extents the store let go of, released (their last runs punched) by the
  /// caller once the mutex is released.
  using Dropped = std::vector<Extent>;

  /// The read half of get() under the mutex: the fault draw, `holder`'s
  /// extent of `path` and, for a corrupt read, the bit to flip.
  Status lookup(int holder, std::string_view path, Extent& out,
                std::optional<FaultInjector::BitFlip>& flip, double* sim_cost);
  /// `holder`'s blob of `path`, or nullptr.
  const Extent* find_locked(int holder, std::string_view path) const FTMR_REQUIRES(mu_);

  TierModel model_;
  SegmentStore& segments_;
  mutable Mutex mu_{"replica.store"};
  // path -> (holder rank -> blob); a path leaves when its last holder does.
  // Recovery asks "who holds this path", so that is one lookup. Rank
  // threads deposit into each other's memories concurrently, so everything
  // lives under one mutex; the blobs themselves are immutable and shared
  // between holders.
  std::map<std::string, Holders, std::less<>> held_ FTMR_GUARDED_BY(mu_);
  // holder -> the paths it holds, sorted: views of held_'s keys, each
  // dropped here before its key leaves held_. Re-replication walks a
  // rank's own paths and a death drops them, without a scan of held_.
  std::map<int, std::set<std::string_view, std::less<>>> by_holder_
      FTMR_GUARDED_BY(mu_);
  Dropped released_ FTMR_GUARDED_BY(mu_);  // wiped ranks' extents
  std::set<int> dead_ FTMR_GUARDED_BY(mu_);
  TierFaults faults_ FTMR_GUARDED_BY(mu_);
  FaultInjector injector_ FTMR_GUARDED_BY(mu_);
  TierStats stats_ FTMR_GUARDED_BY(mu_);
};

/// Replacement-aware replica placement: the k peers that hold `owner`'s
/// blobs, chosen from `live` (sorted ascending) excluding the owner itself
/// and every rank on the owner's node (a node crash must not take a blob
/// and all its replicas together). Deterministic under (owner, seed);
/// recomputed over the post-shrink live set after failures, which is what
/// makes re-replication converge to the same targets on every survivor
/// without communication. Returns min(k, eligible) ranks.
[[nodiscard]] std::vector<int> replica_placement(int owner, int k,
                                                 const std::vector<int>& live,
                                                 int ppn, uint64_t seed = 0);

}  // namespace ftmr::storage
