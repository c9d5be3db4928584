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
// Blobs are immutable and shared: the simulated ranks live in one address
// space, so a blob pushed to k holders is one allocation with k references
// (each holder's copy is logically private — nothing can mutate it, and a
// holder's death or removal drops only its reference).
//
// Faults are decided by the one FaultInjector (storage.hpp), on this
// tier's own stream: torn puts silently store a private strict prefix for
// that holder only, corrupt gets flip one bit of a private copy handed to
// the caller (the stored blob stays pristine — transient, like bus bit
// rot), clean failures return kIo. All of it feeds FaultStats so tests can
// assert the injector actually fired.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"
#include "storage/storage.hpp"

namespace ftmr::storage {

class ReplicaStore {
 public:
  explicit ReplicaStore(TierModel model) : model_(model) {}

  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  /// Deposit a blob into `holder`'s memory (overwrites any prior copy —
  /// puts are idempotent, which makes concurrent re-replication pushes
  /// harmless). Fails with kProcFailed if `holder` is dead-marked, kIo on
  /// an injected clean failure. `*sim_cost` (if non-null) gets the modeled
  /// tier time; callers that already charged wire time pass nullptr.
  Status put(int holder, std::string_view path, std::span<const std::byte> data,
             double* sim_cost = nullptr);
  /// Same, depositing a reference to the shared immutable `blob` instead of
  /// a copy (a torn put still stores a private prefix).
  Status put(int holder, std::string_view path, std::shared_ptr<const Bytes> blob,
             double* sim_cost = nullptr);

  /// Fetch a blob from `holder`'s memory. kNotFound if the holder has no
  /// copy (or was wiped), kIo on injected read failure; an injected
  /// corrupt-read flips one bit of `out` only.
  Status get(int holder, std::string_view path, Bytes& out,
             double* sim_cost = nullptr);
  /// Same, sharing the stored blob instead of copying it; an injected
  /// corrupt read hands back a private flipped copy.
  Status get(int holder, std::string_view path, std::shared_ptr<const Bytes>& out,
             double* sim_cost = nullptr);

  /// Drop one blob from one holder (no-op if absent).
  void remove(int holder, std::string_view path);

  [[nodiscard]] bool exists(int holder, std::string_view path) const;

  /// Live ranks currently holding a copy of `path`, sorted ascending.
  [[nodiscard]] std::vector<int> holders_of(std::string_view path) const;

  /// Every distinct path held anywhere, sorted (recovery enumerates this).
  [[nodiscard]] std::vector<std::string> all_paths() const;

  /// Paths `holder` currently holds, sorted (a full scan; tests only).
  [[nodiscard]] std::vector<std::string> paths_held_by(int holder) const;

  [[nodiscard]] bool is_dead(int rank) const;

  /// Rank death: its RAM is gone. Drops all blobs it held and dead-marks
  /// it so in-flight deposits fail instead of ghost-writing.
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
  using Holders = std::map<int, std::shared_ptr<const Bytes>>;

  /// `holder`'s blob of `path`, or nullptr.
  const std::shared_ptr<const Bytes>* find_locked(int holder,
                                                  std::string_view path) const
      FTMR_REQUIRES(mu_);

  TierModel model_;
  mutable Mutex mu_{"replica.store"};
  // path -> (holder rank -> blob); a path leaves when its last holder does.
  // Recovery asks "who holds this path", so that is one lookup; a rank's
  // death is the full scan. Rank threads deposit into each other's
  // memories concurrently, so everything lives under one mutex; the blobs
  // themselves are immutable and shared between holders.
  std::map<std::string, Holders, std::less<>> held_ FTMR_GUARDED_BY(mu_);
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
