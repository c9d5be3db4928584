// checkpoint.hpp — checkpoint creation, placement, and recovery loading.
//
// Paper Sec. 4.1: checkpoints combine job state (record cursors, reduce
// progress) with intermediate data (KV deltas, shuffled partitions). They
// are written asynchronously per process (4.1.1), at record or chunk
// granularity (4.1.2), and placed on the node-local disk with a background
// copier draining them to the shared persistent storage (4.1.3) — or
// written to shared storage directly / kept local-only, both of which the
// paper discusses as inferior and which we keep selectable for the Fig. 4
// ablation.
//
// Checkpoint kinds, replayed in sequence order:
//   map  — (task, record position, KV delta emitted since last checkpoint);
//          a chain: recovery is the union of all segments
//   part — one shuffled partition's full KV content (made at shuffle end);
//          a snapshot: the newest valid segment wins
//   red  — (partition, entries reduced so far, output KV delta); a chain,
//          but only segments newer than the partition snapshot they reduce
//          (an older one belongs to a superseded shuffle) are replayed
//   out  — one partition of a completed stage's reduce output; a snapshot
// Sequence numbers are per rank and survive restarts (a resubmitted job
// appends new segments after its predecessor's), so one rank's files
// totally order by write time across process incarnations.
//
// Shared-tier copies carry their simulated drain-completion time in the
// file name; recovery ignores checkpoints that had not finished draining by
// the failure horizon, which models the tail of work lost when a process
// dies before the copier catches up.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/metrics.hpp"
#include "mr/kv.hpp"
#include "mr/spill.hpp"
#include "simmpi/comm.hpp"
#include "storage/copier.hpp"
#include "storage/segment_store.hpp"
#include "storage/storage.hpp"

namespace ftmr::core {

// ---------------------------------------------------------------------------
// Checkpoint file framing (see DESIGN.md "Checkpoint file format")
//
// Every checkpoint file is self-verifying:
//   [magic u32 "FTCK"][version u16][reserved u16][payload_len u64]
//   [payload bytes][crc32 u32 over header+payload]
// A torn write (any strict prefix), a truncation, a bit flip, or a stale
// format all fail unframe_checkpoint with kCorrupt — never with garbage
// state. kCorrupt is deliberately distinct from kNotFound so recovery can
// branch: absent file = never written / wiped node; invalid file = written
// but unusable, try the other tier's replica.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kCkptMagic = 0x4B435446u;  // "FTCK" little-endian
inline constexpr uint16_t kCkptVersion = 1;
inline constexpr size_t kCkptFrameOverhead = 4 + 2 + 2 + 8 + 4;

/// Parsed checkpoint file name: "<kind>_s<stage>_p<id>_q<seq>[_d<usec>]".
/// `kind` is "map", "part", "red", or "out"; `id` is the task id (map) or
/// partition number (part/red/out); `seq` totally orders one rank's files
/// across process incarnations; `drained_usec` is the shared-tier drain
/// stamp (-1 on files that never passed through the copier). Public so the
/// fault-schedule explorer's chain-wellformedness invariant can audit the
/// on-disk checkpoint state without reaching into manager internals.
struct CkptFileName {
  std::string kind;
  int stage = -1;
  uint64_t id = 0;
  int seq = -1;
  int64_t drained_usec = -1;  // -1: no drain stamp (local file)
};

/// Parse a checkpoint file name; false if it doesn't match the grammar.
[[nodiscard]] bool parse_checkpoint_name(const std::string& name,
                                         CkptFileName& out);

/// Directory (relative to either tier root) holding rank `rank`'s
/// checkpoint files.
[[nodiscard]] std::string checkpoint_rank_dir(int rank);

/// Wrap a checkpoint payload in the verified frame.
[[nodiscard]] Bytes frame_checkpoint(std::span<const std::byte> payload);

/// Verify and strip the frame. Returns kCorrupt (with a diagnostic message)
/// on any integrity violation; `payload` is untouched on failure.
Status unframe_checkpoint(std::span<const std::byte> framed, Bytes& payload);

/// Robustness counters for the checkpoint integrity layer. Accumulated per
/// CheckpointManager (i.e. per rank); benches/tests sum across ranks.
struct IntegrityStats {
  int64_t corrupt_frames = 0;       // framing/CRC verification failures seen
  int64_t io_retries = 0;           // same-tier retries after an I/O error
  int64_t tier_fallbacks = 0;       // other tier's replica used successfully
  int64_t files_quarantined = 0;    // no valid replica on any tier; skipped
  int64_t segments_reprocessed = 0; // tasks/partitions re-executed because
                                    // their checkpoints were quarantined
  int64_t ckpt_write_failures = 0;  // checkpoint writes dropped after retry
  int64_t drain_failures = 0;       // copier drains that permanently failed
  int64_t replica_hits = 0;         // recovery reads served from peer memory
  int64_t replica_misses = 0;       // memory rung exhausted; fell to files
  int64_t replica_push_failures = 0;// replication pushes lost (dead target
                                    // or injected fault); best-effort drops
  int64_t rereplications = 0;       // blobs re-pushed after a shrink
};

struct CkptOptions {
  enum class Granularity { kRecord, kChunk };
  enum class Location { kLocalWithCopier, kSharedDirect, kLocalOnly };

  bool enabled = true;
  Granularity granularity = Granularity::kRecord;
  /// With record granularity, checkpoint every this many records
  /// (user-tunable; the paper sweeps 1..1e6 in Fig. 6).
  int64_t records_per_ckpt = 100;
  Location location = Location::kLocalWithCopier;
  /// Stage recovery reads use the prefetcher (paper Sec. 5.1 refinement).
  bool prefetch_recovery = false;
  /// In-memory replication degree (Tier::kMemory): every checkpoint blob is
  /// pushed to this many peer ranks' RAM (never the owner's node) and
  /// detect/resume recovery reads a surviving replica before touching any
  /// file tier. 0 disables the memory tier. Memory replicas do not survive
  /// a job teardown, so checkpoint/restart resubmissions start cold.
  int memory_replication_k = 0;
};

/// How far a stage got on one rank. Values are ordered; the composite
/// (stage*8 + phase) is what checkpoint/restart ranks agree on.
enum StagePhase : int { kPhaseMap = 0, kPhaseShuffleDone = 1, kPhaseDone = 2 };

/// Checkpoint kinds as bits, so a read names the kinds it reads.
enum CkptKind : unsigned { kKindMap = 1, kKindPart = 2, kKindRed = 4, kKindOut = 8,
                           kEveryKind = 15 };

/// The kinds adopting a stage at `phase` consumes:
///   kPhaseDone        — out
///   kPhaseShuffleDone — part and red (one pass: a red delta's staleness
///                       check needs its partition snapshot's sequence)
///   kPhaseMap         — map
[[nodiscard]] constexpr unsigned kinds_read_at(StagePhase phase) noexcept {
  return phase == kPhaseDone          ? kKindOut
         : phase == kPhaseShuffleDone ? kKindPart | kKindRed
                                      : kKindMap;
}

/// Everything recoverable about one (rank, stage) from its checkpoints.
struct RankRecovery {
  struct MapTask {
    uint64_t pos = 0;   // records processed through the last checkpoint
    mr::KvBuffer kv;    // KV emitted for those records
  };
  struct Reduce {
    uint64_t entries_done = 0;
    mr::KvBuffer out;
  };
  std::map<uint64_t, MapTask> map_tasks;
  std::map<int, mr::KvBuffer> partitions;   // shuffle-end partition data
  std::map<int, Reduce> reduce;
  std::map<int, mr::KvBuffer> stage_outputs;
  size_t files_read = 0;
  size_t bytes_read = 0;
  // Integrity outcome of this load (also accumulated in the manager).
  size_t corrupt_frames = 0;   // verification failures observed
  size_t tier_fallbacks = 0;   // files served from the other tier's replica
  size_t quarantined = 0;      // files with no valid replica (work lost)

  /// Drop what was read of every kind outside `kinds` (CkptKind bits).
  void keep(unsigned kinds) {
    if (!(kinds & kKindMap)) map_tasks.clear();
    if (!(kinds & kKindPart)) partitions.clear();
    if (!(kinds & kKindRed)) reduce.clear();
    if (!(kinds & kKindOut)) stage_outputs.clear();
  }
};

/// One read of the read plan: rank `rank`'s checkpoints of `stage`, of the
/// `kinds`. Unless `every_id`, only those whose id is in `ids` (the task
/// of a map checkpoint, the partition of the others): a survivor reads
/// only the files covering the work it inherited, so the aggregate
/// recovery I/O stays proportional to the dead rank's data. A
/// detect/resume survivor's reads come from core/recovery_plan.hpp; a
/// restarted job reads every id of its own.
struct CkptRead {
  int stage = 0;
  int rank = 0;
  unsigned kinds = kEveryKind;  // CkptKind bits
  bool every_id = true;
  std::set<uint64_t> ids{};
};

/// Thread model: a CheckpointManager is confined to its rank's thread (one
/// instance per rank, created by FtJob). Its CopierAgent member and the
/// StorageSystem it writes through are the shared, internally-synchronized
/// objects; everything else (sequence counters, integrity stats) is
/// single-thread state and must not be shared across rank threads.
class CheckpointManager {
 public:
  /// `ppn` (processes per node) drives replica placement: no replica may
  /// land on the owner's node, or a node crash would take a blob and its
  /// replicas together.
  CheckpointManager(storage::StorageSystem* fs, int node, int rank,
                    CkptOptions opts, int io_concurrency, int ppn = 1);

  /// Record-granularity map checkpoint (Algorithm 1's commit path). The
  /// delta covers records [start, pos); carrying the start cursor lets
  /// replay distinguish a chain *continuation* from a chain *restart* by a
  /// later incarnation that re-executed the task from scratch — merging
  /// both would replay the overlap twice.
  Status map_ckpt(simmpi::Comm& comm, int stage, uint64_t task, uint64_t start,
                  uint64_t pos, const mr::KvBuffer& delta);
  /// Shuffle-end partition checkpoint.
  Status partition_ckpt(simmpi::Comm& comm, int stage, int partition,
                        const mr::KvBuffer& kv);
  /// Shuffle-end partition checkpoint from a spill-backed buffer. The file
  /// is byte-identical to partition_ckpt's, but it is written as a stream —
  /// frame header first, then one append per KV page (spilled pages are
  /// loaded one at a time and stay intact), CRC accumulated incrementally,
  /// trailer last, then a size probe — so the whole partition is never
  /// materialized in memory. Only that per-attempt body differs from
  /// partition_ckpt: both run the one write ladder (placement, retry with
  /// backoff, best-effort drop, copier drain). A failed or torn stream
  /// removes its partial file and restarts from the header on the next
  /// attempt. Paged checkpoints skip memory-tier replication: a full
  /// in-RAM replica would re-buy exactly the residency the spill budget
  /// gave up (ReStore-style budget honesty), so recovery for these files
  /// goes straight to the file tiers.
  Status partition_ckpt_paged(simmpi::Comm& comm, int stage, int partition,
                              mr::SpillableKvBuffer& kv);
  /// Reduce-progress checkpoint; the delta covers KMV entries
  /// [start, entries_done) (see map_ckpt for why start is carried).
  Status reduce_ckpt(simmpi::Comm& comm, int stage, int partition,
                     uint64_t start, uint64_t entries_done,
                     const mr::KvBuffer& out_delta);
  /// Completed-stage output checkpoint (iterative jobs resume at stage
  /// boundaries without recomputing earlier stages).
  Status stage_output_ckpt(simmpi::Comm& comm, int stage, int partition,
                           const mr::KvBuffer& out);

  /// Phase-boundary synchronization with the copier: the worker waits (in
  /// virtual time) until all enqueued checkpoints are drained.
  void drain(simmpi::Comm& comm);

  /// Restore the replication invariant after a shrink: every blob in the
  /// memory tier regains >= min(k, eligible-peers) intact replicas before
  /// the next stage. Two passes, both coordination-free (every survivor
  /// derives identical placement from the identical post-shrink live set):
  ///   1. under-replicated blobs still held somewhere — the lowest-ranked
  ///      live holder pushes the missing copies;
  ///   2. blobs whose holders all died — the (surviving) owner re-pushes
  ///      from its own CRC-verified checkpoint files.
  /// Failure-transparent: a peer dying mid-push surfaces kProcFailed /
  /// FailureDetected exactly like any other MPI op, and the interrupted
  /// repair is simply redone by the next recovery round.
  Status rereplicate(simmpi::Comm& comm);

  /// Iteration-scoped memory-tier lifecycle (core/iterjob.hpp). The
  /// iterative engine pins the stages of the newest fully-converged round —
  /// rereplicate() heals their blobs before anything else after a shrink,
  /// so the resume frontier regains coverage first even if repair is
  /// interrupted by another failure.
  void pin_stage_memory(int stage);
  /// Release this rank's memory replicas of blobs from stages below
  /// `keep_from_stage`: superseded-round state stays recoverable from the
  /// file tiers but no longer occupies peer RAM, and rereplicate() will not
  /// resurrect it. Pins below the frontier are dropped too. Returns the
  /// number of (blob, holder) replicas removed. Monotone: the release
  /// frontier only advances.
  int release_stage_memory(int keep_from_stage);
  /// Current release frontier (stages < this have no memory-tier claim).
  [[nodiscard]] int released_below_stage() const noexcept {
    return released_below_;
  }
  [[nodiscard]] const std::set<int>& pinned_stages() const noexcept {
    return pinned_stages_;
  }

  /// Stages for which rank `src_rank` has any checkpoint on the given tier.
  std::set<int> stages_present(int src_rank, int src_node, bool from_shared) const;

  /// Load what `read` names of rank `read.rank`'s checkpoints.
  ///   from_shared=false — read the rank's own node-local files (restart on
  ///     the same node after a process crash);
  ///   from_shared=true  — read the drained copies (detect/resume WC reads
  ///     a *dead* rank's state), honoring `horizon` and optionally staging
  ///     through the prefetcher.
  /// Corruption-tolerant: every file is CRC-verified; a corrupt or
  /// truncated file is re-read (transient bit rot), then served from the
  /// other tier's replica (local torn -> drained shared copy; shared copy
  /// corrupt -> the dead rank's intact local file), and finally
  /// quarantined — recovery loses bounded work but never aborts on bad
  /// bytes and never ingests garbage. Outcomes are counted in `out` and in
  /// integrity().
  Status load_rank_stage(simmpi::Comm& comm, const CkptRead& read, int src_node,
                         bool from_shared, double horizon, RankRecovery& out);

  [[nodiscard]] const CkptOptions& options() const noexcept { return opts_; }
  [[nodiscard]] storage::CopierAgent& copier() noexcept { return copier_; }
  [[nodiscard]] double write_seconds() const noexcept { return write_seconds_; }
  [[nodiscard]] size_t bytes_written() const noexcept { return bytes_written_; }
  [[nodiscard]] int count() const noexcept { return count_; }

  [[nodiscard]] IntegrityStats integrity() const noexcept { return integ_; }
  /// Called by the recovery engine when quarantined checkpoints force work
  /// (a map task or a partition) to be re-executed from scratch.
  void note_segments_reprocessed(int n) noexcept { integ_.segments_reprocessed += n; }

  /// Record checkpoint write/read spans and integrity instants into `t`
  /// (not owned; may be null). Forwarded to the copier and to recovery
  /// prefetchers; set once during job construction.
  void set_trace(metrics::TraceRecorder* t) noexcept {
    trace_ = t;
    copier_.set_trace(t);
  }

 private:
  /// Write one already-framed checkpoint and replicate it.
  Status put(simmpi::Comm& comm, const std::string& name, Bytes&& framed);
  /// One try at writing a whole checkpoint file at (tier, path) with the
  /// given shared-storage concurrency; it charges its own I/O time through
  /// charge_write().
  using WriteAttempt =
      std::function<Status(storage::Tier, const std::string&, int)>;
  /// The one checkpoint write ladder, shared by the whole-frame and the
  /// paged writer: placement (Location), the storage RetryPolicy ladder,
  /// the best-effort drop of a failed write, the copier drain, and the
  /// write's spans and counters. `framed_size` is the file's final size.
  /// `paged_source` (null for a whole frame) is the spill-backed partition
  /// a paged attempt streams; its page re-load time elapses inside the
  /// write span.
  Status write_ladder(simmpi::Comm& comm, const std::string& name,
                      size_t framed_size, const WriteAttempt& attempt,
                      mr::SpillableKvBuffer* paged_source);
  /// Elapse `seconds` of checkpoint write time on the writer's clock.
  void charge_write(simmpi::Comm& comm, double seconds);
  /// Book one retry of the write or read ladder (counter, trace instant,
  /// registry); the caller has already sat out its backoff.
  void book_retry(simmpi::Comm& comm);
  /// Copier-drain a just-written local checkpoint to the shared tier and
  /// stamp the shared copy with its drain-completion time. Degrades (counts
  /// a drain failure) instead of failing: the local copy stays readable.
  Status drain_to_shared(simmpi::Comm& comm, const std::string& probe);
  /// Push the framed blob to the placement peers' memories (best-effort:
  /// lost pushes are counted, never fail the checkpoint; a kill landing on
  /// the rma op propagates like any MPI death). `written` is the file the
  /// write ladder wrote it to in `tier`, or empty if the write was dropped.
  void replicate(simmpi::Comm& comm, const std::string& name,
                 std::span<const std::byte> framed, storage::Tier tier,
                 const std::string& written);
  /// `frame` as one segment-store extent, stored once for all its holders:
  /// the run of the file at `path` in `tier` when that file holds all of
  /// it, else a run of its own. A size check suffices: a write persists
  /// all of a frame, a strict prefix of it (torn) or nothing.
  Status frame_extent(storage::Tier tier, const std::string& path,
                      std::span<const std::byte> frame,
                      storage::SegmentStore::Extent& out) const;
  /// The one replica push loop: deposit `framed` (owner `owner`'s blob at
  /// memory path `mpath`) at every placement target over `live` that is not
  /// in `skip`. Every lost push is counted in integrity() and in the
  /// registry; returns the number of pushes that landed.
  int push_replicas(simmpi::Comm& comm, int owner, const std::string& mpath,
                    const storage::SegmentStore::Extent& framed,
                    const std::vector<int>& live, const std::vector<int>& skip);
  /// Live global ranks of `comm`, ascending.
  static std::vector<int> live_ranks(const simmpi::Comm& comm);
  /// The CRC step of every read rung: verify one fetched copy into
  /// `payload`, booking a valid copy as a file read and an invalid one as a
  /// corrupt frame.
  Status verify_copy(simmpi::Comm& comm, std::span<const std::byte> raw,
                     Bytes& payload, RankRecovery& out);
  /// Read `rank_dir`/`name` from `tier` and return its verified payload.
  /// Implements the read ladder memory replica -> primary tier with retry
  /// -> other tier -> quarantine; returns kCorrupt only when no valid
  /// replica exists anywhere.
  Status read_verified(simmpi::Comm& comm, storage::Tier tier, int src_node,
                       const std::string& rank_dir, const std::string& name,
                       storage::Prefetcher* prefetch, size_t prefetch_index,
                       std::vector<std::string>* other_tier_listing,
                       Bytes& payload, RankRecovery& out);

  storage::StorageSystem* fs_;
  int node_;
  int rank_;
  CkptOptions opts_;
  int conc_;
  int ppn_ = 1;
  storage::CopierAgent copier_;
  /// File sequence number, global across checkpoint kinds so names order
  /// all of one rank's files by write time. Initialized past any sequence
  /// numbers already on disk: a restarted submission must *append* to the
  /// delta chains of its predecessor — reusing a number would overwrite an
  /// older segment in place and silently sever the chain's prefix.
  int next_seq_ = 0;
  /// Iteration-scoped memory-tier state (pin_stage_memory /
  /// release_stage_memory). Stages < released_below_ are excluded from
  /// rereplicate()'s file-sourced pass 2; pinned stages heal first.
  int released_below_ = 0;
  std::set<int> pinned_stages_;
  double write_seconds_ = 0.0;
  size_t bytes_written_ = 0;
  int count_ = 0;
  IntegrityStats integ_;
  metrics::TraceRecorder* trace_ = nullptr;
};

}  // namespace ftmr::core
