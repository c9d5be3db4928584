#include "core/checkpoint.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/crc32.hpp"
#include "common/log.hpp"
#include "storage/replica.hpp"

namespace ftmr::core {

// ---------------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------------

namespace {

// Trace names and categories, interned once (metrics::TraceName).
const metrics::TraceCat kCatCkpt{"ckpt"};
const metrics::TraceCat kCatCopier{"copier"};
const metrics::TraceName kCkptCorrupt{"ckpt.corrupt"};
const metrics::TraceName kCkptCrc{"ckpt.crc"};
const metrics::TraceName kCkptFrame{"ckpt.frame"};
const metrics::TraceName kCkptQuarantine{"ckpt.quarantine"};
const metrics::TraceName kCkptRead{"ckpt.read"};
const metrics::TraceName kCkptReplicaFetch{"ckpt.replica_fetch"};
const metrics::TraceName kCkptReplicaPush{"ckpt.replica_push"};
const metrics::TraceName kCkptRereplicate{"ckpt.rereplicate"};
const metrics::TraceName kCkptRetry{"ckpt.retry"};
const metrics::TraceName kCkptTierFallback{"ckpt.tier_fallback"};
const metrics::TraceName kCkptWrite{"ckpt.write"};
const metrics::TraceName kCopierDrainWait{"copier.drain_wait"};

constexpr size_t kFrameHeaderBytes = kCkptFrameOverhead - sizeof(uint32_t);

/// The one place the frame header is written: a writer holding the header
/// of a `payload_len`-byte payload, its buffer reserved for `reserve`
/// bytes — the whole frame when it is built in memory, or the header plus
/// the payload's leading fields when the rest is streamed.
ByteWriter open_frame(uint64_t payload_len, size_t reserve) {
  Bytes buf;
  buf.reserve(reserve);
  ByteWriter w(std::move(buf));
  w.put<uint32_t>(kCkptMagic);
  w.put<uint16_t>(kCkptVersion);
  w.put<uint16_t>(0);  // reserved
  w.put<uint64_t>(payload_len);
  return w;
}

/// Append the CRC trailer over header + payload and return the frame.
Bytes seal_frame(ByteWriter&& w) {
  w.put<uint32_t>(crc32(w.bytes()));
  return std::move(w).take();
}

/// Frame a checkpoint whose payload is the kind's fixed fields followed by
/// one length-prefixed KV wire image. Header, fields, wire image and CRC
/// are written straight into a single allocation of exactly the frame's
/// final size: no payload buffer, no second copy, no spare capacity held
/// by the local write or by any memory replica sharing the blob.
template <typename... Fields>
Bytes frame_kv_checkpoint(const mr::KvBuffer& kv, const Fields&... fields) {
  const std::span<const std::byte> wire = kv.wire_view();
  const uint64_t payload_len =
      (sizeof(Fields) + ... + 0) + sizeof(uint32_t) + wire.size();
  ByteWriter w = open_frame(payload_len, kCkptFrameOverhead + payload_len);
  (w.put(fields), ...);
  w.put_blob(wire);
  return seal_frame(std::move(w));
}

}  // namespace

Bytes frame_checkpoint(std::span<const std::byte> payload) {
  ByteWriter w = open_frame(payload.size(), kCkptFrameOverhead + payload.size());
  w.put_bytes(payload);
  return seal_frame(std::move(w));
}

Status unframe_checkpoint(std::span<const std::byte> framed, Bytes& payload) {
  if (framed.size() < kCkptFrameOverhead) {
    return {ErrorCode::kCorrupt, "ckpt frame: truncated (torn write?)"};
  }
  ByteReader r(framed);
  uint32_t magic = 0;
  uint16_t version = 0, reserved = 0;
  uint64_t len = 0;
  (void)r.get(magic);
  (void)r.get(version);
  (void)r.get(reserved);
  (void)r.get(len);
  if (magic != kCkptMagic) {
    return {ErrorCode::kCorrupt, "ckpt frame: bad magic"};
  }
  if (version != kCkptVersion) {
    return {ErrorCode::kCorrupt,
            "ckpt frame: unsupported version " + std::to_string(version)};
  }
  if (len != framed.size() - kCkptFrameOverhead) {
    return {ErrorCode::kCorrupt, "ckpt frame: payload length mismatch"};
  }
  uint32_t stored = 0;
  std::memcpy(&stored, framed.data() + framed.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  if (stored != crc32(framed.first(framed.size() - sizeof(uint32_t)))) {
    return {ErrorCode::kCorrupt, "ckpt frame: CRC mismatch"};
  }
  payload.assign(framed.begin() + static_cast<ptrdiff_t>(kFrameHeaderBytes),
                 framed.end() - static_cast<ptrdiff_t>(sizeof(uint32_t)));
  return Status::Ok();
}

namespace {

// Checkpoint kinds as they appear in file names.
constexpr char kMap[] = "map";
constexpr char kPart[] = "part";
constexpr char kRed[] = "red";
constexpr char kOut[] = "out";

/// The CkptKind bit of a kind as it appears in file names.
unsigned kind_bit(const std::string& kind) {
  return kind == kMap ? kKindMap : kind == kPart ? kKindPart
                                 : kind == kRed  ? kKindRed
                                                 : kKindOut;
}

std::string base_name(const char* kind, int stage, uint64_t id, int seq) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s_s%03d_p%012" PRIu64 "_q%06d", kind, stage, id,
                seq);
  return buf;
}

/// A shared-tier copy is named "<name>_d<usec>": its drain-completion time.
std::string with_drain_stamp(const std::string& name, double done_at) {
  return name + "_d" + std::to_string(static_cast<int64_t>(done_at * 1e6));
}

/// The name a file was written under before any drain stamp: the key its
/// memory replica and its node-local original share.
std::string strip_drain_stamp(std::string name) {
  if (const auto pos = name.rfind("_d"); pos != std::string::npos) name.resize(pos);
  return name;
}

/// The one replay rule of both delta chains (map: records, red: KMV
/// entries). `delta` covers [start, end) and may only extend the chain
/// (`cursor`, `acc`) contiguously. Re-execution is deterministic, so a
/// chain restarted from 0 by a later incarnation carries the *same*
/// records as the prefix it shadows: a restart that ends within the chain
/// is a duplicate and is skipped (merging both would replay the overlap
/// twice — the duplication bug the schedule explorer caught under CR kills
/// in two consecutive submissions), and one reaching further supersedes
/// the prefix. Returns false on a gap or partial overlap: a flat KV blob
/// cannot be split, so the verified prefix stays and the chain is poisoned
/// from here on — its tail is reprocessed from input.
bool extend_chain(uint64_t& cursor, mr::KvBuffer& acc, uint64_t start,
                  uint64_t end, const mr::KvBuffer& delta) {
  if (start != cursor) {
    if (start != 0) return false;
    if (end <= cursor) return true;
    acc = mr::KvBuffer();
  }
  cursor = end;
  acc.merge_from(delta);
  return true;
}

}  // namespace

bool parse_checkpoint_name(const std::string& name, CkptFileName& out) {
  const auto kind_end = name.find("_s");
  if (kind_end == std::string::npos) return false;
  out.kind = name.substr(0, kind_end);
  if (out.kind != kMap && out.kind != kPart && out.kind != kRed &&
      out.kind != kOut) {
    return false;
  }
  int consumed = 0;
  const char* rest = name.c_str() + kind_end;
  if (std::sscanf(rest, "_s%d_p%" SCNu64 "_q%d%n", &out.stage, &out.id, &out.seq,
                  &consumed) != 3) {
    return false;
  }
  rest += consumed;
  long long usec = -1;
  if (std::sscanf(rest, "_d%lld", &usec) == 1) out.drained_usec = usec;
  return true;
}

std::string checkpoint_rank_dir(int rank) {
  return "ck/r" + std::to_string(rank);
}

CheckpointManager::CheckpointManager(storage::StorageSystem* fs, int node, int rank,
                                     CkptOptions opts, int io_concurrency, int ppn)
    : fs_(fs), node_(node), rank_(rank), opts_(opts), conc_(io_concurrency),
      ppn_(ppn > 0 ? ppn : 1), copier_(fs, node, io_concurrency) {
  if (!opts_.enabled) return;
  // Continue the file sequence after any earlier incarnation of this rank
  // (checkpoint/restart resubmits the whole job): the chains on disk are
  // append-only, and reusing a sequence number would overwrite an older
  // delta segment in place — recovery would then see the chain's maximum
  // position but miss the records the clobbered segment carried.
  const std::string rank_dir = checkpoint_rank_dir(rank_);
  for (storage::Tier tier : {storage::Tier::kLocal, storage::Tier::kShared}) {
    std::vector<std::string> names;
    if (!fs_->list_dir(tier, node_, rank_dir, names).ok()) continue;
    for (const std::string& n : names) {
      CkptFileName p;
      if (parse_checkpoint_name(n, p) && p.seq >= next_seq_) next_seq_ = p.seq + 1;
    }
  }
}

Status CheckpointManager::put(simmpi::Comm& comm, const std::string& name,
                              Bytes&& framed_bytes) {
  if (!opts_.enabled) return Status::Ok();
  // Framed once: the file write and every memory replica store these bytes
  // in one run of the segment store.
  const Bytes& framed = framed_bytes;
  storage::Tier written_tier = storage::Tier::kLocal;
  std::string written;
  const Status s = write_ladder(
      comm, name, framed.size(),
      [&](storage::Tier tier, const std::string& path, int concurrency) {
        double cost = 0.0;
        Status w = fs_->write_file(tier, node_, path, framed, &cost, concurrency);
        if (w.ok()) {
          charge_write(comm, cost);
          written_tier = tier;
          written = path;
        }
        return w;
      },
      nullptr);
  if (s.ok()) replicate(comm, name, framed, written_tier, written);
  return s;
}

void CheckpointManager::charge_write(simmpi::Comm& comm, double seconds) {
  comm.compute(seconds);
  write_seconds_ += seconds;
}

void CheckpointManager::book_retry(simmpi::Comm& comm) {
  integ_.io_retries++;
  if (trace_) trace_->instant(kCkptRetry, kCatCkpt, comm.now());
  metrics::MetricsRegistry::global().add("ckpt.io_retries", rank_);
}

Status CheckpointManager::write_ladder(simmpi::Comm& comm, const std::string& name,
                                       size_t framed_size,
                                       const WriteAttempt& attempt,
                                       mr::SpillableKvBuffer* paged_source) {
  const double t0 = comm.now();
  // Framing + CRC are free in virtual time (CPU is not modeled for them);
  // a zero-duration span still marks every frame event on the timeline.
  if (trace_) trace_->span(kCkptFrame, kCatCkpt, t0, comm.now());
  count_++;
  bytes_written_ += framed_size;

  // Placement (paper Sec. 4.1.3, Fig. 4): node-local with a copier drain,
  // node-local only, or — the inferior baseline, where every (small)
  // checkpoint pays a shared-storage op with full contention — written to
  // shared storage directly, stamped as drained when the write is issued.
  const std::string local_path = checkpoint_rank_dir(rank_) + "/" + name;
  storage::Tier tier = storage::Tier::kLocal;
  std::string path = local_path;
  int concurrency = 1;
  switch (opts_.location) {
    case CkptOptions::Location::kSharedDirect:
      tier = storage::Tier::kShared;
      path = with_drain_stamp(local_path, comm.now());
      concurrency = conc_;
      break;
    case CkptOptions::Location::kLocalOnly:
    case CkptOptions::Location::kLocalWithCopier:
      break;
  }

  // The storage retry ladder; the backoff elapses on the writer's clock as
  // write time. A misconfiguration (kFailedPrecondition, e.g. local
  // placement on a cluster with no local disks) is not transient, so it is
  // never retried.
  const Status s = storage::RetryPolicy::run(
      [&](int) { return attempt(tier, path, concurrency); },
      [&](double backoff) {
        charge_write(comm, backoff);
        book_retry(comm);
      });

  // Checkpoint writes are best-effort: a write that still fails after the
  // retry budget costs future recovery work (that delta is simply not
  // durable), never correctness, so it is counted and dropped rather than
  // failing the job — the whole point of this layer is surviving faulty
  // checkpoint I/O. Only a misconfiguration is surfaced, since dropping
  // would hide it.
  Status result = Status::Ok();
  if (s.code() == ErrorCode::kFailedPrecondition) {
    result = s;
  } else if (!s.ok()) {
    integ_.ckpt_write_failures++;
    FTMR_WARN << "rank " << rank_ << " dropped checkpoint " << name << ": "
              << s.to_string();
  } else if (opts_.location == CkptOptions::Location::kLocalWithCopier) {
    result = drain_to_shared(comm, local_path);
  }
  // Spill I/O incurred re-loading pages for a paged stream elapses on the
  // writer's clock here, at the checkpoint boundary.
  if (paged_source) comm.compute(paged_source->take_io_seconds());
  if (trace_) trace_->span(kCkptWrite, kCatCkpt, t0, comm.now());
  metrics::MetricsRegistry::global().add("ckpt.writes", rank_);
  metrics::MetricsRegistry::global().add("ckpt.bytes_written", rank_,
                                         static_cast<double>(framed_size));
  return result;
}

std::vector<int> CheckpointManager::live_ranks(const simmpi::Comm& comm) {
  std::vector<int> live;
  live.reserve(static_cast<size_t>(comm.size()));
  for (int rel = 0; rel < comm.size(); ++rel) {
    live.push_back(comm.global_of_rel(rel));
  }
  std::sort(live.begin(), live.end());
  return live;
}

Status CheckpointManager::frame_extent(storage::Tier tier, const std::string& path,
                                       std::span<const std::byte> frame,
                                       storage::SegmentStore::Extent& out) const {
  storage::SegmentStore& segments = fs_->segments();
  if (!path.empty() && segments.extent_of(tier, node_, path, out) &&
      out.len == frame.size()) {
    return Status::Ok();
  }
  return segments.stash(frame, out);
}

int CheckpointManager::push_replicas(simmpi::Comm& comm, int owner,
                                     const std::string& mpath,
                                     const storage::SegmentStore::Extent& framed,
                                     const std::vector<int>& live,
                                     const std::vector<int>& skip) {
  storage::ReplicaStore& mem = fs_->memory();
  int pushed = 0;
  for (int tgt : storage::replica_placement(owner, opts_.memory_replication_k,
                                            live, ppn_)) {
    if (std::find(skip.begin(), skip.end(), tgt) != skip.end()) {
      continue;  // already holds a copy
    }
    // The rma handshake charges the wire and verifies the target lives
    // (a dead target surfaces kProcFailed through the errhandler, exactly
    // like a send); the deposit itself can still lose a razor-thin race
    // with the target's death — the store's dead-mark turns that into a
    // counted lost push instead of a ghost replica.
    const int rel = comm.rel_of_global(tgt);
    if (rel >= 0 && comm.rma_put(rel, framed.len).ok() &&
        mem.put(tgt, mpath, framed, nullptr).ok()) {
      pushed++;
      continue;
    }
    integ_.replica_push_failures++;
    metrics::MetricsRegistry::global().add("ckpt.replica_push_failures", rank_);
  }
  return pushed;
}

void CheckpointManager::replicate(simmpi::Comm& comm, const std::string& name,
                                  std::span<const std::byte> framed,
                                  storage::Tier tier, const std::string& written) {
  if (opts_.memory_replication_k <= 0) return;
  const double t0 = comm.now();
  storage::SegmentStore::Extent blob;
  if (auto s = frame_extent(tier, written, framed, blob); !s.ok()) {
    FTMR_WARN << "rank " << rank_ << " cannot replicate " << name << ": "
              << s.to_string();
    return;
  }
  const int pushed =
      push_replicas(comm, rank_, checkpoint_rank_dir(rank_) + "/" + name, blob,
                    live_ranks(comm), {});
  if (pushed > 0) {
    metrics::MetricsRegistry::global().add("ckpt.replica_pushes", rank_, pushed);
    metrics::MetricsRegistry::global().add(
        "ckpt.replica_bytes", rank_, static_cast<double>(pushed * framed.size()));
  }
  // The span's op stamp marks the replication window on the timeline, so
  // the fault explorer harvests kill candidates inside it.
  if (trace_) trace_->span(kCkptReplicaPush, kCatCkpt, t0, comm.now());
}

Status CheckpointManager::drain_to_shared(simmpi::Comm& comm,
                                          const std::string& probe) {
  double done_at = 0.0;
  // The copier drains in the background (its own virtual timeline); the
  // shared copy is stamped with its drain-completion time.
  if (auto s = copier_.enqueue(probe, probe, comm.now(), &done_at); !s.ok()) {
    // Permanently failed drain: reported by the copier, counted here. The
    // local copy exists, so restart-on-same-node still works.
    integ_.drain_failures++;
    FTMR_WARN << "rank " << rank_ << " drain failed for " << probe << ": "
              << s.to_string();
    return Status::Ok();
  }
  // Copy the drained file to its stamped name, then drop the probe. The
  // copy reads and writes the shared tier (and draws its faults) like any
  // copy, but on the host it only links. If it fails the unstamped probe
  // remains readable, so this too degrades instead of failing the job.
  if (auto s = fs_->copy(storage::Tier::kShared, node_, probe, storage::Tier::kShared,
                         node_, with_drain_stamp(probe, done_at));
      !s.ok()) {
    integ_.drain_failures++;
    return Status::Ok();
  }
  (void)fs_->remove(storage::Tier::kShared, node_, probe);
  return Status::Ok();
}

Status CheckpointManager::map_ckpt(simmpi::Comm& comm, int stage, uint64_t task,
                                   uint64_t start, uint64_t pos,
                                   const mr::KvBuffer& delta) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  return put(comm, base_name(kMap, stage, task, seq),
             frame_kv_checkpoint(delta, task, start, pos));
}

Status CheckpointManager::partition_ckpt(simmpi::Comm& comm, int stage,
                                         int partition, const mr::KvBuffer& kv) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  return put(comm, base_name(kPart, stage, static_cast<uint64_t>(partition), seq),
             frame_kv_checkpoint(kv, static_cast<int32_t>(partition)));
}

Status CheckpointManager::partition_ckpt_paged(simmpi::Comm& comm, int stage,
                                               int partition,
                                               mr::SpillableKvBuffer& kv) {
  if (!opts_.enabled) return Status::Ok();
  // The blob length is a u32 on the wire, so a partition past the KV arena
  // bound is refused outright, never wrapped.
  const uint64_t body_bytes = kv.bytes();
  if (mr::kCountHeaderBytes + body_bytes > mr::kMaxArenaBytes) {
    return {ErrorCode::kOutOfRange,
            "ckpt partition: exceeds the 4 GiB KV blob bound"};
  }
  const int seq = next_seq_++;

  // Frame prefix: header + payload fields up to the KV wire body, built
  // once by the same header writer as every in-memory frame. The file is
  // byte-identical to partition_ckpt's — [i32 partition][u32 blob_len]
  // [u64 count] followed by the record bytes — but the record bytes are
  // appended one page at a time below, so the partition is never whole in
  // memory.
  const auto blob_len =
      static_cast<uint32_t>(mr::kCountHeaderBytes + body_bytes);
  const uint64_t payload_len = sizeof(int32_t) + sizeof(uint32_t) + blob_len;
  const uint64_t framed_size = kCkptFrameOverhead + payload_len;
  ByteWriter w = open_frame(payload_len, kFrameHeaderBytes + sizeof(int32_t) +
                                             sizeof(uint32_t) +
                                             mr::kCountHeaderBytes);
  w.put<int32_t>(partition);
  w.put<uint32_t>(blob_len);
  w.put<uint64_t>(kv.size());  // the KV wire's record-count header
  const Bytes prefix = std::move(w).take();

  // One attempt is one streaming pass: prefix, then each page's wire body
  // (spilled pages load one at a time and stay intact on their spill
  // files), then the CRC trailer accumulated across everything written.
  // Appends cannot be rewound, so each attempt first removes whatever a
  // failed predecessor left. A final size probe catches torn appends — a
  // stream that raced a storage fault mid-page would otherwise leave a
  // plausible-length file that only recovery-time CRC checking could reject.
  auto stream = [&](storage::Tier tier, const std::string& path,
                    int concurrency) -> Status {
    (void)fs_->remove(tier, node_, path);
    uint32_t crc = crc32_update(crc32_init(), prefix);
    double cost = 0.0;
    if (auto s = fs_->write_file(tier, node_, path, prefix, &cost, concurrency);
        !s.ok()) {
      return s;
    }
    charge_write(comm, cost);
    const size_t npages = kv.page_count();
    mr::KvBuffer page;
    for (size_t i = 0; i < npages; ++i) {
      if (auto s = kv.read_page(i, page); !s.ok()) return s;
      const auto body = page.wire_view().subspan(mr::kCountHeaderBytes);
      crc = crc32_update(crc, body);
      cost = 0.0;
      if (auto s = fs_->append_file(tier, node_, path, body, &cost, concurrency);
          !s.ok()) {
        return s;
      }
      charge_write(comm, cost);
    }
    ByteWriter tw;
    tw.put<uint32_t>(crc32_final(crc));
    cost = 0.0;
    if (auto s = fs_->append_file(tier, node_, path, std::move(tw).take(), &cost,
                                  concurrency);
        !s.ok()) {
      return s;
    }
    charge_write(comm, cost);
    const int64_t sz = fs_->file_size(tier, node_, path);
    if (sz < 0 || static_cast<uint64_t>(sz) != framed_size) {
      return {ErrorCode::kCorrupt, "paged ckpt: torn stream on " + path};
    }
    return Status::Ok();
  };
  // No memory-tier replicate(): a full in-RAM replica of an out-of-core
  // partition would re-buy exactly the residency the spill budget gave up,
  // so paged checkpoints recover through the file tiers only.
  return write_ladder(comm,
                      base_name(kPart, stage, static_cast<uint64_t>(partition), seq),
                      framed_size, stream, &kv);
}

Status CheckpointManager::reduce_ckpt(simmpi::Comm& comm, int stage, int partition,
                                      uint64_t start, uint64_t entries_done,
                                      const mr::KvBuffer& out_delta) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  return put(comm, base_name(kRed, stage, static_cast<uint64_t>(partition), seq),
             frame_kv_checkpoint(out_delta, static_cast<int32_t>(partition),
                                 start, entries_done));
}

Status CheckpointManager::stage_output_ckpt(simmpi::Comm& comm, int stage,
                                            int partition, const mr::KvBuffer& out) {
  if (!opts_.enabled) return Status::Ok();
  const int seq = next_seq_++;
  return put(comm, base_name(kOut, stage, static_cast<uint64_t>(partition), seq),
             frame_kv_checkpoint(out, static_cast<int32_t>(partition)));
}

void CheckpointManager::drain(simmpi::Comm& comm) {
  if (!opts_.enabled || opts_.location != CkptOptions::Location::kLocalWithCopier) {
    return;
  }
  const double t0 = comm.now();
  const double wait = copier_.drain_wait(t0);
  if (wait > 0.0) {
    comm.compute(wait);
    metrics::MetricsRegistry::global().observe("copier.drain_wait_seconds", rank_,
                                               wait);
  }
  if (trace_) trace_->span(kCopierDrainWait, kCatCopier, t0, comm.now());
}

namespace {

/// Owner rank encoded in a memory-tier path "ck/r<owner>/<name>"; -1 if the
/// path is not a checkpoint rank directory.
int replica_path_owner(const std::string& path) {
  if (path.compare(0, 4, "ck/r") != 0) return -1;
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos || slash == 4) return -1;
  int owner = 0;
  for (size_t i = 4; i < slash; ++i) {
    if (path[i] < '0' || path[i] > '9') return -1;
    owner = owner * 10 + (path[i] - '0');
  }
  return owner;
}

}  // namespace

void CheckpointManager::pin_stage_memory(int stage) {
  if (stage >= released_below_) pinned_stages_.insert(stage);
}

int CheckpointManager::release_stage_memory(int keep_from_stage) {
  if (keep_from_stage <= released_below_) return 0;
  released_below_ = keep_from_stage;
  for (auto it = pinned_stages_.begin(); it != pinned_stages_.end();) {
    it = *it < keep_from_stage ? pinned_stages_.erase(it) : std::next(it);
  }
  if (!opts_.enabled || opts_.memory_replication_k <= 0 || fs_ == nullptr) {
    return 0;
  }
  // Drop every holder's copy of this rank's superseded-stage blobs. The
  // invalidation is a local metadata drop at each holder (piggybacked on
  // the next collective in a real system), so no wire time is charged.
  storage::ReplicaStore& mem = fs_->memory();
  const std::string prefix = checkpoint_rank_dir(rank_) + "/";
  int removed = 0;
  for (const std::string& mpath : mem.all_paths()) {
    if (mpath.compare(0, prefix.size(), prefix) != 0) continue;
    CkptFileName p;
    if (!parse_checkpoint_name(mpath.substr(prefix.size()), p)) continue;
    if (p.stage >= keep_from_stage) continue;
    for (int holder : mem.holders_of(mpath)) {
      mem.remove(holder, mpath);
      removed++;
    }
  }
  return removed;
}

Status CheckpointManager::rereplicate(simmpi::Comm& comm) {
  if (!opts_.enabled || opts_.memory_replication_k <= 0) return Status::Ok();
  const double t0 = comm.now();
  storage::ReplicaStore& mem = fs_->memory();
  const std::vector<int> live = live_ranks(comm);
  int healed = 0;

  // Pinned (converged-frontier) stages heal first in both passes: if repair
  // is interrupted by another failure, the resume frontier has already
  // regained coverage. Non-frontier blobs keep their harvest order.
  auto pinned_first = [&](std::vector<std::string>& items, bool full_path) {
    if (pinned_stages_.empty()) return;
    std::stable_partition(items.begin(), items.end(), [&](const std::string& s) {
      CkptFileName p;
      return parse_checkpoint_name(full_path ? s.substr(s.rfind('/') + 1) : s, p) &&
             pinned_stages_.contains(p.stage);
    });
  };

  // Pass 1: blobs still held somewhere but under-replicated after the
  // shrink. Every survivor derives the identical placement from the
  // identical live set, and exactly one (the lowest-ranked live holder)
  // pushes — puts are idempotent, so even a double push would be harmless.
  // Only the paths this rank holds can be its to push.
  std::vector<std::string> held = mem.paths_held_by(rank_);
  pinned_first(held, true);
  for (const std::string& mpath : held) {
    const int owner = replica_path_owner(mpath);
    if (owner < 0) continue;
    const std::vector<int> holders = mem.holders_of(mpath);
    if (holders.empty() || holders.front() != rank_) continue;
    // The survivor's extent is handed on: no host I/O.
    storage::SegmentStore::Extent framed;
    if (!mem.get(rank_, mpath, framed, nullptr).ok()) continue;
    comm.compute(mem.cost_of(framed.len, 1));
    healed += push_replicas(comm, owner, mpath, framed, live, holders);
  }

  // Pass 2: blobs whose replicas all died. A surviving owner re-pushes
  // from its own checkpoint files, CRC-verified first so a torn or rotten
  // file never becomes a plausible-looking replica. (A *dead* owner's
  // blobs are not re-pushed: its state was already absorbed by the WC
  // recovery load, and future checkpoints belong to the new owners.)
  const std::string rank_dir = checkpoint_rank_dir(rank_);
  const bool use_local =
      opts_.location != CkptOptions::Location::kSharedDirect &&
      fs_->options().has_local_disk;
  const storage::Tier tier =
      use_local ? storage::Tier::kLocal : storage::Tier::kShared;
  std::vector<std::string> names;
  (void)fs_->list_dir(tier, node_, rank_dir, names);
  pinned_first(names, false);
  for (const std::string& n : names) {
    CkptFileName p;
    if (!parse_checkpoint_name(n, p)) continue;
    // Released (superseded-round) stages keep their files but have no
    // memory-tier claim — resurrecting them would undo the release.
    if (p.stage < released_below_) continue;
    const std::string mpath = rank_dir + "/" + strip_drain_stamp(n);
    if (!mem.holders_of(mpath).empty()) continue;  // pass 1 territory
    Bytes raw;
    double cost = 0.0;
    if (!fs_->read_file(tier, node_, rank_dir + "/" + n, raw, &cost,
                        use_local ? 1 : conc_)
             .ok()) {
      continue;
    }
    comm.compute(cost);
    Bytes payload;
    storage::SegmentStore::Extent framed;
    if (!unframe_checkpoint(raw, payload).ok() ||
        !frame_extent(tier, rank_dir + "/" + n, raw, framed).ok()) {
      continue;
    }
    healed += push_replicas(comm, rank_, mpath, framed, live, {});
  }

  if (healed > 0) {
    integ_.rereplications += healed;
    metrics::MetricsRegistry::global().add("ckpt.rereplications", rank_,
                                           static_cast<double>(healed));
  }
  if (trace_) trace_->span(kCkptRereplicate, kCatCkpt, t0, comm.now());
  return Status::Ok();
}

std::set<int> CheckpointManager::stages_present(int src_rank, int src_node,
                                                bool from_shared) const {
  const std::string rank_dir = checkpoint_rank_dir(src_rank);
  const storage::Tier tier =
      from_shared ? storage::Tier::kShared : storage::Tier::kLocal;
  std::vector<std::string> names;
  std::set<int> stages;
  if (!fs_->list_dir(tier, src_node, rank_dir, names).ok()) return stages;
  for (const std::string& n : names) {
    CkptFileName p;
    if (parse_checkpoint_name(n, p)) stages.insert(p.stage);
  }
  return stages;
}

Status CheckpointManager::verify_copy(simmpi::Comm& comm,
                                      std::span<const std::byte> raw,
                                      Bytes& payload, RankRecovery& out) {
  const double v0 = comm.now();
  Status v = unframe_checkpoint(raw, payload);
  if (trace_) trace_->span(kCkptCrc, kCatCkpt, v0, comm.now());
  if (v.ok()) {
    out.files_read++;
    out.bytes_read += raw.size();
    return v;
  }
  integ_.corrupt_frames++;
  out.corrupt_frames++;
  if (trace_) trace_->instant(kCkptCorrupt, kCatCkpt, comm.now());
  metrics::MetricsRegistry::global().add("ckpt.corrupt_frames", rank_);
  return v;
}

Status CheckpointManager::read_verified(simmpi::Comm& comm, storage::Tier tier,
                                        int src_node, const std::string& rank_dir,
                                        const std::string& name,
                                        storage::Prefetcher* prefetch,
                                        size_t prefetch_index,
                                        std::vector<std::string>* other_tier_listing,
                                        Bytes& payload, RankRecovery& out) {
  const bool from_shared = (tier == storage::Tier::kShared);
  const std::string path = rank_dir + "/" + name;
  const double t0 = comm.now();
  Status last;

  // 0) Memory tier: a surviving replica of the blob in some peer's RAM is
  //    the fastest source by orders of magnitude (wire vs shared-fs
  //    contention), so it is tried before any file I/O. Replicas are keyed
  //    by base name — strip the shared tier's drain stamp. Every fetched
  //    copy is CRC-verified like a file read; a corrupt replica falls to
  //    the next holder, and an exhausted holder list falls down the file
  //    ladder (counted as a miss) — the memory tier can only shortcut
  //    recovery, never lose to it.
  if (opts_.memory_replication_k > 0) {
    const std::string mpath = rank_dir + "/" + strip_drain_stamp(name);
    storage::ReplicaStore& mem = fs_->memory();
    for (int holder : mem.holders_of(mpath)) {
      Bytes raw;
      if (!mem.get(holder, mpath, raw, nullptr).ok()) continue;
      if (holder == rank_) {
        // The replica sits in this process's own memory: no wire.
        comm.compute(mem.cost_of(raw.size(), 1));
      } else {
        const int rel = comm.rel_of_global(holder);
        if (rel < 0) continue;
        if (auto s = comm.rma_get(rel, raw.size()); !s.ok()) continue;
      }
      if (verify_copy(comm, raw, payload, out).ok()) {
        integ_.replica_hits++;
        if (trace_) {
          trace_->span(kCkptReplicaFetch, kCatCkpt, t0, comm.now());
          trace_->span(kCkptRead, kCatCkpt, t0, comm.now());
        }
        metrics::MetricsRegistry::global().add("ckpt.replica_hits", rank_);
        metrics::MetricsRegistry::global().add(
            "ckpt.replica_read_bytes", rank_, static_cast<double>(raw.size()));
        return Status::Ok();
      }
    }
    integ_.replica_misses++;
    metrics::MetricsRegistry::global().add("ckpt.replica_misses", rank_);
  }

  // 1) Primary tier, on the storage retry ladder. A retry redraws both
  //    transient read failures and transient corrupt-on-read; the backoff
  //    elapses on the reader's virtual clock (and, unlike a write backoff,
  //    is not write time). Attempt 1 may come from the prefetch pipeline;
  //    later attempts bypass it (its staged copy may be the corrupt one).
  //    A failed stage is the pipeline's error, not the primary tier's (e.g.
  //    no local disk to stage on), so unless the file is gone it is
  //    retried as kIo by a direct read.
  last = storage::RetryPolicy::run(
      [&](int attempt) -> Status {
        Bytes raw;
        double cost = 0.0;
        Status s;
        if (prefetch && attempt == 1) {
          s = prefetch->read(prefetch_index, comm.now(), raw, &cost);
          if (!s.ok() && s.code() != ErrorCode::kNotFound) {
            s = {ErrorCode::kIo, s.message()};
          }
        } else {
          s = fs_->read_file(tier, src_node, path, raw, &cost, from_shared ? conc_ : 1);
        }
        if (!s.ok()) return s;
        comm.compute(cost);
        return verify_copy(comm, raw, payload, out);
      },
      [&](double backoff) {
        comm.compute(backoff);
        book_retry(comm);
      });
  if (last.ok()) {
    if (trace_) trace_->span(kCkptRead, kCatCkpt, t0, comm.now());
    return last;
  }

  // 2) The other tier's replica. Reading shared (detect/resume): a process
  //    crash leaves the dead rank's node-local file intact — strip the
  //    drain stamp to find it. Reading local (restart): the drained shared
  //    copy carries a stamp suffix — search the shared listing for it.
  Bytes raw;
  double cost = 0.0;
  Status fb;
  if (from_shared) {
    fb = fs_->read_file(storage::Tier::kLocal, src_node,
                        rank_dir + "/" + strip_drain_stamp(name), raw, &cost, 1);
  } else {
    if (other_tier_listing->empty()) {
      (void)fs_->list_dir(storage::Tier::kShared, src_node, rank_dir,
                          *other_tier_listing);
    }
    const auto found =
        std::find_if(other_tier_listing->begin(), other_tier_listing->end(),
                     [&](const std::string& c) { return strip_drain_stamp(c) == name; });
    fb = found == other_tier_listing->end()
             ? Status{ErrorCode::kNotFound, "no shared replica of " + path}
             : fs_->read_file(storage::Tier::kShared, src_node,
                              rank_dir + "/" + *found, raw, &cost, conc_);
  }
  if (fb.ok()) {
    comm.compute(cost);
    fb = verify_copy(comm, raw, payload, out);
    if (fb.ok()) {
      integ_.tier_fallbacks++;
      out.tier_fallbacks++;
      if (trace_) {
        trace_->instant(kCkptTierFallback, kCatCkpt, comm.now());
        trace_->span(kCkptRead, kCatCkpt, t0, comm.now());
      }
      metrics::MetricsRegistry::global().add("ckpt.tier_fallbacks", rank_);
      return fb;
    }
    last = fb;
  } else if (last.code() == ErrorCode::kNotFound) {
    last = fb;
  }

  // 3) Quarantine: no valid replica anywhere. The caller skips this file
  //    (bounded work lost, reprocessed from input) instead of aborting.
  integ_.files_quarantined++;
  out.quarantined++;
  if (trace_) {
    trace_->instant(kCkptQuarantine, kCatCkpt, comm.now());
    trace_->span(kCkptRead, kCatCkpt, t0, comm.now());
  }
  metrics::MetricsRegistry::global().add("ckpt.files_quarantined", rank_);
  FTMR_WARN << "rank " << rank_ << " quarantined checkpoint " << path << ": "
            << last.to_string();
  return {ErrorCode::kCorrupt, "no valid replica of " + path};
}

Status CheckpointManager::load_rank_stage(simmpi::Comm& comm, const CkptRead& read,
                                          int src_node, bool from_shared,
                                          double horizon, RankRecovery& out) {
  const std::string rank_dir = checkpoint_rank_dir(read.rank);
  const storage::Tier tier =
      from_shared ? storage::Tier::kShared : storage::Tier::kLocal;
  std::vector<std::string> names;
  if (auto s = fs_->list_dir(tier, src_node, rank_dir, names); !s.ok()) return s;

  // Union in blobs the memory tier holds that the file listing misses:
  // an undrained delta lost to the horizon (or dropped by a faulty write)
  // can still be served from a peer's RAM. Memory names carry no drain
  // stamp, so they bypass the horizon filter below by construction — the
  // replica was durable in a survivor's memory the moment the owner's
  // rma push completed, which is exactly the tail the file tiers lose.
  if (opts_.memory_replication_k > 0) {
    std::set<std::string> have;
    for (const std::string& n : names) have.insert(strip_drain_stamp(n));
    const std::string prefix = rank_dir + "/";
    for (const std::string& p : fs_->memory().all_paths()) {
      if (p.size() <= prefix.size() || p.compare(0, prefix.size(), prefix) != 0) {
        continue;
      }
      std::string base = p.substr(prefix.size());
      if (have.insert(base).second) names.push_back(std::move(base));
    }
  }

  // Sorted names give sequence order per (kind, id). Filter to the read's
  // stage, kinds and ids, and (for shared reads) to checkpoints drained
  // before the horizon.
  std::vector<std::pair<CkptFileName, std::string>> files;
  for (const std::string& n : names) {
    CkptFileName p;
    if (!parse_checkpoint_name(n, p)) continue;
    if (p.stage != read.stage) continue;
    if (from_shared && horizon >= 0.0 &&
        p.drained_usec > static_cast<int64_t>(horizon * 1e6)) {
      continue;  // this checkpoint had not finished draining — lost
    }
    if (!(read.kinds & kind_bit(p.kind))) continue;
    if (!read.every_id && !read.ids.count(p.id)) continue;
    files.emplace_back(std::move(p), n);
  }
  std::sort(files.begin(), files.end(), [](const auto& a, const auto& b) {
    return std::tie(a.first.kind, a.first.id, a.first.seq) <
           std::tie(b.first.kind, b.first.id, b.first.seq);
  });

  // Optional prefetch staging for shared reads (Sec. 5.1): the reads below
  // then hit the local disk, stalling only when they outrun the pipeline.
  std::unique_ptr<storage::Prefetcher> prefetch;
  if (from_shared && opts_.prefetch_recovery && !files.empty()) {
    prefetch = std::make_unique<storage::Prefetcher>(fs_, node_, conc_);
    prefetch->set_trace(trace_);
    std::vector<std::string> paths;
    paths.reserve(files.size());
    for (const auto& [p, n] : files) paths.push_back(rank_dir + "/" + n);
    if (auto s = prefetch->start(paths, "prefetch/r" + std::to_string(read.rank),
                                 comm.now());
        !s.ok()) {
      return s;
    }
  }

  // Files are applied in (kind, id, seq) order. Delta chains (map, red)
  // must be replayed from a contiguous prefix: once one sequence element is
  // quarantined, every later delta of that (kind, id) would merge onto an
  // inconsistent base, so the chain is poisoned from that point on. The
  // verified prefix already applied stays usable; the tail is bounded work
  // the recovery engine reprocesses from input. Snapshot kinds (part, out)
  // replace: the newest segment that verifies wins (a re-executed shuffle
  // or stage rewrites its snapshot under a fresh sequence number). A red
  // delta older than the applied partition snapshot reduced a superseded
  // shuffle's content and is dropped — merging it would double-count; the
  // kind sort order ("part" < "red") guarantees the snapshot's sequence
  // number is known before its reduce chain is replayed.
  std::vector<std::string> other_listing;  // lazy shared listing for fallback
  std::set<std::pair<std::string, uint64_t>> poisoned;
  std::map<int, int> part_seq_applied;  // partition -> seq of adopted snapshot
  for (size_t i = 0; i < files.size(); ++i) {
    const auto& [p, n] = files[i];
    if (poisoned.count({p.kind, p.id})) continue;
    Bytes data;
    if (auto s = read_verified(comm, tier, src_node, rank_dir, n, prefetch.get(),
                               i, &other_listing, data, out);
        !s.ok()) {
      if (p.kind == kMap || p.kind == kRed) poisoned.insert({p.kind, p.id});
      continue;
    }

    // Decode only mutates `out` after every field of the payload has been
    // read successfully, so a decode failure never leaves a partial merge.
    const auto decode = [&]() -> Status {
      ByteReader r(data);
      if (p.kind == kMap) {
        uint64_t task = 0, start = 0, pos = 0;
        Bytes blob;
        if (auto s = r.get(task); !s.ok()) return s;
        if (auto s = r.get(start); !s.ok()) return s;
        if (auto s = r.get(pos); !s.ok()) return s;
        if (auto s = r.get_blob(blob); !s.ok()) return s;
        mr::KvBuffer delta;
        if (auto s = delta.adopt(std::move(blob)); !s.ok()) return s;
        auto& mt = out.map_tasks[task];
        if (!extend_chain(mt.pos, mt.kv, start, pos, delta)) {
          poisoned.insert({p.kind, p.id});
        }
      } else if (p.kind == kPart || p.kind == kOut) {
        int32_t part = 0;
        Bytes blob;
        if (auto s = r.get(part); !s.ok()) return s;
        if (auto s = r.get_blob(blob); !s.ok()) return s;
        mr::KvBuffer kv;
        if (auto s = kv.adopt(std::move(blob)); !s.ok()) return s;
        // A snapshot: the newest wins.
        (p.kind == kPart ? out.partitions : out.stage_outputs)[part] = std::move(kv);
        if (p.kind == kPart) part_seq_applied[part] = p.seq;
      } else {  // kRed
        int32_t part = 0;
        uint64_t start = 0, done = 0;
        Bytes blob;
        if (auto s = r.get(part); !s.ok()) return s;
        if (auto s = r.get(start); !s.ok()) return s;
        if (auto s = r.get(done); !s.ok()) return s;
        if (auto s = r.get_blob(blob); !s.ok()) return s;
        auto psit = part_seq_applied.find(part);
        if (psit != part_seq_applied.end() && p.seq < psit->second) {
          return Status::Ok();  // reduced a superseded shuffle: stale
        }
        mr::KvBuffer delta;
        if (auto s = delta.adopt(std::move(blob)); !s.ok()) return s;
        // Reduce over a given partition snapshot is deterministic (entry
        // order is sorted), so its deltas chain like map deltas.
        auto& rr = out.reduce[part];
        if (!extend_chain(rr.entries_done, rr.out, start, done, delta)) {
          poisoned.insert({p.kind, p.id});
        }
      }
      return Status::Ok();
    };
    if (auto s = decode(); !s.ok()) {
      // Passed CRC but would not decode (stale layout, format bug): treat
      // exactly like a corrupt file — quarantine and skip, never abort.
      integ_.files_quarantined++;
      out.quarantined++;
      if (p.kind == kMap || p.kind == kRed) poisoned.insert({p.kind, p.id});
      FTMR_WARN << "rank " << rank_ << " quarantined undecodable checkpoint "
                << rank_dir << "/" << n << ": " << s.to_string();
      continue;
    }
  }
  return Status::Ok();
}

}  // namespace ftmr::core
