#include "core/ftjob.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <type_traits>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "mr/accounting.hpp"
#include "mr/shuffle.hpp"

namespace ftmr::core {

namespace {

// Phase spans' category, interned once (metrics::TraceCat).
const metrics::TraceCat kCatPhase{"phase"};

/// Spill I/O time the stores accrued since the last call, added in store
/// order onto `io` (chaining two calls keeps one left-to-right sum).
double take_spill_io(std::map<int, mr::SpillableKvBuffer>& stores,
                     double io = 0.0) {
  for (auto& [p, store] : stores) io += store.take_io_seconds();
  return io;
}
}  // namespace

FtJob::FtJob(simmpi::Comm& world, storage::StorageSystem* fs, FtJobOptions opts)
    : world_(world), wc_(world), fs_(fs), opts_(std::move(opts)),
      p0_(world.size()) {
  owners_.part_owner.resize(static_cast<size_t>(p0_));
  for (int p = 0; p < p0_; ++p) owners_.part_owner[p] = p;  // identity group at start
  const int me = world_.global_rank();
  if (me < p0_) owners_.owned.push_back(me);

  master_ = std::make_unique<DistributedMaster>(wc_);
  ckpt_ = std::make_unique<CheckpointManager>(fs_, node(), world_.global_rank(),
                                              opts_.ckpt, p0_, opts_.ppn);
  trace_.set_tid(world_.global_rank());
  trace_.set_op_probe([this] { return world_.ops_issued(); });
  master_->set_trace(&trace_);
  ckpt_->set_trace(&trace_);
  if (opts_.mode == FtMode::kCheckpointRestart && opts_.ckpt.enabled) {
    prime_from_own_checkpoints();
  }
}

void FtJob::charge_span(const char* bucket, double t0) {
  const double t1 = wc_.now();
  times_.charge(bucket, t1 - t0);
  trace_.span(metrics::TraceName(bucket), kCatPhase, t0, t1);
}

void FtJob::charge_cost(const char* bucket, double cost) {
  wc_.compute(cost);
  times_.charge(bucket, cost);
  const double t1 = wc_.now();
  trace_.span(metrics::TraceName(bucket), kCatPhase, t1 - cost, t1);
}

int FtJob::node() const noexcept { return world_.global_rank() / opts_.ppn; }

bool FtJob::is_failure(const Status& s) const noexcept {
  switch (s.code()) {
    case ErrorCode::kProcFailed:
    case ErrorCode::kProcFailedPending:
    case ErrorCode::kRevoked:
      return true;
    default:
      return false;
  }
}

// The delta flush and the commit point of both loops (defined ahead of
// check(), whose C/R error handler instantiates flush_delta).

template <class P>
Status FtJob::flush_delta(int stage, uint64_t id, P& pr) {
  Status s;
  if constexpr (std::is_same_v<P, TaskProgress>) {
    s = ckpt_->map_ckpt(wc_, stage, id, pr.last_ckpt_pos, pr.pos, pr.pending_delta);
  } else {
    s = ckpt_->reduce_ckpt(wc_, stage, static_cast<int>(id), pr.last_ckpt_pos,
                           pr.pos, pr.pending_delta);
  }
  if (!s.ok()) return s;
  pr.pending_delta.clear();
  pr.last_ckpt_pos = pr.pos;
  return s;
}

template <class P>
Status FtJob::checkpoint_delta(int stage, uint64_t id, P& pr) {
  const double t0 = wc_.now();
  if (auto s = check(flush_delta(stage, id, pr)); !s.ok()) return s;
  charge_span("ckpt", t0);
  return Status::Ok();
}

template <class P>
Status FtJob::commit(int stage, uint64_t id, P& pr) {
  // Record-granularity checkpoint every records_per_ckpt commits.
  if (opts_.ckpt.enabled &&
      opts_.ckpt.granularity == CkptOptions::Granularity::kRecord &&
      static_cast<int64_t>(pr.pos - pr.last_ckpt_pos) >= opts_.ckpt.records_per_ckpt) {
    if (auto s = checkpoint_delta(stage, id, pr); !s.ok()) return s;
  }
  // Master progress + eager failure observation (every few commits, not
  // every record, to keep the real-time overhead of the simulator low).
  if ((pr.pos & 0x3f) == 0) {
    if constexpr (std::is_same_v<P, TaskProgress>) {
      master_->on_task_progress(id, pr.pos, 0);
      master_->observe(map_bytes_done_, wc_.now());
    }
    if (!wc_.failed_ranks().empty()) {
      return check({ErrorCode::kProcFailed, "failure observed at commit"});
    }
  }
  return Status::Ok();
}

Status FtJob::check(Status s) {
  if (s.ok() || !is_failure(s)) return s;
  switch (opts_.mode) {
    case FtMode::kNone:
      // Baseline behaviour: stock MPI semantics, errors are fatal.
      wc_.abort(1);
    case FtMode::kCheckpointRestart: {
      // The paper's custom error handler (Sec. 4.1): preserve the local
      // consistent state, then propagate the failure by terminating — the
      // process manager broadcasts it and traps every surviving rank here.
      // Only record-granularity checkpointing may preserve partial-task
      // state; chunk granularity commits whole chunks only (Sec. 4.1.2 —
      // "all work on partially processed input chunks will be lost").
      if (opts_.ckpt.granularity == CkptOptions::Granularity::kRecord) {
        for (auto& [sid, st] : stages_) {
          for (auto& [task, tp] : st.tasks) {
            if (!tp.pending_delta.empty()) (void)flush_delta(sid, task, tp);
          }
          for (auto& [p, rp] : st.reduce) {
            if (!rp.pending_delta.empty()) {
              (void)flush_delta(sid, static_cast<uint64_t>(p), rp);
            }
          }
        }
      }
      wc_.abort(2);
    }
    case FtMode::kDetectResumeWC:
    case FtMode::kDetectResumeNWC:
      throw FailureDetected{std::move(s)};
  }
  return s;
}

Status FtJob::run(const Driver& driver) {
  bool pending_recover = false;
  for (;;) {
    try {
      if (pending_recover) {
        pending_recover = false;
        recoveries_++;
        const double t0 = wc_.now();
        recover();
        charge_span("recovery", t0);
      }
      stage_cursor_ = 0;
      return driver(*this);
    } catch (const FailureDetected& f) {
      FTMR_INFO << "rank " << world_.global_rank()
                << " detected failure: " << f.cause.to_string();
      pending_recover = true;
    }
  }
}

size_t FtJob::pending_delta_bytes() const noexcept {
  size_t n = 0;
  for (const auto& [sid, st] : stages_) {
    for (const auto& [task, tp] : st.tasks) n += tp.pending_delta.bytes();
    for (const auto& [p, rp] : st.reduce) n += rp.pending_delta.bytes();
  }
  return n;
}

int FtJob::owner_rel(int partition) const {
  return wc_.rel_of_global(owners_.part_owner[static_cast<size_t>(partition)]);
}

int FtJob::task_owner(uint64_t t) const {
  const auto it = owners_.task_reassign.find(t);
  return it != owners_.task_reassign.end() ? it->second : assign_task_to_rank(t, p0_);
}

std::vector<uint64_t> FtJob::my_task_ids(bool kv_input) const {
  std::vector<uint64_t> mine;
  if (kv_input) {
    for (int p : owned_partitions()) mine.push_back(static_cast<uint64_t>(p));
    return mine;
  }
  const int me = world_.global_rank();
  for (uint64_t t = 0; t < chunks_.size(); ++t) {
    if (task_owner(t) == me) mine.push_back(t);
  }
  return mine;
}

Status FtJob::list_chunks() {
  if (!chunks_.empty()) return Status::Ok();
  return fs_->list_dir(storage::Tier::kShared, node(), opts_.input_dir, chunks_);
}

// ---------------------------------------------------------------------------
// task runner (Algorithm 1): read - map - commit loop
// ---------------------------------------------------------------------------

void FtJob::charge_skip(const Progress& pr) {
  if (pr.pos > 0) {
    charge_cost("skip", static_cast<double>(pr.pos) * kSkipCostPerRecord);
  }
}

Status FtJob::allgather_union(std::span<const int> mine, std::set<int>& out) {
  ByteWriter w;
  w.put<uint32_t>(static_cast<uint32_t>(mine.size()));
  for (int id : mine) w.put<int32_t>(id);
  std::vector<Bytes> gathered;
  if (auto s = wc_.allgather(w.bytes(), gathered); !s.ok()) return s;
  for (const Bytes& b : gathered) {
    ByteReader r(b);
    uint32_t n = 0;
    (void)r.get(n);
    for (uint32_t i = 0; i < n; ++i) {
      int32_t id = 0;
      (void)r.get(id);
      out.insert(id);
    }
  }
  return Status::Ok();
}

Status FtJob::run_one_map_task(const StageFns& fns, bool kv_input, int stage,
                               StageState& st, uint64_t task) {
  TaskProgress& tp = st.tasks[task];
  if (tp.done) return Status::Ok();
  const double task_start = wc_.now();
  if (tp.parts.empty()) tp.parts.resize(static_cast<size_t>(p0_));

  // -- fetch input --
  std::string chunk;                 // file-task payload
  const mr::KvBuffer* kv_in = nullptr;  // kv-task payload
  if (!kv_input) {
    Bytes data;
    double cost = 0.0;
    if (auto s = fs_->read_file(storage::Tier::kShared, node(),
                                opts_.input_dir + "/" + chunks_[task], data,
                                &cost, p0_);
        !s.ok()) {
      return s;
    }
    charge_cost("io_wait", cost);
    chunk.assign(reinterpret_cast<const char*>(data.data()), data.size());
  } else {
    auto pit = stages_.find(stage - 1);
    if (pit == stages_.end()) {
      return {ErrorCode::kFailedPrecondition, "kv-input stage without predecessor"};
    }
    kv_in = &pit->second.outputs[static_cast<int>(task)];
  }

  master_->on_task_start(task, kv_input ? kv_in->bytes() : chunk.size());

  // -- recovery fast-path: skip records committed before the failure --
  std::unique_ptr<FileRecordReader<int64_t, std::string>> reader_holder =
      fns.make_reader ? fns.make_reader()
                      : std::make_unique<TextLineReader>();
  FileRecordReader<int64_t, std::string>& reader = *reader_holder;
  size_t kv_cursor = 0;
  if (!kv_input) reader.open(task, chunk);
  if (tp.pos > 0) {
    if (!kv_input) {
      reader.skip(tp.pos);
    } else {
      kv_cursor = tp.pos;
    }
  }
  charge_skip(tp);

  // -- the Algorithm-1 loop: while next() { map(); commit(); } --
  const double map_cost = current_map_cost(fns);
  mr::KvBuffer emitted;
  std::string key_storage, value_storage;
  for (;;) {
    std::string_view key, value;
    if (!kv_input) {
      int64_t line_no = 0;
      if (!reader.next(line_no, value_storage)) break;
      key_storage = std::to_string(line_no);
      key = key_storage;
      value = value_storage;
    } else {
      if (kv_cursor >= kv_in->size()) break;
      const mr::KvView p = kv_in->view(kv_cursor++);
      key = p.key;
      value = p.value;
    }
    emitted.clear();
    fns.map(key, value, emitted);
    mr::tap_records(mr::kTapMapEmitted, world_.global_rank(), emitted.size());
    for (size_t i = 0; i < emitted.size(); ++i) {
      // Route each emitted record by key hash; the record bytes are already
      // wire-encoded in `emitted`'s arena, so both the partition copy and
      // the checkpoint delta are single memcpys. Without checkpoints no
      // delta is ever written (or cleared), so none is kept.
      const int part = partition_of_key(emitted.view(i).key, p0_);
      tp.parts[static_cast<size_t>(part)].append_record_from(emitted, i);
      if (opts_.ckpt.enabled) tp.pending_delta.append_record_from(emitted, i);
    }
    wc_.compute(map_cost);
    map_bytes_done_ += static_cast<double>(key.size() + value.size());
    tp.pos++;
    if (auto s = commit(stage, task, tp); !s.ok()) return s;
  }

  // -- task completion: flush the tail checkpoint --
  if (!tp.pending_delta.empty()) {
    if (auto s = checkpoint_delta(stage, task, tp); !s.ok()) return s;
  }
  // Completed task: move its partitioned output into the stage's paged
  // stores so residency drops back to O(budget) before the next task.
  // absorb_kv keeps a page it could not spill resident (over budget, never
  // lost), so a spill error degrades instead of losing data. A task run
  // after the map boundary (re-entry, patch-up) may append to a parked
  // store: open() loads it back first.
  const MapStores::Make make = make_map_store(stage);
  for (int p = 0; p < p0_; ++p) {
    mr::KvBuffer& part = tp.parts[static_cast<size_t>(p)];
    if (part.empty()) continue;
    mr::SpillableKvBuffer* store = nullptr;
    if (auto s = st.map_output.open(p, make, store); !s.ok()) return s;
    if (auto s = store->absorb_kv(std::move(part)); !s.ok()) {
      FTMR_WARN << "rank " << world_.global_rank() << " map output for "
                << "partition " << p
                << " spill degraded to resident: " << s.to_string();
    }
  }
  tp.parts.clear();
  tp.parts.shrink_to_fit();
  tp.pending_delta = {};
  tp.done = true;
  master_->on_task_done(task, tp.pos, 0);
  master_->observe(map_bytes_done_, wc_.now());
  metrics::MetricsRegistry::global().observe("task.map_seconds",
                                             world_.global_rank(),
                                             wc_.now() - task_start);
  return Status::Ok();
}

Status FtJob::map_phase(const StageFns& fns, bool kv_input, int stage,
                        StageState& st) {
  const double t0 = wc_.now();
  for (uint64_t task : my_task_ids(kv_input)) {
    if (auto s = check(run_one_map_task(fns, kv_input, stage, st, task)); !s.ok()) {
      return s;
    }
  }
  // The map stores are sealed: they grew by doubling as tasks absorbed into
  // them. Detect/resume keeps them for the rare orphan rebuild until the
  // stage is done, parked outside the heap; the other modes release them
  // in the shuffle, so they only give back their spare capacity.
  if (rebuilds_orphans() && fs_ != nullptr) {
    st.map_output.park(fs_->segments(), &meter_);
  } else {
    st.map_output.shrink_to_fit();
  }
  if (const double io = st.map_output.take_io_seconds(); io > 0.0) {
    charge_cost("io_wait", io);
  }
  ckpt_->drain(wc_);
  // The status exchange is the map boundary's synchronisation point.
  if (auto s = check(master_->exchange_now()); !s.ok()) return s;
  charge_span("map", t0);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// shuffle
// ---------------------------------------------------------------------------

namespace {

/// Apply a combiner to a KV block: group by key (deterministic order) and
/// feed each group through the combine function.
mr::KvBuffer combine_block(const mr::KvBuffer& in,
                           const StageFns& fns) {
  if (!fns.combine || in.empty()) return in;
  const mr::KmvBuffer grouped = mr::convert_2pass(in);
  mr::KvBuffer out;
  std::vector<std::string_view> scratch;
  for (size_t i = 0; i < grouped.size(); ++i) {
    grouped.values_of(i, scratch);
    fns.combine(grouped.entry(i).key(), scratch, out);
  }
  return out;
}

}  // namespace

// Intermediate KV/KMV data lives in spill-backed buffers: completed map
// tasks move their partitioned output into paged stores, the shuffle
// exchanges budget-bounded rounds of pages, partition checkpoints stream
// page-by-page, and convert/reduce stream the spillable KMV result. Peak
// residency stays O(memory_budget) however large the dataset (see
// DESIGN.md "Out-of-core KV"). Without a budget the same buffers never
// spill: each store is one resident page, the shuffle is one round, and
// partitions checkpoint whole.

mr::SpillConfig FtJob::spill_config(int stage, std::string_view what) const {
  mr::SpillConfig cfg;
  cfg.meter = &meter_;
  if (opts_.memory_budget == 0 || fs_ == nullptr) return cfg;  // never spills
  cfg.fs = fs_;
  cfg.node = node();
  cfg.dir = opts_.spill_dir + "/r" + std::to_string(world_.global_rank()) +
            "/s" + std::to_string(stage) + "/" + std::string(what);
  // One per-rank budget, split evenly between the KV side (map output or
  // received partitions) and the convert/KMV side, which peak together.
  cfg.memory_budget = std::max<size_t>(1, opts_.memory_budget / 2);
  cfg.page_bytes = std::min(opts_.spill_page_bytes,
                            std::max<size_t>(4096, cfg.memory_budget / 8));
  return cfg;
}

MapStores::Make FtJob::make_map_store(int stage) const {
  return [this, stage](int p) {
    return mr::SpillableKvBuffer(spill_config(stage, "map")
                                     .share(static_cast<size_t>(p0_))
                                     .sub("p" + std::to_string(p)));
  };
}

Status FtJob::fill_whole_stores(const StageFns& fns, StageState& st,
                                std::vector<mr::ExchangeRow>& rows) {
  // Where nothing rebuilds orphans from the stores, each hands its arena
  // over and is gone once the rows are framed.
  return st.map_output.whole_blocks(
      !rebuilds_orphans(), [&](mr::ExchangeBlock&& block) -> Status {
        if (fns.combine) {
          // Pre-aggregate the block before the wire (see shuffle_phase).
          mr::KvBuffer kv;
          if (auto s = mr::KvBuffer::deserialize(block.wire, kv); !s.ok()) return s;
          mr::KvBuffer combined = combine_block(kv, fns);
          if (kv.bytes() > combined.bytes()) {
            times_.charge("combine_saved_bytes",
                          static_cast<double>(kv.bytes() - combined.bytes()));
          }
          block = mr::ExchangeBlock(block.partition, std::move(combined).take_wire());
        }
        const int rel = owner_rel(block.partition);
        if (rel < 0) return {ErrorCode::kProcFailed, "partition owner died mid-shuffle"};
        mr::tap_records(mr::kTapShuffleSent, world_.global_rank(), block.records());
        rows[static_cast<size_t>(rel)].push_back(std::move(block));
        return Status::Ok();
      });
}

mr::SpillableKvBuffer& FtJob::partition_store(StageState& st, int stage, int p) {
  auto it = st.partitions.find(p);
  if (it == st.partitions.end()) {
    const size_t owned = owned_partitions().size();
    it = st.partitions
             .emplace(p, mr::SpillableKvBuffer(
                             spill_config(stage, "part")
                                 .share(std::max<size_t>(1, owned))
                                 .sub("p" + std::to_string(p))))
             .first;
  }
  return it->second;
}

mr::ExchangeDeliver FtJob::into_partitions(StageState& st, int stage) {
  return [this, &st, stage](int, int p, mr::KvBuffer&& kv) {
    if (auto s = partition_store(st, stage, p).append_page(std::move(kv));
        !s.ok()) {
      // The spill layer keeps a page it could not write resident (over
      // budget, never lost), so this degrades to extra residency.
      FTMR_WARN << "rank " << world_.global_rank() << " partition " << p
                << " spill degraded to resident: " << s.to_string();
    }
    return Status::Ok();
  };
}

Status FtJob::checkpoint_partition(StageState& st, int stage, int p) {
  mr::SpillableKvBuffer& store = partition_store(st, stage, p);
  // A resident partition is framed whole through put(), which also pushes
  // it to the k memory replicas. A budgeted store streams page by page and
  // skips the memory tier: replicas would hold in peer RAM exactly the
  // bytes the budget keeps out of it.
  if (const mr::KvBuffer* whole = store.in_core()) {
    return ckpt_->partition_ckpt(wc_, stage, p, *whole);
  }
  return ckpt_->partition_ckpt_paged(wc_, stage, p, store);
}

Status FtJob::shuffle_phase(const StageFns& fns, int stage, StageState& st) {
  const double t0 = wc_.now();
  for (int p = 0; p < p0_; ++p) {
    if (owner_rel(p) < 0) {
      return check({ErrorCode::kProcFailed, "partition owner died before shuffle"});
    }
  }
  // A failure mid-exchange re-enters here with partial receives absorbed.
  // The send side only reads the map stores, resident or parked (a failure
  // ends the modes that release them in the fill), so dropping the receive
  // stores makes re-entry idempotent.
  st.partitions.clear();

  // Budget-bounded rounds: each round assembles at most round_budget bytes
  // of outgoing pages from the per-partition cursors and combines them;
  // mr::exchange absorbs the receives into paged stores and lets the ranks
  // agree on whether anyone still holds unsent pages. Without a budget the
  // single round is unbounded, sends each store whole (fill_whole_stores)
  // and skips the vote; no store is parked under a budget.
  const bool bounded = opts_.memory_budget > 0;
  const size_t round_budget =
      bounded ? std::max(opts_.spill_page_bytes, opts_.memory_budget / 2)
              : std::numeric_limits<size_t>::max();
  mr::ShuffleStats stats;
  {
    std::map<int, size_t> cursor;  // partition -> next unsent page
    // The round's assembled (copied) or combined blocks.
    std::map<int, mr::KvBuffer> chunks;
    const MapStores::Make make = make_map_store(stage);
    const auto fill = [&](std::vector<mr::ExchangeRow>& rows,
                          bool& more) -> Status {
      if (!bounded) return fill_whole_stores(fns, st, rows);
      std::map<int, mr::SpillableKvBuffer>* stores = nullptr;
      if (auto s = st.map_output.all(make, stores); !s.ok()) return s;
      chunks.clear();
      std::map<int, const mr::KvBuffer*> blocks;
      size_t assembled = 0;
      for (auto& [p, store] : *stores) {
        size_t& cur = cursor[p];
        const size_t npages = store.page_count();
        mr::KvBuffer page;
        while (cur < npages && assembled < round_budget) {
          if (auto s = store.read_page(cur, page); !s.ok()) return s;
          assembled += page.bytes();
          chunks[p].absorb(std::move(page));
          ++cur;
        }
        if (assembled >= round_budget) break;
      }
      for (auto& [p, kv] : chunks) blocks[p] = &kv;
      if (fns.combine) {
        // Pre-aggregate each block before the wire. Combining a partition's
        // round is a valid partial aggregation: the owner's convert
        // regroups across rounds, and combine/reduce are associative by
        // contract.
        for (auto& [p, kv] : blocks) {
          const size_t before = kv->bytes();
          mr::KvBuffer& combined = chunks[p];
          combined = combine_block(*kv, fns);
          kv = &combined;
          if (before > kv->bytes()) {
            times_.charge("combine_saved_bytes",
                          static_cast<double>(before - kv->bytes()));
          }
        }
      }
      for (const auto& [p, kv] : blocks) {
        const int rel = owner_rel(p);
        if (rel < 0) {
          return {ErrorCode::kProcFailed, "partition owner died mid-shuffle"};
        }
        rows[static_cast<size_t>(rel)].push_back({p, kv});
        mr::tap_records(mr::kTapShuffleSent, world_.global_rank(), kv->size());
      }
      for (auto& [p, store] : *stores) {
        if (cursor[p] < store.page_count()) {
          more = true;
          break;
        }
      }
      return Status::Ok();
    };
    if (auto s = check(mr::exchange(wc_, bounded, fill,
                                    into_partitions(st, stage), &stats, &trace_));
        !s.ok()) {
      return s;
    }
  }
  mr::tap_records(mr::kTapShuffleReceived, world_.global_rank(),
                  stats.pairs_received);
  if (const double io = take_spill_io(st.partitions, st.map_output.take_io_seconds());
      io > 0.0) {
    wc_.compute(io);
  }
  // The partition stores are sealed: nothing more arrives, and they hold
  // their records until the convert consumes them. Partition checkpoints
  // make the shuffle result durable: a work-conserving resume after a
  // reduce-phase failure reads exactly these. Every owned partition gets
  // one, including ones that received nothing: restart priming claims
  // shuffle-done only when each owned partition's checkpoint is present.
  const double c0 = wc_.now();
  if (auto s = seal_partitions(stage, st, owned_partitions()); !s.ok()) return s;
  if (opts_.ckpt.enabled) charge_span("ckpt", c0);
  st.phase = kPhaseShuffleDone;
  // Sender-side stores are only needed again by the detect/resume orphan
  // rebuild; the other modes never rebuild, so their pages free now (the
  // unbounded round already released them with its framed rows).
  if (!rebuilds_orphans()) st.map_output.clear();
  if (auto s = check(wc_.barrier()); !s.ok()) return s;
  charge_span("shuffle", t0);
  return Status::Ok();
}

Status FtJob::rebuild_orphan_partitions(const StageFns& fns, int stage,
                                        StageState& st,
                                        const std::vector<int>& missing) {
  const double t0 = wc_.now();
  // Survivors re-exchange only the orphaned partitions, rebuilt from their
  // retained (and patch-up re-executed) map outputs, in one unbounded
  // round. `missing` is the allgathered union, so every rank participates
  // in the same exchange. Orphans are a small subset of P0, so
  // materializing just their blocks keeps residency near the budget.
  // Each rebuilt partition replaces what this rank held (idempotent under
  // retry: it stays in partitions_missing until the rebuild completes) and
  // restarts its reduce.
  std::vector<int> mine;  // ascending, as `missing` is
  for (int p : missing) {
    if (!std::binary_search(owners_.owned.begin(), owners_.owned.end(), p)) continue;
    mine.push_back(p);
    st.partitions.erase(p);
    st.reduce.erase(p);
  }
  {
    std::map<int, mr::KvBuffer> merged;
    const MapStores::Make make = make_map_store(stage);
    const auto fill = [&](std::vector<mr::ExchangeRow>& rows, bool&) -> Status {
      for (int p : missing) {
        mr::KvBuffer& block = merged[p];
        mr::SpillableKvBuffer* store = nullptr;
        if (auto s = st.map_output.find(p, make, store); !s.ok()) return s;
        if (store == nullptr) continue;
        if (auto s = store->for_each_page([&](const mr::KvBuffer& page) {
              block.merge_from(page);
              return Status::Ok();
            });
            !s.ok()) {
          return s;
        }
      }
      if (fns.combine) {
        for (int p : missing) merged[p] = combine_block(merged[p], fns);
      }
      for (int p : missing) {
        const int rel = owner_rel(p);
        if (rel < 0) return {ErrorCode::kProcFailed, "orphan partition owner died"};
        rows[static_cast<size_t>(rel)].emplace_back(p, std::move(merged[p]).take_wire());
      }
      return Status::Ok();
    };
    if (auto s = check(mr::exchange(wc_, /*bounded=*/false, fill,
                                    into_partitions(st, stage), nullptr, &trace_));
        !s.ok()) {
      return s;
    }
  }
  if (auto s = seal_partitions(stage, st, mine); !s.ok()) return s;
  if (const double io = take_spill_io(st.partitions, st.map_output.take_io_seconds());
      io > 0.0) {
    wc_.compute(io);
  }
  st.partitions_missing.clear();
  if (auto s = check(wc_.barrier()); !s.ok()) return s;
  charge_span("recovery", t0);
  return Status::Ok();
}

Status FtJob::seal_partitions(int stage, StageState& st,
                              std::span<const int> parts) {
  for (int p : parts) partition_store(st, stage, p).shrink_to_fit();
  if (!opts_.ckpt.enabled) return Status::Ok();
  for (int p : parts) {
    if (auto s = check(checkpoint_partition(st, stage, p)); !s.ok()) return s;
  }
  ckpt_->drain(wc_);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// reduce
// ---------------------------------------------------------------------------

Status FtJob::reduce_partition(const StageFns& fns, int stage, StageState& st,
                               int p, ReduceProgress& rp) {
  const double reduce_cost = current_reduce_cost(fns);
  if (!rp.kmv) {
    // KV→KMV conversion (the "merge" of Fig. 10), consuming the partition
    // store page by page into a spillable KMV result; without a budget it
    // is one in-core convert. Entry order is the global key order either
    // way, so the reduce-entry cursor is a valid recovery position.
    const double m0 = wc_.now();
    auto kmv = std::make_unique<mr::SpillableKmvBuffer>(
        spill_config(stage, "kmv_p" + std::to_string(p)));
    mr::ConvertStats cst;
    mr::SpillableKvBuffer& in = partition_store(st, stage, p);
    if (auto s = mr::convert_spill(
            in, *kmv, spill_config(stage, "cvt_p" + std::to_string(p)), &cst,
            opts_.convert_segment_bytes, opts_.two_pass_convert);
        !s.ok()) {
      return s;
    }
    double convert_io =
        fs_->cost_of(storage::Tier::kLocal, cst.bytes_moved, cst.passes);
    convert_io += cst.spill_io_seconds;
    convert_io += in.take_io_seconds() + kmv->take_io_seconds();
    wc_.compute(convert_io);
    st.partitions.erase(p);  // consumed by the convert
    rp.kmv = std::move(kmv);
    charge_span("merge", m0);
  }

  charge_skip(rp);
  // The Algorithm-1 reduce loop, driven by the streamed k-way merge.
  // check() may throw FailureDetected out of the stream; rp.kmv survives in
  // the stage state, so re-entry resumes at the committed entry cursor
  // without re-converting.
  mr::KvBuffer emitted;
  if (auto s = rp.kmv->for_each_entry(
          rp.pos,
          [&](std::string_view key,
              std::span<const std::string_view> values) -> Status {
            emitted.clear();
            fns.reduce(key, values, emitted);
            mr::tap_records(mr::kTapReduceEmitted, world_.global_rank(),
                            emitted.size());
            rp.out.merge_from(emitted);
            if (opts_.ckpt.enabled) rp.pending_delta.merge_from(emitted);
            wc_.compute(reduce_cost * static_cast<double>(values.size()));
            rp.pos++;
            return commit(stage, static_cast<uint64_t>(p), rp);
          });
      !s.ok()) {
    return s;
  }
  if (!rp.pending_delta.empty()) {
    if (auto s = checkpoint_delta(stage, static_cast<uint64_t>(p), rp); !s.ok()) {
      return s;
    }
  }
  const double kmv_io = rp.kmv->take_io_seconds();
  if (kmv_io > 0.0) wc_.compute(kmv_io);
  rp.done = true;
  rp.pending_delta = {};
  rp.kmv.reset();
  const mr::KvBuffer& out = st.outputs[p] = std::move(rp.out);
  if (opts_.ckpt.enabled) {
    const double c0 = wc_.now();
    if (auto s = check(ckpt_->stage_output_ckpt(wc_, stage, p, out)); !s.ok()) {
      return s;
    }
    charge_span("ckpt", c0);
  }
  return Status::Ok();
}

Status FtJob::reduce_phase(const StageFns& fns, int stage, StageState& st) {
  const double t0 = wc_.now();
  for (int p : owned_partitions()) {
    ReduceProgress& rp = st.reduce[p];
    if (rp.done) continue;
    if (auto s = reduce_partition(fns, stage, st, p, rp); !s.ok()) return s;
  }
  ckpt_->drain(wc_);
  if (auto s = check(wc_.barrier()); !s.ok()) return s;
  st.phase = kPhaseDone;
  // Nothing reads a done stage's map stores again: WC adoption of a done
  // stage takes its output checkpoints, and NWC drops every stage of a
  // multi-stage job.
  st.map_output.clear();
  charge_span("reduce", t0);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// stage orchestration
// ---------------------------------------------------------------------------

Status FtJob::run_stage(const StageFns& fns, bool kv_input, mr::KvBuffer* output) {
  const int stage = stage_cursor_++;
  if (kv_input && stage == 0) {
    return {ErrorCode::kInvalidArgument, "stage 0 cannot take kv input"};
  }
  if (!kv_input) {
    if (auto s = list_chunks(); !s.ok()) return s;
  }
  StageState& st = stages_[stage];
  st.kv_input = kv_input;
  if (st.phase != kPhaseDone) {
    if (st.phase == kPhaseMap) {
      if (auto s = map_phase(fns, kv_input, stage, st); !s.ok()) return s;
      if (auto s = shuffle_phase(fns, stage, st); !s.ok()) return s;
    }
    // Agree on the orphan-rebuild set: a work-conserving fallback may mark
    // a partition missing on the inheriting rank only, but the rebuild is a
    // collective exchange — everyone must join or nobody may. (On the
    // failure-free path the union is empty and this is one cheap allgather.)
    {
      const std::vector<int> mine(st.partitions_missing.begin(),
                                  st.partitions_missing.end());
      std::set<int> union_missing;
      if (auto s = check(allgather_union(mine, union_missing)); !s.ok()) return s;
      if (!union_missing.empty()) {
        // Patch-up: re-execute every unfinished or newly inherited map task
        // — the dead ranks' contributions to the orphaned partitions can
        // only come from these re-executions.
        for (uint64_t task : my_task_ids(kv_input)) {
          auto it = st.tasks.find(task);
          if (it != st.tasks.end() && it->second.done) continue;
          if (auto s = check(run_one_map_task(fns, kv_input, stage, st, task));
              !s.ok()) {
            return s;
          }
        }
        std::vector<int> missing(union_missing.begin(), union_missing.end());
        if (auto s = rebuild_orphan_partitions(fns, stage, st, missing);
            !s.ok()) {
          return s;
        }
      }
    }
    if (auto s = reduce_phase(fns, stage, st); !s.ok()) return s;
  }
  last_stage_ = stage;
  if (output) {
    output->clear();
    for (int p : owned_partitions()) output->merge_from(st.outputs[p]);
  }
  return Status::Ok();
}

Status FtJob::write_output() {
  if (last_stage_ < 0) {
    return {ErrorCode::kFailedPrecondition, "write_output before any stage"};
  }
  StageState& st = stages_[last_stage_];
  for (int p : owned_partitions()) {
    Bytes payload;
    if (opts_.output_writer) {
      // User-formatted records (Table 1 FileRecordWriter path).
      std::string sink;
      for (mr::KvView pair : st.outputs[p]) {
        opts_.output_writer(pair.key, pair.value, sink);
      }
      payload = to_bytes(sink);
    } else {
      ByteWriter w;
      for (mr::KvView pair : st.outputs[p]) {
        w.put_string(pair.key);
        w.put_string(pair.value);
      }
      payload = std::move(w).take();
    }
    char name[64];
    std::snprintf(name, sizeof(name), "part-%05d", p);
    mr::tap_records(mr::kTapOutputWritten, world_.global_rank(),
                    st.outputs[p].size());
    double cost = 0.0;
    if (auto s = fs_->write_file(storage::Tier::kShared, node(),
                                 opts_.output_dir + "/" + name, payload, &cost,
                                 p0_);
        !s.ok()) {
      return s;
    }
    charge_cost("io_wait", cost);
  }
  return check(wc_.barrier());
}

// ---------------------------------------------------------------------------
// recovery (detect/resume, Sec. 4.2)
// ---------------------------------------------------------------------------

void FtJob::recover() {
  // 1. Failure notification: revoke the work communicator so every
  //    survivor — including ones blocked in collectives — lands in recovery.
  (void)wc_.revoke();

  // 2. Rebuild communication capability: shrink, and move the master onto
  //    the shrunken comm.
  simmpi::Comm new_wc;
  if (auto s = wc_.shrink(new_wc); !s.ok()) {
    throw std::runtime_error("shrink failed: " + s.to_string());
  }
  wc_ = new_wc;
  master_->rebind(wc_);

  // 3. Uniform agreement that everyone reached recovery with the same view.
  int flag = 1;
  (void)wc_.agree(flag);
  wc_.ack_failures();
  world_.ack_failures();

  // 4. Collective census of the dead. Survivors may locally observe
  //    slightly different dead sets (detection is asynchronous), so the
  //    sets are allgathered and unioned — every survivor patches against
  //    the identical census. If yet another rank dies during these
  //    collectives they fail *uniformly* (nobody mutates state), the
  //    FailureDetected unwinds, and recovery restarts cleanly.
  std::set<int> union_dead;
  (void)check(allgather_union(world_.failed_global_ranks(), union_dead));
  std::vector<int> new_dead;
  for (int d : union_dead) {
    if (!known_dead_.count(d)) new_dead.push_back(d);
  }
  FTMR_INFO << "rank " << world_.global_rank() << " recovering; "
            << new_dead.size() << " newly dead, comm now " << wc_.size();
  if (!new_dead.empty()) {
    // Every collective input is gathered before any state changes.
    // Collectives fail uniformly in simmpi, so either every survivor gets
    // past them and applies the identical plan, or none does. Nothing from
    // the plan's loads to the known_dead_ update below can unwind (no
    // check()), so each dead rank's checkpoints are loaded exactly once.
    //
    // Failure horizon: checkpoints that had not drained by the earliest
    // detection time are treated as lost.
    double horizon = wc_.now();
    (void)check(wc_.allreduce_one(simmpi::ReduceOp::kMin, wc_.now(), horizon));
    RecoveryInputs in;
    if (opts_.load_balance) {
      (void)check(
          LoadBalancer::exchange_models(wc_, master_->local_model(), in.models));
    } else {
      in.models.assign(static_cast<size_t>(wc_.size()), LinearModel{});
    }
    in.me = world_.global_rank();
    in.work_conserving = opts_.mode != FtMode::kDetectResumeNWC;
    in.new_dead = new_dead;
    in.dead = union_dead;  // holds known_dead_: the world comm never shrinks
    for (int rel = 0; rel < wc_.size(); ++rel) {
      in.live.push_back(wc_.global_of_rel(rel));
    }
    in.owners = owners_;
    // A failure before the first run_stage (e.g. during job construction)
    // arrives here with `chunks_` still unlisted; without the listing the
    // dead ranks' stage-0 tasks would keep their hash-default owners and
    // silently never execute. The listing is deterministic (shared tier),
    // so every survivor derives the identical task census.
    if (auto s = list_chunks(); !s.ok()) {
      FTMR_WARN << "rank " << world_.global_rank()
                << " could not list input chunks during recovery: "
                << s.to_string();
    }
    for (const std::string& c : chunks_) {
      in.chunk_bytes.push_back(
          fs_->file_size(storage::Tier::kShared, node(), opts_.input_dir + "/" + c));
    }
    for (const auto& [sid, st] : stages_) {
      in.stages.push_back({sid, st.phase, st.kv_input});
    }
    apply_plan(plan_recovery(in), horizon);
  }
  for (int d : new_dead) known_dead_.insert(d);

  // 5. Restore the memory tier's replication invariant before any new work
  //    runs: orphaned blobs regain their replica count now, so the *next*
  //    failure can again recover from peer RAM instead of shared storage.
  //    Routed through check(): a rank dying mid-repair re-enters recovery
  //    cleanly and the interrupted repair is redone against the new census.
  if (opts_.ckpt.enabled && opts_.ckpt.memory_replication_k > 0) {
    (void)check(ckpt_->rereplicate(wc_));
  }
}

void FtJob::apply_plan(const RecoveryPlan& plan, double horizon) {
  owners_ = plan.owners;
  if (plan.drop_stages) stages_.clear();
  if (plan.rebuild) {
    StageState& st = stages_.at(0);
    st.partitions_missing.insert(plan.missing.begin(), plan.missing.end());
    for (uint64_t t : plan.tasks) st.tasks[t] = TaskProgress{};
  }
  // Work-conserving (WC): read the dead ranks' checkpoints from the shared
  // storage, only the files covering the work this rank inherited.
  for (const CkptRead& read : plan.reads) {
    StageState& st = stages_.at(read.stage);
    RankRecovery rec;
    if (Status s = load(read, /*from_shared=*/true, horizon, "recovery_io", rec);
        !s.ok()) {
      FTMR_WARN << "WC recovery load failed for rank " << read.rank << " stage "
                << read.stage << ": " << s.to_string();
    }
    // A kv-input stage's map tasks are partitions, so the dead rank's
    // progress must land on the rank that inherited the *partition*. Keying
    // by inherited file tasks would park the restored output on a rank that
    // never runs the task — and since the shuffle merges every entry in
    // st.tasks, the partition owner's re-execution would then be counted
    // alongside it, duplicating the task's records. A partition checkpoint
    // missing (not drained in time, or quarantined as corrupt) falls back
    // to the NWC rebuild; the inherited map tasks are seeded so the
    // patch-up re-execution covers them.
    const std::set<uint64_t> inherited = plan.tasks_of(st.kv_input);
    const std::vector<int> missing =
        adopt_stage(st, read.stage, rec, inherited, plan.partitions);
    for (int p : missing) st.partitions_missing.insert(p);
    if (!missing.empty()) {
      for (uint64_t t : inherited) st.tasks.try_emplace(t);
    }
  }
}

Status FtJob::load(const CkptRead& read, bool from_shared, double horizon,
                   const char* bucket, RankRecovery& rec) {
  const double r0 = wc_.now();
  const Status s = ckpt_->load_rank_stage(wc_, read, read.rank / opts_.ppn,
                                          from_shared, horizon, rec);
  charge_span(bucket, r0);
  return s;
}

std::vector<int> FtJob::adopt_stage(StageState& st, int stage, RankRecovery& rec,
                                    const std::set<uint64_t>& tasks,
                                    std::span<const int> parts) {
  std::vector<int> missing;
  switch (st.phase) {
    case kPhaseDone:
      // A completed stage: its outputs are the next stage's inputs.
      for (int p : parts) {
        const auto it = rec.stage_outputs.find(p);
        if (it != rec.stage_outputs.end()) st.outputs[p] = std::move(it->second);
      }
      break;
    case kPhaseMap:
      for (uint64_t t : tasks) {
        TaskProgress& tp = st.tasks[t];
        if (tp.done) continue;
        const auto it = rec.map_tasks.find(t);
        if (it == rec.map_tasks.end()) {
          // No usable checkpoint: the task reruns from record 0. When the
          // load quarantined files this is work lost to corruption (not
          // merely an undrained tail) — count it.
          if (rec.quarantined > 0) ckpt_->note_segments_reprocessed(1);
          continue;
        }
        if (it->second.pos <= tp.pos) continue;  // the newer cursor wins
        tp.pos = it->second.pos;
        tp.last_ckpt_pos = tp.pos;
        tp.pending_delta.clear();
        tp.parts.assign(static_cast<size_t>(p0_), mr::KvBuffer{});
        if (opts_.testing_break_recovery) continue;  // drop the KV, keep the cursor
        const mr::KvBuffer& kv = it->second.kv;
        for (size_t i = 0; i < kv.size(); ++i) {
          tp.parts[static_cast<size_t>(partition_of_key(kv.view(i).key, p0_))]
              .append_record_from(kv, i);
        }
      }
      break;
    default:  // kPhaseShuffleDone
      for (int p : parts) {
        const auto it = rec.partitions.find(p);
        if (it == rec.partitions.end()) {
          if (rec.quarantined > 0) ckpt_->note_segments_reprocessed(1);
          // A partition whose snapshot is lost but whose reduce finished
          // keeps its output snapshot (a restart reads it) as the finished
          // reduce; reducing it again would start from an empty partition.
          const auto oit = rec.stage_outputs.find(p);
          if (oit == rec.stage_outputs.end()) {
            missing.push_back(p);
            continue;
          }
          st.reduce[p].done = true;
          st.outputs[p] = std::move(oit->second);
          continue;
        }
        st.partitions.erase(p);
        if (auto s = partition_store(st, stage, p).absorb_kv(std::move(it->second));
            !s.ok()) {
          FTMR_WARN << "rank " << world_.global_rank() << " recovered partition "
                    << p << " spill degraded to resident: " << s.to_string();
        }
        const auto rit = rec.reduce.find(p);
        if (rit == rec.reduce.end()) continue;
        ReduceProgress& rp = st.reduce[p];
        rp.pos = rit->second.entries_done;
        rp.last_ckpt_pos = rp.pos;
        rp.out = std::move(rit->second.out);
      }
      break;
  }
  return missing;
}

// ---------------------------------------------------------------------------
// checkpoint/restart priming (Sec. 4.1)
// ---------------------------------------------------------------------------

void FtJob::prime_from_own_checkpoints() {
  const bool shared = opts_.restart_read_shared;
  const int me = world_.global_rank();
  const std::set<int> present = ckpt_->stages_present(me, node(), shared);
  const int newest = present.empty() ? -1 : *present.rbegin();
  const std::vector<int>& owned = owned_partitions();
  const auto covers_owned = [&owned](const std::map<int, mr::KvBuffer>& m) {
    return std::all_of(owned.begin(), owned.end(),
                       [&m](int p) { return m.count(p) > 0; });
  };
  const auto read = [&](int sid, unsigned kinds, RankRecovery& rec) {
    return load({.stage = sid, .rank = me, .kinds = kinds}, shared, /*horizon=*/-1.0,
                "init_recover", rec);
  };
  // What step 1 below reads of stage `sid`.
  const auto step1_kinds = [&](int sid) {
    return kKindOut | (sid == newest ? kinds_read_at(kPhaseShuffleDone) : 0u);
  };
  // Step 1, my local resume candidate: the furthest (stage, phase) my
  // checkpoints support, read from the snapshots that claim it. Every stage
  // reads its outputs; the newest also reads its partition snapshots (with
  // the reduce deltas over them), since the job may agree to resume it
  // after the shuffle. A stage whose outputs cover every owned partition
  // completed. Claiming shuffle-done requires *every* owned partition's
  // checkpoint — with corruption-tolerant loading a quarantined partition
  // file is simply absent from `rec`, and resuming reduce without it would
  // silently drop its keys. Fall back to map phase and let the shuffle
  // regenerate the partitions. The job-wide resume point is the minimum
  // across ranks.
  struct Claim {
    StagePhase phase = kPhaseMap;
    RankRecovery rec;
  };
  int64_t my_composite = 0;
  std::map<int, Claim> claims;
  for (const int sid : present) {
    Claim c;
    if (!read(sid, kKindOut, c.rec).ok()) continue;
    if (sid == newest && !read(sid, kinds_read_at(kPhaseShuffleDone), c.rec).ok()) {
      continue;
    }
    if (!c.rec.stage_outputs.empty() && covers_owned(c.rec.stage_outputs)) {
      c.phase = kPhaseDone;
    } else if (!c.rec.partitions.empty() && covers_owned(c.rec.partitions)) {
      c.phase = kPhaseShuffleDone;
    } else if (c.rec.quarantined > 0 && !c.rec.partitions.empty()) {
      ckpt_->note_segments_reprocessed(1);  // shuffle re-executed for corruption
    }
    my_composite = static_cast<int64_t>(sid) * 8 + c.phase;
    claims[sid] = std::move(c);
  }
  int64_t agreed = 0;
  if (auto s = wc_.allreduce_one(simmpi::ReduceOp::kMin, my_composite, agreed);
      !s.ok()) {
    return;  // degenerate (e.g. failure during restart): start fresh
  }
  const int agreed_stage = static_cast<int>(agreed / 8);
  const auto agreed_phase = static_cast<StagePhase>(agreed % 8);
  for (auto& [sid, c] : claims) {
    if (sid > agreed_stage) break;  // ahead of the job-wide resume point
    StageState& st = stages_[sid];
    // A stage behind the resume stage completed job-wide, and so did the
    // resume stage itself when every rank's checkpoints prove it done (a
    // failure at a stage/iteration boundary). Priming it to kPhaseDone
    // makes the driver replay fast-forward it and resume at the *next*
    // stage; re-running its reduce from a full cursor would be wasted work
    // and (on the iterative engine) a spurious re-execution of a converged
    // round. The stage every rank resumes in takes the agreed phase.
    st.phase = sid < agreed_stage ? kPhaseDone : agreed_phase;
    // Step 2: read what the applied phase consumes and step 1 did not — the
    // map deltas of a stage resumed in its map phase, or the partition
    // snapshots of an older stage another rank had not finished. What
    // adopt_stage does not take at that phase is dropped first.
    c.rec.keep(kinds_read_at(st.phase) |
               (st.phase == kPhaseShuffleDone ? kKindOut : 0u));
    if (const unsigned rest = kinds_read_at(st.phase) & ~step1_kinds(sid); rest != 0) {
      (void)read(sid, rest, c.rec);
    }
    std::set<uint64_t> tasks;
    for (const auto& [t, m] : c.rec.map_tasks) tasks.insert(t);
    adopt_stage(st, sid, c.rec, tasks, owned);
  }
  primed_from_ckpt_ = !stages_.empty();
  if (primed_from_ckpt_) {
    FTMR_INFO << "rank " << me << " restart: resuming at stage " << agreed_stage
              << " phase " << agreed_phase;
  }
}

}  // namespace ftmr::core
