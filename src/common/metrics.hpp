// metrics.hpp — process-wide metrics registry and trace recording.
//
// The paper's whole evaluation is time decomposition (Fig. 7 CPU vs IO-wait,
// Fig. 10 shuffle/merge/reduce/recovery); this layer makes those
// decompositions exportable instead of trapped in ad-hoc TimeBuckets:
//
//   * MetricsRegistry — process-wide counters, gauges, and Summary-backed
//     histograms, keyed by (metric name, rank label). One instance per
//     process (global()), internally locked, safe from every rank thread.
//   * TraceRecorder — an append-only event log of spans (begin/end) and
//     instant events on the virtual-time axis, exportable as Chrome
//     trace_event JSON (load in chrome://tracing or Perfetto) so a run's
//     phase timeline can be inspected visually and diffed across runs.
//
// Naming scheme (see DESIGN.md "Observability"): dotted lowercase paths,
// "<component>.<what>" — e.g. "ckpt.write", "copier.copy",
// "shuffle.alltoall", "master.broadcast". FtJob phase spans use the bare
// TimeBuckets bucket name ("map", "shuffle", ...) under category "phase" so
// per-bucket span sums can be checked against TimeBuckets::all().
//
// Storage (see DESIGN.md "Span lifecycle"): names and categories are
// interned once, in process-wide string tables that only grow, so an event
// is a 32-byte TraceRecord of ids, kept in chunks that are never copied. A
// lookup of a string already in a table takes no lock, and a call site may
// intern its literals up front (TraceName, TraceCat). Ids are stable across
// recorders, so merge() appends records. Strings appear only when something
// reads the trace: events() builds the TraceEvents, and the JSON export and
// span_seconds_by_name() read the records directly.
//
// Thread model: a TraceRecorder is lock-serialized internally, so rank
// threads and the virtual-time agents they drive (copier, prefetcher) may
// record into one recorder concurrently. Each rank owns one recorder
// (FtJob::trace()); a collector merges them after the rank threads join and
// sorts for a deterministic event order. Times are virtual seconds; export
// converts to the microseconds Chrome's trace viewer expects.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/sync.hpp"

namespace ftmr::metrics {

/// One trace event, as a reader sees it. `dur < 0` marks an instant event
/// (Chrome phase "i"); otherwise a complete span (Chrome phase "X").
/// Zero-duration spans are valid — several instrumented operations are free
/// in virtual time.
struct TraceEvent {
  std::string name;
  std::string cat;
  int tid = 0;        // rank label
  double ts = 0.0;    // virtual seconds
  double dur = -1.0;  // virtual seconds; < 0 = instant event
  /// MPI op index of the recording rank at record time (-1 when no op
  /// probe is installed). Deterministic on failure-free runs, so trace
  /// events double as addressable fault-injection points (the schedule
  /// explorer harvests these and replays kills via KillEvent::after_ops).
  int64_t op = -1;
};

/// An event name, interned in the process-wide name table. Construct one
/// once from a literal and pass it to span()/instant() to skip the lookup.
class TraceName {
 public:
  explicit TraceName(std::string_view s);
  [[nodiscard]] uint32_t id() const noexcept { return id_; }
  /// The string of an id this table handed out.
  [[nodiscard]] static std::string_view str(uint32_t id);

 private:
  uint32_t id_;
};

/// An event category, interned in the process-wide category table (at most
/// 65536 categories; interning one more throws std::length_error).
class TraceCat {
 public:
  explicit TraceCat(std::string_view s);
  [[nodiscard]] uint16_t id() const noexcept { return id_; }
  [[nodiscard]] static std::string_view str(uint16_t id);
  /// The id of `s` if some event was ever recorded under it; never interns.
  [[nodiscard]] static std::optional<uint16_t> find(std::string_view s);

 private:
  uint16_t id_;
};

/// One event as a recorder stores it: TraceEvent with the two strings
/// replaced by table ids. `op` keeps 48 bits (op indices below 2^47).
struct TraceRecord {
  double ts;
  double dur;
  int64_t op : 48;
  uint64_t cat : 16;  // TraceCat id
  uint32_t name;      // TraceName id
  int32_t tid;
};
static_assert(sizeof(TraceRecord) <= 32, "a trace record is at most 32 bytes");
static_assert(std::is_trivial_v<TraceRecord>, "records are copied as plain bytes");

/// Lock-serialized span/instant recorder. See the file comment for the
/// thread model; every method is safe to call from any thread, except
/// set_op_probe (before the recorder is shared).
class TraceRecorder {
 public:
  TraceRecorder() = default;
  explicit TraceRecorder(int tid) : tid_(tid) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Default rank label stamped on subsequently recorded events.
  void set_tid(int tid) {
    MutexLock lock(mu_);
    tid_ = tid;
  }

  /// Install a callback sampling the owning rank's MPI op counter; every
  /// subsequently recorded event is stamped with its value (TraceEvent::op).
  /// Set it once, before the recorder is shared: span() and instant() call
  /// it without a lock. The probe runs outside this recorder's lock, so it
  /// may itself lock (Comm::ops_issued takes the simmpi job mutex).
  void set_op_probe(std::function<int64_t()> probe) { op_probe_ = std::move(probe); }

  /// Record a complete span [t0, t1] (clamped to non-negative duration).
  void span(TraceName name, TraceCat cat, double t0, double t1) {
    record(name, cat, t0, t1 > t0 ? t1 - t0 : 0.0);
  }
  void span(std::string_view name, std::string_view cat, double t0, double t1) {
    span(TraceName(name), TraceCat(cat), t0, t1);
  }

  /// Record an instant event at time `ts`.
  void instant(TraceName name, TraceCat cat, double ts) { record(name, cat, ts, -1.0); }
  void instant(std::string_view name, std::string_view cat, double ts) {
    instant(TraceName(name), TraceCat(cat), ts);
  }

  /// Append a copy of `other`'s records (source tids preserved). Lock
  /// discipline: copies out under the source's lock, appends under this
  /// recorder's lock — the two locks are never held together.
  void merge(const TraceRecorder& other);

  /// The records in recording order.
  [[nodiscard]] std::vector<TraceRecord> records() const;

  /// The events in recording order, with their strings. The one place that
  /// builds strings; call it only to read the trace.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  [[nodiscard]] size_t size() const {
    MutexLock lock(mu_);
    return n_;
  }

  /// Sum of span durations grouped by event name, restricted to category
  /// `cat`. Instant events are excluded. With cat "phase" this reproduces
  /// the seconds-valued TimeBuckets decomposition from the trace alone.
  [[nodiscard]] std::map<std::string, double> span_seconds_by_name(
      std::string_view cat) const;

  void clear() {
    MutexLock lock(mu_);
    chunks_.clear();
    n_ = 0;
  }

 private:
  // Fixed chunks of 64 records (2 KiB): a long trace wastes under one
  // chunk, and a chunk is never copied or moved once allocated.
  static constexpr size_t kChunkRecords = 64;

  void record(TraceName name, TraceCat cat, double ts, double dur) {
    TraceRecord r{.ts = ts,
                  .dur = dur,
                  .op = op_probe_ ? op_probe_() : -1,
                  .cat = cat.id(),
                  .name = name.id(),
                  .tid = 0};
    MutexLock lock(mu_);
    r.tid = tid_;
    append_locked(r);
  }

  void append_locked(const TraceRecord& r) FTMR_REQUIRES(mu_) {
    if (n_ % kChunkRecords == 0) {
      chunks_.push_back(std::make_unique_for_overwrite<TraceRecord[]>(kChunkRecords));
    }
    chunks_.back()[n_ % kChunkRecords] = r;
    ++n_;
  }

  mutable Mutex mu_{"metrics.trace"};
  int tid_ FTMR_GUARDED_BY(mu_) = 0;
  std::function<int64_t()> op_probe_;  // set before sharing, then read-only
  std::vector<std::unique_ptr<TraceRecord[]>> chunks_ FTMR_GUARDED_BY(mu_);
  size_t n_ FTMR_GUARDED_BY(mu_) = 0;  // records in chunks_
};

/// Deterministic order for merged multi-rank event sets: by (ts, tid, cat,
/// name, dur). Export sorts the records by the same key, so byte-identical
/// runs produce byte-identical trace files regardless of merge order.
void sort_events(std::vector<TraceEvent>& ev);

/// Render the recorder's events as Chrome trace_event JSON
/// ({"traceEvents":[...]}), sorted as sort_events() sorts.
[[nodiscard]] std::string trace_json(const TraceRecorder& rec);

/// Write trace_json(rec) to `path` (host filesystem, not the simulated
/// storage — traces are an observability side channel).
Status write_trace_json(const std::string& path, const TraceRecorder& rec);

/// Process-wide metrics: counters (monotone adds), gauges (last write
/// wins), and Summary-backed histograms, each keyed by (name, rank).
/// All operations are serialized on one internal lock; this is cold-path
/// instrumentation, not a hot-loop profiler.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide instance.
  static MetricsRegistry& global();

  void add(std::string_view name, int rank, double delta = 1.0);
  void set(std::string_view name, int rank, double value);
  void observe(std::string_view name, int rank, double sample);

  [[nodiscard]] double counter(std::string_view name, int rank) const;
  [[nodiscard]] double gauge(std::string_view name, int rank) const;
  [[nodiscard]] Summary histogram(std::string_view name, int rank) const;

  /// Flat JSON: {"counters":[{"name","rank","value"}...],"gauges":[...],
  /// "histograms":[{"name","rank","count","sum","mean","min","max",
  /// "stddev"}...]}.
  [[nodiscard]] std::string json() const;
  Status write_json(const std::string& path) const;

  /// Drop everything (tests; benches that isolate per-figure metrics).
  void reset();

 private:
  using Key = std::pair<std::string, int>;  // (metric name, rank label)
  mutable Mutex mu_{"metrics.registry"};
  std::map<Key, double> counters_ FTMR_GUARDED_BY(mu_);
  std::map<Key, double> gauges_ FTMR_GUARDED_BY(mu_);
  std::map<Key, Summary> hists_ FTMR_GUARDED_BY(mu_);
};

}  // namespace ftmr::metrics
