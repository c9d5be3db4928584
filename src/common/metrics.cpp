#include "common/metrics.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "common/hash.hpp"

namespace ftmr::metrics {

namespace {

/// Minimal JSON string escaper (quotes, backslash, control characters).
/// Metric and span names are dotted identifiers, so this is belt-and-braces.
void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// JSON number: finite shortest-ish representation. Non-finite values are
/// clamped to 0 — strict JSON has no NaN/Infinity tokens and every exported
/// quantity is a finite virtual time or count by construction.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

Status write_text_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return {ErrorCode::kIo, "cannot open " + path + " for writing"};
  f << text;
  f.flush();
  if (!f) return {ErrorCode::kIo, "short write to " + path};
  return Status::Ok();
}

/// A process-wide string table that only grows: the names and the
/// categories behind TraceName and TraceCat. A lookup probes an
/// open-addressing index of atomic entry pointers and takes no lock. An
/// insert takes mu_ and, when the index would pass half full, publishes a
/// copy with twice the slots. A reader may still probe a superseded index,
/// so those stay allocated until the table goes; together they hold fewer
/// slots than the current one. So the table grows with the distinct
/// strings, never with the events that name them.
class InternTable {
 public:
  explicit InternTable(size_t limit) : limit_(limit) {
    MutexLock lock(mu_);
    publish_locked(kInitialSlots);
  }
  InternTable(const InternTable&) = delete;
  InternTable& operator=(const InternTable&) = delete;

  uint32_t intern(std::string_view s) {
    const uint64_t h = fnv1a(s);
    if (const Entry* e = lookup(*index_.load(std::memory_order_acquire), s, h)) {
      return e->id;
    }
    MutexLock lock(mu_);
    const Index* ix = index_.load(std::memory_order_relaxed);  // set under mu_
    if (const Entry* e = lookup(*ix, s, h)) return e->id;  // a racing insert
    if (entries_.size() >= limit_) {
      throw std::length_error("trace string table full at " + std::to_string(limit_));
    }
    if (entries_.size() + 1 > ix->capacity()) ix = publish_locked(2 * ix->slots);
    const auto id = static_cast<uint32_t>(entries_.size());
    entries_.push_back(std::make_unique<const Entry>(Entry{std::string(s), h, id}));
    insert(*ix, entries_.back().get());
    return id;
  }

  [[nodiscard]] std::optional<uint32_t> find(std::string_view s) const {
    const Entry* e = lookup(*index_.load(std::memory_order_acquire), s, fnv1a(s));
    return e ? std::optional<uint32_t>(e->id) : std::nullopt;
  }

  /// `id` must come from intern(): the id reached the caller after its
  /// entry was published, so the current index holds it.
  [[nodiscard]] std::string_view str(uint32_t id) const {
    return index_.load(std::memory_order_acquire)
        ->by_id[id]
        .load(std::memory_order_acquire)
        ->text;
  }

 private:
  static constexpr size_t kInitialSlots = 256;

  struct Entry {
    std::string text;
    uint64_t hash;
    uint32_t id;
  };

  struct Index {
    explicit Index(size_t n)
        : slots(n),
          slot(new std::atomic<const Entry*>[n]()),
          by_id(new std::atomic<const Entry*>[n / 2]()) {}
    /// Entries it may hold: at most half its slots, so a probe always
    /// reaches an empty slot.
    [[nodiscard]] size_t capacity() const { return slots / 2; }
    size_t slots;  // a power of two
    std::unique_ptr<std::atomic<const Entry*>[]> slot;   // by hash; null = empty
    std::unique_ptr<std::atomic<const Entry*>[]> by_id;  // by id
  };

  static const Entry* lookup(const Index& ix, std::string_view s, uint64_t h) {
    for (size_t i = h & (ix.slots - 1);; i = (i + 1) & (ix.slots - 1)) {
      const Entry* e = ix.slot[i].load(std::memory_order_acquire);
      if (e == nullptr) return nullptr;
      if (e->hash == h && e->text == s) return e;
    }
  }

  static void insert(const Index& ix, const Entry* e) {
    ix.by_id[e->id].store(e, std::memory_order_release);
    size_t i = e->hash & (ix.slots - 1);
    while (ix.slot[i].load(std::memory_order_relaxed) != nullptr) {
      i = (i + 1) & (ix.slots - 1);
    }
    ix.slot[i].store(e, std::memory_order_release);
  }

  const Index* publish_locked(size_t slots) FTMR_REQUIRES(mu_) {
    indexes_.push_back(std::make_unique<const Index>(slots));
    const Index* ix = indexes_.back().get();
    for (const auto& e : entries_) insert(*ix, e.get());
    index_.store(ix, std::memory_order_release);
    return ix;
  }

  const size_t limit_;
  std::atomic<const Index*> index_{nullptr};
  Mutex mu_{"metrics.intern"};
  std::vector<std::unique_ptr<const Entry>> entries_ FTMR_GUARDED_BY(mu_);  // by id
  std::vector<std::unique_ptr<const Index>> indexes_ FTMR_GUARDED_BY(mu_);
};

// Never destroyed: a detached thread may still record while the process
// exits.
InternTable& name_table() {
  static auto* t = new InternTable(std::numeric_limits<uint32_t>::max());
  return *t;
}

InternTable& cat_table() {
  static auto* t = new InternTable(size_t{std::numeric_limits<uint16_t>::max()} + 1);
  return *t;
}

/// sort_events() order on records: (ts, tid, cat, name, dur), strings
/// compared only when the ids differ.
bool record_less(const TraceRecord& a, const TraceRecord& b) {
  if (a.ts != b.ts) return a.ts < b.ts;
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.cat != b.cat) return TraceCat::str(a.cat) < TraceCat::str(b.cat);
  if (a.name != b.name) return TraceName::str(a.name) < TraceName::str(b.name);
  return a.dur < b.dur;
}

}  // namespace

TraceName::TraceName(std::string_view s) : id_(name_table().intern(s)) {}

std::string_view TraceName::str(uint32_t id) { return name_table().str(id); }

TraceCat::TraceCat(std::string_view s)
    : id_(static_cast<uint16_t>(cat_table().intern(s))) {}

std::string_view TraceCat::str(uint16_t id) { return cat_table().str(id); }

std::optional<uint16_t> TraceCat::find(std::string_view s) {
  const std::optional<uint32_t> id = cat_table().find(s);
  return id ? std::optional<uint16_t>(static_cast<uint16_t>(*id)) : std::nullopt;
}

void TraceRecorder::merge(const TraceRecorder& other) {
  const std::vector<TraceRecord> theirs = other.records();
  MutexLock lock(mu_);
  for (const TraceRecord& r : theirs) append_locked(r);
}

std::vector<TraceRecord> TraceRecorder::records() const {
  MutexLock lock(mu_);
  std::vector<TraceRecord> out;
  out.reserve(n_);
  for (size_t done = 0; done < n_; done += kChunkRecords) {
    const TraceRecord* c = chunks_[done / kChunkRecords].get();
    out.insert(out.end(), c, c + std::min(kChunkRecords, n_ - done));
  }
  return out;
}

std::vector<TraceEvent> TraceRecorder::events() const {
  const std::vector<TraceRecord> recs = records();
  std::vector<TraceEvent> ev;
  ev.reserve(recs.size());
  for (const TraceRecord& r : recs) {
    ev.push_back({std::string(TraceName::str(r.name)), std::string(TraceCat::str(r.cat)),
                  r.tid, r.ts, r.dur, r.op});
  }
  return ev;
}

std::map<std::string, double> TraceRecorder::span_seconds_by_name(
    std::string_view cat) const {
  std::map<std::string, double> sums;
  const std::optional<uint16_t> c = TraceCat::find(cat);
  if (!c) return sums;
  std::map<uint32_t, double> by_id;  // per name, summed in recording order
  for (const TraceRecord& r : records()) {
    if (r.dur < 0.0 || r.cat != *c) continue;
    by_id[r.name] += r.dur;
  }
  for (const auto& [id, s] : by_id) sums.emplace(TraceName::str(id), s);
  return sums;
}

void sort_events(std::vector<TraceEvent>& ev) {
  std::stable_sort(ev.begin(), ev.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.ts, a.tid, a.cat, a.name, a.dur) <
                            std::tie(b.ts, b.tid, b.cat, b.name, b.dur);
                   });
}

std::string trace_json(const TraceRecorder& rec) {
  std::vector<TraceRecord> recs = rec.records();
  std::stable_sort(recs.begin(), recs.end(), record_less);
  std::string out;
  out.reserve(64 + recs.size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceRecord& e : recs) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_escaped(out, TraceName::str(e.name));
    out += ",\"cat\":";
    append_escaped(out, TraceCat::str(e.cat));
    out += ",\"pid\":0,\"tid\":";
    append_number(out, e.tid);
    out += ",\"ts\":";
    append_number(out, e.ts * 1e6);  // Chrome expects microseconds
    if (e.dur >= 0.0) {
      out += ",\"ph\":\"X\",\"dur\":";
      append_number(out, e.dur * 1e6);
    } else {
      out += ",\"ph\":\"i\",\"s\":\"t\"";
    }
    if (e.op >= 0) {
      out += ",\"args\":{\"op\":";
      append_number(out, static_cast<double>(e.op));
      out += '}';
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status write_trace_json(const std::string& path, const TraceRecorder& rec) {
  return write_text_file(path, trace_json(rec));
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry g;
  return g;
}

void MetricsRegistry::add(std::string_view name, int rank, double delta) {
  MutexLock lock(mu_);
  counters_[{std::string(name), rank}] += delta;
}

void MetricsRegistry::set(std::string_view name, int rank, double value) {
  MutexLock lock(mu_);
  gauges_[{std::string(name), rank}] = value;
}

void MetricsRegistry::observe(std::string_view name, int rank, double sample) {
  MutexLock lock(mu_);
  hists_[{std::string(name), rank}].add(sample);
}

double MetricsRegistry::counter(std::string_view name, int rank) const {
  MutexLock lock(mu_);
  const auto it = counters_.find({std::string(name), rank});
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name, int rank) const {
  MutexLock lock(mu_);
  const auto it = gauges_.find({std::string(name), rank});
  return it == gauges_.end() ? 0.0 : it->second;
}

Summary MetricsRegistry::histogram(std::string_view name, int rank) const {
  MutexLock lock(mu_);
  const auto it = hists_.find({std::string(name), rank});
  return it == hists_.end() ? Summary{} : it->second;
}

std::string MetricsRegistry::json() const {
  MutexLock lock(mu_);
  std::string out;
  out += "{\"counters\":[";
  bool first = true;
  for (const auto& [key, v] : counters_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_escaped(out, key.first);
    out += ",\"rank\":";
    append_number(out, key.second);
    out += ",\"value\":";
    append_number(out, v);
    out += '}';
  }
  out += "],\"gauges\":[";
  first = true;
  for (const auto& [key, v] : gauges_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_escaped(out, key.first);
    out += ",\"rank\":";
    append_number(out, key.second);
    out += ",\"value\":";
    append_number(out, v);
    out += '}';
  }
  out += "],\"histograms\":[";
  first = true;
  for (const auto& [key, s] : hists_) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":";
    append_escaped(out, key.first);
    out += ",\"rank\":";
    append_number(out, key.second);
    out += ",\"count\":";
    append_number(out, static_cast<double>(s.count()));
    out += ",\"sum\":";
    append_number(out, s.sum());
    out += ",\"mean\":";
    append_number(out, s.mean());
    out += ",\"min\":";
    append_number(out, s.min());
    out += ",\"max\":";
    append_number(out, s.max());
    out += ",\"stddev\":";
    append_number(out, s.stddev());
    out += '}';
  }
  out += "]}";
  return out;
}

Status MetricsRegistry::write_json(const std::string& path) const {
  return write_text_file(path, json());
}

void MetricsRegistry::reset() {
  MutexLock lock(mu_);
  counters_.clear();
  gauges_.clear();
  hists_.clear();
}

}  // namespace ftmr::metrics
