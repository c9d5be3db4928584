// Tests for the observability layer: TraceRecorder/MetricsRegistry units,
// shuffle span instrumentation, and the flagship cross-check — a wordcount
// run with an injected failure whose cat-"phase" span sums must agree with
// the TimeBuckets decomposition (the trace IS the decomposition, exported).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "apps/graph.hpp"
#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "common/hash.hpp"
#include "common/metrics.hpp"
#include "core/ftjob.hpp"
#include "core/iterjob.hpp"
#include "mr/shuffle.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"

namespace ftmr::metrics {
namespace {

using simmpi::Comm;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// TraceRecorder
// ---------------------------------------------------------------------------

TEST(TraceRecorder, SpansAndInstants) {
  TraceRecorder rec;
  rec.set_tid(3);
  rec.span("map", "phase", 1.0, 2.5);
  rec.span("backwards", "phase", 5.0, 4.0);  // clamped to zero duration
  rec.instant("ckpt.retry", "ckpt", 7.0);
  const auto ev = rec.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].name, "map");
  EXPECT_EQ(ev[0].tid, 3);
  EXPECT_DOUBLE_EQ(ev[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(ev[0].dur, 1.5);
  EXPECT_DOUBLE_EQ(ev[1].dur, 0.0);
  EXPECT_LT(ev[2].dur, 0.0);  // instant marker
  EXPECT_EQ(rec.size(), 3u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
}

// Records live in fixed-size chunks; every one comes back in
// recording order, across chunk boundaries, merges and a clear().
TEST(TraceRecorder, RecordsKeepOrderAcrossChunks) {
  TraceRecorder rec(7), sink;
  for (int round = 0; round < 2; ++round) {
    rec.clear();
    for (int i = 0; i < 300; ++i) {
      rec.span(i % 2 ? "odd" : "even", "phase", i, i + 0.5);
    }
    const std::vector<TraceEvent> ev = rec.events();
    ASSERT_EQ(ev.size(), 300u);
    for (int i = 0; i < 300; ++i) {
      EXPECT_EQ(ev[static_cast<size_t>(i)].name, i % 2 ? "odd" : "even");
      EXPECT_EQ(ev[static_cast<size_t>(i)].ts, i);
      EXPECT_EQ(ev[static_cast<size_t>(i)].tid, 7);
    }
  }
  sink.instant("first", "ckpt", 0.0);
  sink.merge(rec);
  sink.merge(sink);  // a recorder may merge itself
  const std::vector<TraceEvent> all = sink.events();
  ASSERT_EQ(all.size(), 602u);
  EXPECT_EQ(all[0].name, "first");
  EXPECT_EQ(all[301].name, "first");
  EXPECT_EQ(all[601].ts, 299.0);
  EXPECT_DOUBLE_EQ(sink.span_seconds_by_name("phase").at("odd"), 2 * 150 * 0.5);
  EXPECT_TRUE(sink.span_seconds_by_name("no-such-category").empty());
}

TEST(TraceRecorder, MergePreservesSourceTids) {
  TraceRecorder a(1), b(2), sink;
  a.span("map", "phase", 0.0, 1.0);
  b.span("map", "phase", 0.5, 2.0);
  sink.merge(a);
  sink.merge(b);
  auto ev = sink.events();
  ASSERT_EQ(ev.size(), 2u);
  sort_events(ev);
  EXPECT_EQ(ev[0].tid, 1);
  EXPECT_EQ(ev[1].tid, 2);
}

TEST(TraceRecorder, SortIsDeterministic) {
  std::vector<TraceEvent> ev{
      {"b", "c", 2, 1.0, 0.5},
      {"a", "c", 2, 1.0, 0.5},
      {"z", "c", 0, 0.5, 0.1},
      {"a", "c", 1, 1.0, 0.5},
  };
  sort_events(ev);
  EXPECT_EQ(ev[0].name, "z");              // earliest ts first
  EXPECT_EQ(ev[1].tid, 1);                 // then tid
  EXPECT_EQ(ev[2].name, "a");              // then name within tid
  EXPECT_EQ(ev[3].name, "b");
}

TEST(TraceRecorder, SpanSecondsByNameFiltersCatAndInstants) {
  TraceRecorder rec;
  rec.span("map", "phase", 0.0, 2.0);
  rec.span("map", "phase", 3.0, 4.0);
  rec.span("reduce", "phase", 0.0, 0.25);
  rec.span("ckpt.write", "ckpt", 0.0, 9.0);  // other category: excluded
  rec.instant("map", "phase", 5.0);          // instant: excluded
  const auto sums = rec.span_seconds_by_name("phase");
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_DOUBLE_EQ(sums.at("map"), 3.0);
  EXPECT_DOUBLE_EQ(sums.at("reduce"), 0.25);
}

TEST(TraceJson, FormatAndEscaping) {
  TraceRecorder rec;
  rec.set_tid(4);
  rec.span("weird\"name\n", "phase", 0.001, 0.002);
  rec.instant("mark", "ckpt", 0.003);
  const std::string j = trace_json(rec);
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(j.find("\"tid\":4"), std::string::npos);
  // Seconds are exported as microseconds.
  EXPECT_NE(j.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(j.find("\"dur\":1000"), std::string::npos);
  // The quote and newline must come out escaped, never raw.
  EXPECT_NE(j.find("weird\\\"name\\n"), std::string::npos);
  EXPECT_EQ(j.find('\n', 0), j.rfind('\n'));  // at most the trailing newline
}

TEST(TraceJson, WriteToFileAndFailurePath) {
  TraceRecorder rec;
  rec.span("map", "phase", 0.0, 1.0);
  storage::TempDir tmp("ftmr-trace-test");
  const std::string path = (tmp.path() / "trace.json").string();
  ASSERT_TRUE(write_trace_json(path, rec).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), trace_json(rec));
  EXPECT_FALSE(write_trace_json((tmp.path() / "no/such/dir/t.json").string(), rec).ok());
}

// Threads intern fresh names and record at the same time. Each name gets
// one id, the same in every thread, and every record comes back, through
// events() and through merges that run while other threads still record.
TEST(TraceRecorder, ConcurrentInterningKeepsIdsStableAndEventsComplete) {
  static_assert(sizeof(TraceRecord) <= 32);
  constexpr int kThreads = 4;
  constexpr int kNames = 300;  // past the table's first growth
  constexpr int kRounds = 3;
  static std::atomic<int> run{0};  // fresh names on every --gtest_repeat
  const std::string prefix = "concurrent/" + std::to_string(run++) + "/";
  const auto name_of = [&](int i) { return prefix + std::to_string(i); };

  TraceRecorder shared, merged;
  std::vector<std::vector<uint32_t>> ids(kThreads, std::vector<uint32_t>(kNames));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      TraceRecorder own(t);
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kNames; ++k) {
          const int i = (k + 37 * t) % kNames;  // threads race on each insert
          const TraceName name(name_of(i));
          if (round == 0) ids[static_cast<size_t>(t)][static_cast<size_t>(i)] = name.id();
          EXPECT_EQ(name.id(), ids[static_cast<size_t>(t)][static_cast<size_t>(i)]);
          shared.instant(name_of(i), "concurrent", static_cast<double>(k));
          own.span(name, TraceCat("concurrent"), 0.0, 1.0);
        }
        merged.merge(own);
        own.clear();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::set<uint32_t> distinct;
  for (int i = 0; i < kNames; ++i) {
    const uint32_t id = ids[0][static_cast<size_t>(i)];
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[static_cast<size_t>(t)][static_cast<size_t>(i)], id) << name_of(i);
    }
    EXPECT_EQ(TraceName::str(id), name_of(i));
    distinct.insert(id);
  }
  EXPECT_EQ(distinct.size(), static_cast<size_t>(kNames));

  for (const TraceRecorder* rec : {&shared, &merged}) {
    const std::vector<TraceEvent> ev = rec->events();
    ASSERT_EQ(ev.size(), static_cast<size_t>(kThreads * kRounds * kNames));
    std::map<std::string, int> per_name;
    for (const TraceEvent& e : ev) {
      EXPECT_EQ(e.cat, "concurrent");
      per_name[e.name]++;
    }
    ASSERT_EQ(per_name.size(), static_cast<size_t>(kNames));
    for (const auto& [name, n] : per_name) EXPECT_EQ(n, kThreads * kRounds) << name;
  }
  std::map<int, int> per_tid;
  for (const TraceEvent& e : merged.events()) per_tid[e.tid]++;
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(per_tid[t], kRounds * kNames);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, CountersGaugesHistograms) {
  MetricsRegistry reg;
  reg.add("ckpt.writes", 0);
  reg.add("ckpt.writes", 0, 2.0);
  reg.add("ckpt.writes", 1);
  reg.set("comm.size", 0, 8.0);
  reg.set("comm.size", 0, 7.0);  // last write wins
  reg.observe("task.map_seconds", 0, 1.0);
  reg.observe("task.map_seconds", 0, 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 0), 3.0);
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 1), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 2), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("comm.size", 0), 7.0);
  const Summary h = reg.histogram("task.map_seconds", 0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 3.0);
  const std::string j = reg.json();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"ckpt.writes\""), std::string::npos);
  EXPECT_NE(j.find("\"histograms\""), std::string::npos);
  reg.reset();
  EXPECT_DOUBLE_EQ(reg.counter("ckpt.writes", 0), 0.0);
  EXPECT_EQ(reg.histogram("task.map_seconds", 0).count(), 0u);
}

TEST(MetricsRegistry, GlobalIsASingleton) {
  MetricsRegistry& a = MetricsRegistry::global();
  MetricsRegistry& b = MetricsRegistry::global();
  EXPECT_EQ(&a, &b);
}

// ---------------------------------------------------------------------------
// Shuffle span instrumentation
// ---------------------------------------------------------------------------

TEST(ShuffleTrace, EmitsCensusAlltoallAdoptSpans) {
  TraceRecorder trace;
  std::mutex mu;
  Runtime::run(4, [&](Comm& c) {
    mr::SpillableKvBuffer in, out;
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(in.add("key" + std::to_string(i), std::to_string(c.rank())).ok());
    }
    TraceRecorder mine(c.rank());
    mr::ShuffleStats st;
    ASSERT_TRUE(
        mr::shuffle_spill(c, in, out, mr::SpillConfig{}, &st, &mine).ok());
    std::lock_guard<std::mutex> lock(mu);
    trace.merge(mine);
  });
  std::map<std::string, int> names;
  for (const auto& e : trace.events()) {
    EXPECT_EQ(e.cat, "shuffle");
    names[e.name]++;
  }
  EXPECT_EQ(names["shuffle.census"], 4);
  EXPECT_EQ(names["shuffle.alltoall"], 4);
  EXPECT_EQ(names["shuffle.adopt"], 4);
}

// ---------------------------------------------------------------------------
// Flagship: failure-injected wordcount — trace vs TimeBuckets agreement
// ---------------------------------------------------------------------------

TEST(JobTrace, PhaseSpansMatchTimeBucketsUnderFailure) {
  storage::TempDir tmp("ftmr-metrics-job");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  apps::TextGenOptions tg;
  tg.nchunks = 16;
  tg.lines_per_chunk = 48;
  ASSERT_TRUE(apps::generate_text(fs, tg).ok());

  core::FtJobOptions opts;
  opts.mode = core::FtMode::kDetectResumeWC;
  opts.ppn = 2;
  opts.ckpt.records_per_ckpt = 25;

  simmpi::JobOptions sim;
  sim.kills.push_back({3, 0.01, -1});

  TimeBuckets times;
  TraceRecorder trace;
  std::mutex mu;
  bool ok = false;
  simmpi::JobResult r = Runtime::run(8, [&](Comm& c) {
    core::FtJob job(c, &fs, opts);
    Status s = job.run([](core::FtJob& job) -> Status {
      if (auto st = job.run_stage(apps::wordcount_stage(), false, nullptr);
          !st.ok()) {
        return st;
      }
      return job.write_output();
    });
    std::lock_guard<std::mutex> lock(mu);
    times.merge(job.times());
    trace.merge(job.trace());
    if (s.ok()) ok = true;
  }, sim);
  ASSERT_FALSE(r.aborted);
  ASSERT_TRUE(ok);
  EXPECT_EQ(r.killed_count(), 1);

  // Every seconds-valued bucket must be reproducible from the trace alone:
  // per-name sums of cat-"phase" spans agree with TimeBuckets within 1%.
  // (combine_saved_bytes is a byte counter, not a duration — no span.)
  const auto spans = trace.span_seconds_by_name("phase");
  for (const auto& [bucket, seconds] : times.all()) {
    if (bucket == "combine_saved_bytes") continue;
    const auto it = spans.find(bucket);
    if (seconds == 0.0) {
      if (it != spans.end()) {
        EXPECT_NEAR(it->second, 0.0, 1e-9) << bucket;
      }
      continue;
    }
    ASSERT_NE(it, spans.end()) << "no phase spans for bucket " << bucket;
    EXPECT_NEAR(it->second, seconds, 0.01 * seconds) << bucket;
  }
  // A failure-injected run must exercise the full phase vocabulary.
  for (const char* required :
       {"map", "shuffle", "merge", "reduce", "ckpt", "recovery"}) {
    EXPECT_TRUE(spans.count(required)) << "missing phase span: " << required;
    EXPECT_GT(times.get(required), 0.0) << required;
  }
  // And the component layers must have reported in on the same timeline.
  std::map<std::string, size_t> cats;
  for (const auto& e : trace.events()) cats[e.cat]++;
  EXPECT_GT(cats["ckpt"], 0u);
  EXPECT_GT(cats["shuffle"], 0u);
  EXPECT_GT(cats["master"], 0u);

  // The export must round-trip through the file API.
  const std::string path = (tmp.path() / "job_trace.json").string();
  ASSERT_TRUE(write_trace_json(path, trace).ok());
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_GT(ss.str().size(), 1000u);
}

// ---------------------------------------------------------------------------
// Pinned trace streams: seeded jobs on one worker thread record the same
// events run after run, so a hash of the sorted export and the exact
// per-phase span sums pin the stream. A change to how events are stored
// must leave both unchanged.
// ---------------------------------------------------------------------------

/// Per-rank recorders merged in rank order after the job, so the merged
/// stream does not depend on the order in which rank bodies finish.
struct RankTraces {
  explicit RankTraces(int n) : ranks(static_cast<size_t>(n)) {
    for (auto& r : ranks) r = std::make_unique<TraceRecorder>();
  }
  void merge_into(TraceRecorder& out) const {
    for (const auto& r : ranks) out.merge(*r);
  }
  std::vector<std::unique_ptr<TraceRecorder>> ranks;
};

/// Keeps a rank's trace when the rank body leaves scope, also when an
/// aborted submission unwinds it.
class KeepTrace {
 public:
  KeepTrace(RankTraces& t, Comm& c, core::FtJob& job)
      : slot_(*t.ranks[static_cast<size_t>(c.rank())]), job_(job) {}
  KeepTrace(const KeepTrace&) = delete;
  KeepTrace& operator=(const KeepTrace&) = delete;
  ~KeepTrace() { slot_.merge(job_.trace()); }

 private:
  TraceRecorder& slot_;
  core::FtJob& job_;
};

struct StreamPin {
  uint64_t json_hash = 0;
  size_t events = 0;
  std::map<std::string, double> phase;
};

StreamPin pin_of(const TraceRecorder& rec) {
  return {fnv1a(trace_json(rec)), rec.size(), rec.span_seconds_by_name("phase")};
}

void expect_pinned(const StreamPin& got, const StreamPin& want) {
  EXPECT_EQ(got.events, want.events);
  EXPECT_EQ(got.json_hash, want.json_hash) << std::hex << "0x" << got.json_hash;
  EXPECT_EQ(got.phase, want.phase);
  if (got.phase == want.phase) return;
  for (const auto& [name, s] : got.phase) {
    std::printf("  {\"%s\", %a},\n", name.c_str(), s);  // to re-pin
  }
}

// An 8-rank work-conserving wordcount with record checkpoints and k=2
// memory replicas, failure-free.
TEST(TraceStreamPin, WorkConservingWordcountWithReplicas) {
  storage::TempDir tmp("ftmr-trace-pin-wc");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  apps::TextGenOptions tg;
  tg.nchunks = 16;
  tg.lines_per_chunk = 24;
  tg.seed = 0x7ace;
  ASSERT_TRUE(apps::generate_text(fs, tg).ok());

  core::FtJobOptions opts;
  opts.mode = core::FtMode::kDetectResumeWC;
  opts.ppn = 2;
  opts.ckpt.records_per_ckpt = 25;
  opts.ckpt.memory_replication_k = 2;
  simmpi::JobOptions sim;
  sim.worker_threads = 1;
  RankTraces traces(8);
  const simmpi::JobResult r = Runtime::run(8, [&](Comm& c) {
    core::FtJob job(c, &fs, opts);
    KeepTrace keep(traces, c, job);
    EXPECT_TRUE(job.run([](core::FtJob& job) -> Status {
      if (auto st = job.run_stage(apps::wordcount_stage(), false, nullptr);
          !st.ok()) {
        return st;
      }
      return job.write_output();
    }).ok());
  }, sim);
  ASSERT_FALSE(r.aborted);
  TraceRecorder trace;
  traces.merge_into(trace);
  expect_pinned(pin_of(trace), {0x4ad0de3ef673564aULL,
                                412,
                                {{"ckpt", 0x1.a9ad7e27f9186p-5},
                                 {"io_wait", 0x1.89d8c6d612c6bp-5},
                                 {"map", 0x1.4d1fbb5c370d1p-4},
                                 {"merge", 0x1.421db1c1ae8bap-7},
                                 {"reduce", 0x1.db7adabca48b9p-4},
                                 {"shuffle", 0x1.ab69a306d5b22p-6}}});
}

// A 4-rank SSSP on the iterative engine under checkpoint/restart: the
// first submission loses rank 1 at a fixed op and aborts, the second
// primes itself from its checkpoints and finishes. Its "iter.*/<r>"
// instants carry names built at run time.
TEST(TraceStreamPin, CheckpointRestartSsspWithKill) {
  storage::TempDir tmp("ftmr-trace-pin-sssp");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  apps::GraphGenOptions gg;
  gg.nodes = 24;
  gg.nchunks = 4;
  gg.seed = 0x55e9;
  apps::WAdjacency adj;
  ASSERT_TRUE(apps::generate_weighted_graph(fs, gg, 3, &adj).ok());

  core::FtJobOptions opts;
  opts.mode = core::FtMode::kCheckpointRestart;
  opts.ppn = 2;
  opts.ckpt.records_per_ckpt = 8;
  TraceRecorder trace;
  for (int submission = 0; submission < 2; ++submission) {
    simmpi::JobOptions sim;
    sim.worker_threads = 1;
    if (submission == 0) sim.kills.push_back({1, /*vtime=*/-1.0, /*after_ops=*/15});
    RankTraces traces(4);
    const simmpi::JobResult r = Runtime::run(4, [&](Comm& c) {
      core::FtJob job(c, &fs, opts);
      KeepTrace keep(traces, c, job);
      core::IterSpec spec = apps::sssp_spec(/*source=*/0, /*rounds=*/4);
      spec.submission = submission;
      auto drv = std::make_shared<core::IterDriver>(std::move(spec));
      const Status s = job.run(core::IterDriver::as_driver(drv));
      if (submission == 1) {
        EXPECT_TRUE(s.ok()) << s.to_string();
      }
    }, sim);
    EXPECT_EQ(r.aborted, submission == 0);
    traces.merge_into(trace);
  }
  size_t dynamic = 0;
  for (const TraceEvent& e : trace.events()) {
    if (e.cat == "iter") ++dynamic;
  }
  EXPECT_GT(dynamic, 0u);
  expect_pinned(pin_of(trace), {0x348867fe83617ebeULL,
                                648,
                                {{"ckpt", 0x1.71c4651f3e89dp-4},
                                 {"init_recover", 0x1.8b03ff93f4692p-8},
                                 {"io_wait", 0x1.0630b93062c95p-6},
                                 {"map", 0x1.40b10296de282p-4},
                                 {"merge", 0x1.4af775170351cp-6},
                                 {"reduce", 0x1.0b55c17d8e4b2p-3},
                                 {"shuffle", 0x1.eed2b91ff1b7cp-5}}});
}

}  // namespace
}  // namespace ftmr::metrics
