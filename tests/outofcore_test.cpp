// Out-of-core KV hot path: the spill layer's failure-path guarantees
// (write-retention + retry ladder, budget accounting including the open
// page, drain_to partial-failure semantics), the KMV page codec, the
// streamed shuffle/convert equivalence against the in-core reference under
// randomized page boundaries, and end-to-end budget-mode parity of the
// MR-MPI baseline (FtJob without fault tolerance).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>

#include "apps/wordcount.hpp"
#include "common/rng.hpp"
#include "core/ftjob.hpp"
#include "mr/convert.hpp"
#include "mr/shuffle.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"
#include "tests/test_seed.hpp"

namespace ftmr::mr {
namespace {

using simmpi::Comm;
using simmpi::JobResult;
using simmpi::Runtime;

struct MiniCluster {
  MiniCluster() : tmp("ftmr-ooc-test") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

SpillConfig cfg_of(storage::StorageSystem* fs, std::string dir,
                   size_t page_bytes, size_t budget) {
  SpillConfig c;
  c.fs = fs;
  c.node = 0;
  c.dir = std::move(dir);
  c.page_bytes = page_bytes;
  c.memory_budget = budget;
  return c;
}

std::map<std::string, int64_t> collect_counts(SpillableKvBuffer& buf) {
  std::map<std::string, int64_t> got;
  EXPECT_TRUE(buf.for_each([&](KvView p) { got[std::string(p.key)]++; }).ok());
  return got;
}

// --- bug (a): a failed spill write must never lose the page ---------------

TEST(SpillFailurePath, WriteFailureRetriesOnLadder) {
  MiniCluster cl;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 256, 256);
  // One injected failure: the first spill write fails, the ladder retries
  // and succeeds; nothing is lost and nothing is duplicated.
  cl.fs->inject_io_failures(1);
  std::map<std::string, int64_t> want;
  for (int i = 0; i < 200; ++i) {
    const std::string k = "key_" + std::to_string(i);
    ASSERT_TRUE(buf.add(k, "v").ok());
    want[k]++;
  }
  EXPECT_GE(buf.stats().write_retries, 1);
  EXPECT_EQ(buf.stats().write_failures, 0);
  EXPECT_GT(buf.stats().pages_spilled, 0);
  EXPECT_EQ(collect_counts(buf), want);
}

TEST(SpillFailurePath, ExhaustedWriteLadderRetainsPageResident) {
  MiniCluster cl;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 256, 256);
  std::map<std::string, int64_t> want;
  auto fill = [&](int lo, int hi) {
    Status first;
    for (int i = lo; i < hi; ++i) {
      const std::string k = "key_" + std::to_string(i);
      if (auto s = buf.add(k, "v"); !s.ok() && first.ok()) first = s;
      want[k]++;
    }
    return first;
  };
  ASSERT_TRUE(fill(0, 50).ok());
  // Exhaust the whole ladder (4 attempts per spill; fail well past it).
  cl.fs->inject_io_failures(64);
  const Status failed = fill(50, 200);
  EXPECT_FALSE(failed.ok());  // the error surfaced...
  EXPECT_GT(buf.stats().write_failures, 0);
  // ...but every pair is still present: failed pages stayed resident
  // (over budget, never lost), and reads see them in order.
  EXPECT_EQ(collect_counts(buf), want);
  // The buffer recovers once the storage does.
  ASSERT_TRUE(fill(200, 300).ok());
  EXPECT_EQ(collect_counts(buf), want);
}

// --- bug (b): the budget must count the open page -------------------------

TEST(SpillBudget, ResidencyCountsOpenPage) {
  MiniCluster cl;
  const size_t kPage = 4096;
  const size_t kBudget = 8192;
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", kPage, kBudget);
  const std::string val(100, 'v');
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(buf.add("k" + std::to_string(i), val).ok());
    // The budget bounds closed resident pages PLUS the open page. (The
    // pre-fix code kept budget + page_bytes resident: resident_ was only
    // compared against the budget after excluding the open page.)
    ASSERT_LE(buf.resident_bytes(), kBudget)
        << "residency must include the open page";
  }
  EXPECT_GT(buf.stats().pages_spilled, 0);
}

TEST(SpillBudget, SinglePageLargerThanBudgetSpillsOnClose) {
  MiniCluster cl;
  // page > budget: residency may exceed the budget only while the open
  // page is still filling; it spills as soon as it closes.
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 4096, 1024);
  const std::string val(200, 'v');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(buf.add("k" + std::to_string(i), val).ok());
    ASSERT_LE(buf.resident_bytes(), 4096u + 256u);
  }
  EXPECT_GT(buf.stats().pages_spilled, 0);
}

TEST(SpillBudget, ResidencyMeterTracksPeakAcrossBuffers) {
  MiniCluster cl;
  ResidencyMeter meter;
  const size_t kPage = 1024;
  const size_t kBudget = 4096;
  SpillConfig base = cfg_of(cl.fs.get(), "spill_meter", kPage, kBudget);
  base.meter = &meter;
  const std::string val(100, 'v');
  {
    SpillableKvBuffer a(base.sub("a"));
    SpillableKvBuffer b(base.sub("b"));
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(a.add("ka" + std::to_string(i), val).ok());
      ASSERT_TRUE(b.add("kb" + std::to_string(i), val).ok());
      // The meter books the *sum* of both buffers' residency...
      EXPECT_EQ(meter.current, a.resident_bytes() + b.resident_bytes());
    }
    // ...and the peak saw at least the steady-state sum, but never more
    // than both budgets plus one closing page each (the transient
    // over-budget moment enforce_budget books before spilling).
    EXPECT_GE(meter.peak, meter.current);
    EXPECT_GT(meter.peak, 0u);
    EXPECT_LE(meter.peak, 2 * (kBudget + kPage + 256));
  }
  // Destruction releases every booking.
  EXPECT_EQ(meter.current, 0u);
  // Moved-from buffers must not double-release their booking.
  const size_t peak_before = meter.peak;
  {
    SpillableKvBuffer a(base.sub("mv"));
    for (int i = 0; i < 50; ++i) ASSERT_TRUE(a.add("k", val).ok());
    SpillableKvBuffer b(std::move(a));
    EXPECT_EQ(meter.current, b.resident_bytes());
  }
  EXPECT_EQ(meter.current, 0u);
  EXPECT_GE(meter.peak, peak_before);
}

// --- bug (c): drain_to mid-stream failure semantics -----------------------

// A buffer of keys key_0..key_299 whose later pages live in a second spill
// directory: the first half spills to `spill`, the second half to
// `spill_tail` and is absorbed after it, so a fault filtered on
// `spill_tail` hits a page after earlier pages were read.
SpillableKvBuffer two_dir_buffer(MiniCluster& cl,
                                 std::map<std::string, int64_t>& want) {
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 256, 256);
  SpillableKvBuffer tail(cl.fs.get(), 0, "spill_tail", 256, 256);
  for (int i = 0; i < 300; ++i) {
    const std::string k = "key_" + std::to_string(i);
    EXPECT_TRUE((i < 150 ? buf : tail).add(k, "v").ok());
    want[k]++;
  }
  EXPECT_GE(buf.spilled_page_count(), 2u);
  EXPECT_GE(tail.spilled_page_count(), 2u);
  EXPECT_TRUE(buf.absorb_pages(std::move(tail)).ok());
  return buf;
}

size_t files_under(MiniCluster& cl, const std::string& dir) {
  std::vector<std::string> names;
  EXPECT_TRUE(cl.fs->list_dir(storage::Tier::kLocal, 0, dir, names).ok());
  return names.size();
}

TEST(SpillFailurePath, DrainMidStreamFailureRestoresWellDefinedState) {
  MiniCluster cl;
  std::map<std::string, int64_t> want;
  SpillableKvBuffer buf = two_dir_buffer(cl, want);
  ASSERT_GE(buf.spilled_page_count(), 4u);
  const size_t size_before = buf.size();
  // Make the second directory unreadable (every retry included): its first
  // page fails after the first directory's pages were already copied into
  // `out`.
  storage::FaultInjectorConfig fi;
  fi.local.p_read_fail = 1.0;
  fi.path_filter = "spill_tail";
  cl.fs->set_fault_injector(fi);
  KvBuffer out;
  out.add("stale", "contents");  // drain must clear this even on failure
  EXPECT_FALSE(buf.drain_to(out).ok());
  EXPECT_GT(buf.stats().pages_loaded, 0) << "the failure must be mid-stream";
  EXPECT_TRUE(out.empty()) << "failed drain must clear out";
  EXPECT_EQ(buf.size(), size_before) << "failed drain must keep all pages";
  // Every page — including the already-copied prefix — is re-readable.
  cl.fs->clear_fault_injector();
  ASSERT_TRUE(buf.drain_to(out).ok());
  std::map<std::string, int64_t> got;
  for (KvView p : out) got[std::string(p.key)]++;
  EXPECT_EQ(got, want);
  EXPECT_TRUE(buf.empty());
}

TEST(SpillFailurePath, ClearAfterPartialDrainRemovesAllSpillFiles) {
  MiniCluster cl;
  std::map<std::string, int64_t> want;
  SpillableKvBuffer buf = two_dir_buffer(cl, want);
  storage::FaultInjectorConfig fi;
  fi.local.p_read_fail = 1.0;
  fi.path_filter = "spill_tail";
  cl.fs->set_fault_injector(fi);
  KvBuffer out;
  EXPECT_FALSE(buf.drain_to(out).ok());
  EXPECT_GT(buf.stats().pages_loaded, 0) << "the failure must be mid-stream";
  cl.fs->clear_fault_injector();
  ASSERT_TRUE(buf.clear().ok());
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.resident_bytes(), 0u);
  EXPECT_EQ(files_under(cl, "spill"), 0u) << "clear() must remove every spill file";
  EXPECT_EQ(files_under(cl, "spill_tail"), 0u)
      << "clear() must remove the absorbed pages' files too";
}

// --- fault matrix: probabilistic injector, no pair lost or duplicated -----

TEST(SpillFaultMatrix, NoPairLostOrDuplicatedUnderInjectedFaults) {
  MiniCluster cl;
  storage::FaultInjectorConfig fi;
  fi.seed = tests::test_seed(0x0c1);
  fi.local.p_write_fail = 0.05;
  fi.local.p_torn_write = 0.05;  // caught by the post-write size probe
  fi.local.p_read_fail = 0.05;
  fi.local.p_corrupt_read = 0.05;  // caught by wire validation on adopt
  fi.path_filter = "spill";
  cl.fs->set_fault_injector(fi);
  SpillableKvBuffer buf(cl.fs.get(), 0, "spill", 512, 1024);
  Rng rng(tests::test_seed(0x0c2));
  std::map<std::string, int64_t> want;
  for (int i = 0; i < 3000; ++i) {
    const std::string k = "k" + std::to_string(rng.next_below(500));
    const std::string v(1 + rng.next_below(40), 'x');
    ASSERT_TRUE(buf.add(k, v).ok());
    want[k]++;
  }
  // The injector really fired...
  const auto fstats = cl.fs->fault_stats();
  EXPECT_GT(fstats.write_failures + fstats.torn_writes, 0);
  EXPECT_GT(buf.stats().write_retries + buf.stats().read_retries, 0);
  // ...and the ground truth survives both a streamed read and a drain.
  EXPECT_EQ(collect_counts(buf), want);
  KvBuffer flat;
  ASSERT_TRUE(buf.drain_to(flat).ok());
  std::map<std::string, int64_t> got;
  for (KvView p : flat) got[std::string(p.key)]++;
  EXPECT_EQ(got, want);
}

// --- the spill ladder, once per store -------------------------------------
// Both stores page through the same write and load ladder. Each store is
// checked for the four guarantees: a transient write failure is retried, an
// exhausted write ladder keeps the page resident, a corrupt read is retried
// through the page CRC, and clear() (or a move) leaves no spill file and no
// contents behind.

enum class StoreKind { kKv, kKmv };

// One store under test, filled with keys key_0000.. (one value "v" each).
// The KMV store receives each fill as one sorted run.
class LadderStore {
 public:
  LadderStore(StoreKind kind, storage::StorageSystem* fs,
              std::string dir = "spill")
      : kind_(kind) {
    const SpillConfig cfg = cfg_of(fs, std::move(dir), 256, 256);
    if (kind == StoreKind::kKv) {
      kv_ = SpillableKvBuffer(cfg);
    } else {
      kmv_ = SpillableKmvBuffer(cfg);
    }
  }

  [[nodiscard]] std::string page_prefix() const {
    return kind_ == StoreKind::kKv ? "page_" : "kmv_";
  }

  Status fill(int lo, int hi) {
    Status first;
    KmvBuffer run;
    for (int i = lo; i < hi; ++i) {
      char key[16];
      std::snprintf(key, sizeof(key), "key_%04d", i);
      want_[key]++;
      if (kind_ == StoreKind::kKmv) {
        run.begin_entry(key);
        run.append_value("v");
      } else if (auto s = kv_.add(key, "v"); !s.ok() && first.ok()) {
        first = s;
      }
    }
    return kind_ == StoreKind::kKv ? first : kmv_.add_run(std::move(run));
  }

  /// Key -> number of values, streamed back from disk and memory.
  std::map<std::string, int64_t> stream() {
    std::map<std::string, int64_t> got;
    Status s;
    if (kind_ == StoreKind::kKv) {
      s = kv_.for_each([&](KvView p) { got[std::string(p.key)]++; });
    } else {
      s = kmv_.for_each_entry(
          0, [&](std::string_view key, std::span<const std::string_view> vs) {
            got[std::string(key)] += static_cast<int64_t>(vs.size());
            return Status::Ok();
          });
    }
    EXPECT_TRUE(s.ok()) << s.message();
    return got;
  }

  [[nodiscard]] const std::map<std::string, int64_t>& want() const {
    return want_;
  }
  [[nodiscard]] const SpillStats& stats() const {
    return kind_ == StoreKind::kKv ? kv_.stats() : kmv_.stats();
  }
  [[nodiscard]] bool empty() const {
    return kind_ == StoreKind::kKv ? kv_.empty() : kmv_.empty();
  }
  [[nodiscard]] size_t resident_bytes() const {
    return kind_ == StoreKind::kKv ? kv_.resident_bytes()
                                   : kmv_.resident_bytes();
  }
  Status clear() { return kind_ == StoreKind::kKv ? kv_.clear() : kmv_.clear(); }

  /// Move-assign this store over `to` (same kind).
  void move_into(LadderStore& to) {
    to.kv_ = std::move(kv_);
    to.kmv_ = std::move(kmv_);
    to.want_ = want_;
  }

 private:
  StoreKind kind_;
  SpillableKvBuffer kv_;
  SpillableKmvBuffer kmv_;
  std::map<std::string, int64_t> want_;
};

class SpillLadder : public ::testing::TestWithParam<StoreKind> {
 protected:
  // Spill files of `store`'s kind left under `dir`.
  size_t spill_files(const LadderStore& store,
                     const std::string& dir = "spill") {
    std::vector<std::string> names;
    EXPECT_TRUE(cl_.fs->list_dir(storage::Tier::kLocal, 0, dir, names).ok());
    return static_cast<size_t>(
        std::count_if(names.begin(), names.end(), [&](const std::string& n) {
          return n.find(store.page_prefix()) != std::string::npos;
        }));
  }
  MiniCluster cl_;
};

TEST_P(SpillLadder, TransientWriteFailureIsRetried) {
  LadderStore store(GetParam(), cl_.fs.get());
  // The first spill write fails; the ladder retries and succeeds.
  cl_.fs->inject_io_failures(1);
  ASSERT_TRUE(store.fill(0, 200).ok());
  EXPECT_GE(store.stats().write_retries, 1);
  EXPECT_EQ(store.stats().write_failures, 0);
  EXPECT_GT(store.stats().pages_spilled, 0);
  EXPECT_EQ(store.stream(), store.want());
}

TEST_P(SpillLadder, ExhaustedWriteLadderKeepsPageResident) {
  LadderStore store(GetParam(), cl_.fs.get());
  ASSERT_TRUE(store.fill(0, 50).ok());
  storage::FaultInjectorConfig fi;
  fi.local.p_write_fail = 1.0;  // every attempt of every spill write fails
  fi.path_filter = store.page_prefix();
  cl_.fs->set_fault_injector(fi);
  const size_t resident_before = store.resident_bytes();
  EXPECT_FALSE(store.fill(50, 200).ok());  // the error surfaced...
  cl_.fs->clear_fault_injector();
  EXPECT_GT(store.stats().write_failures, 0);
  // ...but the failed pages stayed resident (over budget, never lost) and
  // every entry streams back.
  EXPECT_GT(store.resident_bytes(), resident_before);
  EXPECT_EQ(store.stream(), store.want());
  // The store spills again once the storage recovers.
  ASSERT_TRUE(store.fill(200, 300).ok());
  EXPECT_EQ(store.stream(), store.want());
}

TEST_P(SpillLadder, NonTransientWriteFailureIsNotRetried) {
  // No node-local disk is a configuration error: every spill write fails
  // with kFailedPrecondition, which no retry can cure. Each failed page
  // write makes one attempt and sits out no backoff; the pages stay
  // resident and every pair reads back.
  storage::TempDir tmp("ftmr-ooc-nodisk");
  storage::StorageOptions o;
  o.root = tmp.path();
  o.has_local_disk = false;
  storage::StorageSystem fs(o);
  LadderStore store(GetParam(), &fs);
  EXPECT_EQ(store.fill(0, 50).code(), ErrorCode::kFailedPrecondition);
  EXPECT_GT(store.stats().write_failures, 0);
  EXPECT_EQ(store.stats().write_retries, 0);
  EXPECT_EQ(store.stats().pages_spilled, 0);
  EXPECT_EQ(store.stats().sim_io_seconds, 0.0);
  EXPECT_GT(store.resident_bytes(), 0u);
  EXPECT_EQ(store.stream(), store.want());
}

TEST_P(SpillLadder, CorruptReadIsRetriedThroughCrc) {
  LadderStore store(GetParam(), cl_.fs.get());
  ASSERT_TRUE(store.fill(0, 300).ok());
  ASSERT_GE(store.stats().pages_spilled, 3);
  // A quarter of the page loads come back with one flipped bit. The
  // injector's seed is fixed, so the draw sequence (and with it the retry
  // count) is the same on every run.
  storage::FaultInjectorConfig fi;
  fi.local.p_corrupt_read = 0.25;
  fi.path_filter = store.page_prefix();
  cl_.fs->set_fault_injector(fi);
  const auto got = store.stream();
  cl_.fs->clear_fault_injector();
  EXPECT_GT(cl_.fs->fault_stats().corrupt_reads, 0);
  EXPECT_GE(store.stats().read_retries, 1);
  EXPECT_EQ(got, store.want());
}

TEST_P(SpillLadder, ClearRemovesEverySpillFileAndMovedFromIsEmpty) {
  LadderStore store(GetParam(), cl_.fs.get());
  ASSERT_TRUE(store.fill(0, 300).ok());
  ASSERT_GE(store.stats().pages_spilled, 3);
  ASSERT_GE(spill_files(store), 1u);
  // A move hands the pages and their files over and leaves the source
  // empty; the target's old pages and files are dropped.
  LadderStore moved(GetParam(), cl_.fs.get(), "spill_target");
  ASSERT_TRUE(moved.fill(1000, 1300).ok());
  ASSERT_GE(moved.stats().pages_spilled, 3);
  ASSERT_GE(spill_files(moved, "spill_target"), 1u);
  store.move_into(moved);
  EXPECT_EQ(spill_files(moved, "spill_target"), 0u)
      << "move assignment must remove the target's old spill files";
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.resident_bytes(), 0u);
  ASSERT_TRUE(store.clear().ok());
  EXPECT_GE(spill_files(moved), 1u) << "clearing the moved-from store "
                                       "must not touch the moved files";
  EXPECT_EQ(moved.stream(), moved.want());
  ASSERT_TRUE(moved.clear().ok());
  EXPECT_TRUE(moved.empty());
  EXPECT_EQ(moved.resident_bytes(), 0u);
  EXPECT_EQ(spill_files(moved), 0u) << "clear() must remove every spill file";
}

INSTANTIATE_TEST_SUITE_P(Store, SpillLadder,
                         ::testing::Values(StoreKind::kKv, StoreKind::kKmv),
                         [](const ::testing::TestParamInfo<StoreKind>& p) {
                           return p.param == StoreKind::kKv ? "Kv" : "Kmv";
                         });

// --- KMV page codec -------------------------------------------------------

TEST(KmvCodec, RoundTripsEntriesValuesAndEmpties) {
  KmvBuffer kmv;
  kmv.begin_entry("alpha");
  kmv.append_value("1");
  kmv.append_value("");
  kmv.begin_entry("");  // empty key, no values
  kmv.begin_entry("beta");
  kmv.append_value(std::string(5000, 'j'));  // jumbo value
  const Bytes wire = encode_kmv(kmv);
  KmvBuffer back;
  ASSERT_TRUE(decode_kmv(wire, back).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.entry(0).key(), "alpha");
  ASSERT_EQ(back.entry(0).size(), 2u);
  EXPECT_EQ(back.entry(0).value(0), "1");
  EXPECT_EQ(back.entry(0).value(1), "");
  EXPECT_EQ(back.entry(1).key(), "");
  EXPECT_EQ(back.entry(1).size(), 0u);
  EXPECT_EQ(back.entry(2).value(0), std::string(5000, 'j'));
}

TEST(KmvCodec, RejectsTruncationAndTrailingBytes) {
  KmvBuffer kmv;
  kmv.begin_entry("key");
  kmv.append_value("value");
  Bytes wire = encode_kmv(kmv);
  KmvBuffer back;
  for (size_t cut : {size_t{1}, wire.size() / 2, wire.size() - 1}) {
    Bytes trunc(wire.begin(), wire.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(decode_kmv(trunc, back).ok()) << "cut=" << cut;
    EXPECT_TRUE(back.empty());
  }
  Bytes extra = wire;
  extra.push_back(std::byte{0x5a});
  EXPECT_FALSE(decode_kmv(extra, back).ok());
}

// --- streamed convert vs in-core reference (randomized boundaries) --------

std::vector<std::pair<std::string, std::vector<std::string>>> materialize(
    SpillableKmvBuffer& kmv, size_t skip = 0) {
  std::vector<std::pair<std::string, std::vector<std::string>>> got;
  EXPECT_TRUE(kmv.for_each_entry(
                     skip,
                     [&](std::string_view key,
                         std::span<const std::string_view> values) -> Status {
                       got.emplace_back(std::string(key),
                                        std::vector<std::string>(values.begin(),
                                                                 values.end()));
                       return Status::Ok();
                     })
                  .ok());
  return got;
}

TEST(StreamedConvert, MatchesInCoreReferenceAcrossRandomBoundaries) {
  Rng rng(tests::test_seed(0x0c3));
  for (int iter = 0; iter < 8; ++iter) {
    MiniCluster cl;
    const size_t page = 64 + rng.next_below(1024);
    const size_t budget = 256 + rng.next_below(4096);
    const int npairs = 200 + static_cast<int>(rng.next_below(1500));
    KvBuffer flat;
    SpillableKvBuffer spill(
        cfg_of(cl.fs.get(), "cvt_in", page, budget));
    for (int i = 0; i < npairs; ++i) {
      const std::string k = "key" + std::to_string(rng.next_below(64));
      std::string v = std::to_string(rng.next_u64());
      if (rng.next_below(20) == 0) v.append(3000, 'J');  // jumbo
      flat.add(k, v);
      ASSERT_TRUE(spill.add(k, v).ok());
    }
    // Reference: in-core 2-pass convert, globally key-sorted.
    KmvBuffer ref = convert_2pass(flat);
    // Streamed: bucketed spill convert + k-way merged iteration.
    SpillableKmvBuffer out(cfg_of(cl.fs.get(), "cvt_out", page, budget));
    ConvertStats cs;
    ASSERT_TRUE(convert_2pass_spill(
                    spill, out, cfg_of(cl.fs.get(), "cvt_scratch", page, budget),
                    &cs)
                    .ok());
    EXPECT_TRUE(spill.empty()) << "convert consumes its input";
    const auto got = materialize(out);
    ASSERT_EQ(got.size(), ref.size()) << "iter=" << iter;
    std::vector<std::string_view> vals;
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i].first, ref.entry(i).key()) << "iter=" << iter;
      ref.values_of(i, vals);
      ASSERT_EQ(got[i].second.size(), vals.size())
          << "iter=" << iter << " key=" << got[i].first;
      for (size_t v = 0; v < vals.size(); ++v) {
        EXPECT_EQ(got[i].second[v], vals[v]);
      }
    }
    // The skip cursor resumes mid-stream exactly.
    if (!got.empty()) {
      const size_t skip = got.size() / 2;
      const auto tail = materialize(out, skip);
      ASSERT_EQ(tail.size(), got.size() - skip);
      for (size_t i = 0; i < tail.size(); ++i) EXPECT_EQ(tail[i], got[i + skip]);
    }
  }
}

// --- streamed shuffle vs in-core routing oracle ---------------------------

TEST(StreamedShuffle, ByteIdenticalToInCoreShuffle) {
  Rng seed_rng(tests::test_seed(0x0c4));
  for (int iter = 0; iter < 4; ++iter) {
    const int nranks = 3 + static_cast<int>(seed_rng.next_below(3));
    const uint64_t data_seed = seed_rng.next_u64();
    const size_t page = 64 + seed_rng.next_below(512);
    const size_t budget = 256 + seed_rng.next_below(2048);
    auto make_input = [&](int rank) {
      KvBuffer kv;
      Rng rng(data_seed + static_cast<uint64_t>(rank));
      const int n = 100 + static_cast<int>(rng.next_below(400));
      for (int i = 0; i < n; ++i) {
        kv.add("k" + std::to_string(rng.next_below(97)),
               "r" + std::to_string(rank) + "_" + std::to_string(i));
      }
      return kv;
    };
    // Oracle: receiver r holds, for each sender s in rank order, s's input
    // records whose key routes to r, in s's input order.
    std::vector<KvBuffer> inputs;
    for (int s = 0; s < nranks; ++s) inputs.push_back(make_input(s));
    std::vector<Bytes> ref(static_cast<size_t>(nranks));
    for (int r = 0; r < nranks; ++r) {
      KvBuffer want;
      for (const KvBuffer& in : inputs) {
        for (size_t i = 0; i < in.size(); ++i) {
          if (partition_of_key(in.view(i).key, nranks) == r) {
            want.append_record_from(in, i);
          }
        }
      }
      ref[static_cast<size_t>(r)] = std::move(want).take_wire();
    }
    // Streamed: paged multi-round exchange over spillable buffers.
    MiniCluster cl;
    std::vector<Bytes> got(static_cast<size_t>(nranks));
    Runtime::run(nranks, [&](Comm& c) {
      const std::string r = std::to_string(c.rank());
      SpillableKvBuffer in(
          cfg_of(cl.fs.get(), "sh_in_r" + r, page, budget));
      const KvBuffer input = make_input(c.rank());
      for (KvView p : input) ASSERT_TRUE(in.add(p.key, p.value).ok());
      SpillableKvBuffer out(
          cfg_of(cl.fs.get(), "sh_out_r" + r, page, budget));
      ShuffleStats st;
      ASSERT_TRUE(shuffle_spill(c, in, out,
                                cfg_of(cl.fs.get(), "sh_cfg_r" + r, page,
                                       budget),
                                &st)
                      .ok());
      EXPECT_TRUE(in.empty());
      KvBuffer flat;
      ASSERT_TRUE(out.drain_to(flat).ok());
      got[static_cast<size_t>(c.rank())] = std::move(flat).take_wire();
    });
    for (int r = 0; r < nranks; ++r) {
      EXPECT_EQ(got[static_cast<size_t>(r)], ref[static_cast<size_t>(r)])
          << "iter=" << iter << " rank=" << r
          << ": streamed shuffle must preserve pair order exactly";
    }
  }
}

// --- end-to-end budget mode -----------------------------------------------

Bytes read_part(storage::StorageSystem& fs, const std::string& dir, int rank) {
  char name[64];
  std::snprintf(name, sizeof(name), "part-%05d", rank);
  Bytes data;
  EXPECT_TRUE(
      fs.read_file(storage::Tier::kShared, 0, dir + "/" + name, data).ok());
  return data;
}

TEST(OutOfCoreJob, OutputByteIdenticalToInCore) {
  MiniCluster cl;
  Rng rng(tests::test_seed(0x0c5));
  // ~200 KB of input against an 8 KB per-rank budget: the dataset is far
  // larger than memory, and every phase must page.
  for (int i = 0; i < 16; ++i) {
    std::string text;
    for (int w = 0; w < 1500; ++w) {
      text += "word" + std::to_string(rng.next_below(300));
      text += ' ';
    }
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%03d", i);
    ASSERT_TRUE(cl.fs->write_file(storage::Tier::kShared, 0,
                                  std::string("input/") + name,
                                  as_bytes_view(text))
                    .ok());
  }
  const int kRanks = 4;
  auto run_mode = [&](size_t budget, const std::string& out_dir) {
    JobResult r = Runtime::run(kRanks, [&](Comm& c) {
      core::FtJobOptions o;
      o.mode = core::FtMode::kNone;
      o.ckpt.enabled = false;
      o.ppn = 2;
      o.output_dir = out_dir;
      o.memory_budget = budget;
      o.spill_dir = "spill_" + out_dir;
      o.spill_page_bytes = 2048;
      core::FtJob job(c, cl.fs.get(), o);
      ASSERT_TRUE(job.run([](core::FtJob& j) {
                       if (auto s = j.run_stage(apps::wordcount_stage(), false,
                                                nullptr);
                           !s.ok()) {
                         return s;
                       }
                       return j.write_output();
                     }).ok());
    });
    ASSERT_EQ(r.finished_count(), kRanks);
  };
  run_mode(0, "out_incore");
  const size_t local_written_before =
      cl.fs->stats(storage::Tier::kLocal).bytes_written;
  run_mode(8192, "out_ooc");
  // The out-of-core run really paged to the local tier...
  EXPECT_GT(cl.fs->stats(storage::Tier::kLocal).bytes_written,
            local_written_before + 100 * 1024)
      << "budget mode must actually spill";
  for (int r = 0; r < kRanks; ++r) {
    EXPECT_EQ(read_part(*cl.fs, "out_ooc", r),
              read_part(*cl.fs, "out_incore", r))
        << "rank " << r << " part file must be byte-identical";
  }
  // ...and cleaned its scratch up afterwards.
  std::vector<std::string> spilled;
  ASSERT_TRUE(cl.fs->list_dir(storage::Tier::kLocal, 0, "spill_out_ooc",
                              spilled)
                  .ok());
  EXPECT_TRUE(spilled.empty()) << "spill scratch must be cleaned up";
}

}  // namespace
}  // namespace ftmr::mr
