// Tests for the MR-MPI data path: KV/KMV buffers, the shuffle exchange,
// both KV→KMV conversion algorithms (incl. their equivalence property), and
// the end-to-end MR-MPI baseline (FtJob without fault tolerance).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <span>

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

std::vector<std::string> values_of(const KmvBuffer& kmv, size_t i) {
  std::vector<std::string_view> views;
  kmv.values_of(i, views);
  return {views.begin(), views.end()};
}

TEST(KvBuffer, AddAndAccounting) {
  KvBuffer kv;
  kv.add("key", "value");
  kv.add("k", "v");
  EXPECT_EQ(kv.size(), 2u);
  EXPECT_EQ(kv.bytes(), 3 + 5 + 1 + 1 + 2 * KvBuffer::kPairOverhead);
  kv.clear();
  EXPECT_TRUE(kv.empty());
  EXPECT_EQ(kv.bytes(), 0u);
}

TEST(KvBuffer, SerializeRoundTrip) {
  KvBuffer kv;
  kv.add("alpha", "1");
  kv.add("", "empty-key");
  kv.add("beta", "");
  const Bytes wire = kv.serialize();
  KvBuffer back;
  ASSERT_TRUE(KvBuffer::deserialize(wire, back).ok());
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.view(0), (KvView{"alpha", "1"}));
  EXPECT_EQ(back.view(1), (KvView{"", "empty-key"}));
  EXPECT_EQ(back.view(2), (KvView{"beta", ""}));
}

TEST(KvBuffer, DeserializeEmptyAndCorrupt) {
  KvBuffer out;
  EXPECT_TRUE(KvBuffer::deserialize({}, out).ok());
  EXPECT_TRUE(out.empty());
  Bytes garbage = to_bytes("zz");
  EXPECT_FALSE(KvBuffer::deserialize(garbage, out).ok());
}

TEST(Partition, CoversAllPairsConsistently) {
  KvBuffer kv;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    kv.add("key" + std::to_string(rng.next_below(100)), "v");
  }
  auto parts = partition_by_key(kv, 7);
  size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, kv.size());
  // Same key never lands in two partitions.
  std::map<std::string, int, std::less<>> where;
  for (int j = 0; j < 7; ++j) {
    for (KvView p : parts[j]) {
      auto [it, inserted] = where.try_emplace(std::string(p.key), j);
      if (!inserted) {
        EXPECT_EQ(it->second, j);
      }
    }
  }
}

KvBuffer random_kv(uint64_t seed, int npairs, int nkeys) {
  KvBuffer kv;
  Rng rng(seed);
  for (int i = 0; i < npairs; ++i) {
    kv.add("k" + std::to_string(rng.next_below(nkeys)),
           "v" + std::to_string(rng.next_u64() % 1000));
  }
  return kv;
}

TEST(Convert, FourPassGroupsAllValues) {
  KvBuffer kv;
  kv.add("a", "1");
  kv.add("b", "2");
  kv.add("a", "3");
  ConvertStats st;
  KmvBuffer kmv = convert_4pass(kv, &st);
  ASSERT_EQ(kmv.size(), 2u);
  EXPECT_EQ(kmv.entry(0).key(), "a");
  EXPECT_EQ(values_of(kmv, 0), (std::vector<std::string>{"1", "3"}));
  EXPECT_EQ(kmv.entry(1).key(), "b");
  EXPECT_EQ(st.passes, 4);
  EXPECT_EQ(st.distinct_keys, 2u);
}

TEST(Convert, TwoPassGroupsAllValues) {
  KvBuffer kv;
  kv.add("x", "1");
  kv.add("y", "2");
  kv.add("x", "3");
  ConvertStats st;
  KmvBuffer kmv = convert_2pass(kv, &st);
  ASSERT_EQ(kmv.size(), 2u);
  EXPECT_EQ(kmv.entry(0).key(), "x");
  EXPECT_EQ(values_of(kmv, 0), (std::vector<std::string>{"1", "3"}));
  EXPECT_EQ(st.passes, 2);
}

TEST(Convert, TwoPassMovesHalfTheBytes) {
  KvBuffer kv = random_kv(tests::test_seed(3), 5000, 200);
  ConvertStats s4, s2;
  convert_4pass(kv, &s4);
  convert_2pass(kv, &s2);
  // 4 passes of read+write vs 2 passes of read+write: exactly 2x.
  EXPECT_DOUBLE_EQ(static_cast<double>(s4.bytes_moved),
                   2.0 * static_cast<double>(s2.bytes_moved));
}

TEST(Convert, SmallSegmentsChainAcrossTheLog) {
  KvBuffer kv;
  for (int i = 0; i < 100; ++i) kv.add("samekey", std::string(40, 'v'));
  ConvertStats st;
  KmvBuffer kmv = convert_2pass(kv, &st, /*segment_bytes=*/128);
  ASSERT_EQ(kmv.size(), 1u);
  EXPECT_EQ(kmv.entry(0).size(), 100u);
  // 100 values * ~44B with 128B segments -> many non-contiguous segments.
  EXPECT_GT(st.segments, 30u);
}

// Property: the two conversion algorithms produce identical KMV content on
// random inputs, across a seed sweep.
class ConvertEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConvertEquivalence, TwoPassMatchesFourPass) {
  const KvBuffer kv = random_kv(tests::test_seed(GetParam()), 2000, 97);
  const KmvBuffer a = convert_4pass(kv);
  const KmvBuffer b = convert_2pass(kv, nullptr, 64 + GetParam() * 13);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entry(i).key(), b.entry(i).key());
    EXPECT_EQ(values_of(a, i), values_of(b, i)) << a.entry(i).key();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvertEquivalence,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Shuffle, EveryPairReachesItsKeyOwner) {
  constexpr int kP = 4;
  Runtime::run(kP, [](Comm& c) {
    SpillableKvBuffer mine;
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(mine.add("key" + std::to_string(i),
                           "from" + std::to_string(c.rank()))
                      .ok());
    }
    SpillableKvBuffer out;
    ShuffleStats st;
    ASSERT_TRUE(shuffle_spill(c, mine, out, SpillConfig{}, &st).ok());
    EXPECT_EQ(st.pairs_sent, 50u);
    KvBuffer got;
    ASSERT_TRUE(out.drain_to(got).ok());
    // Each key appears kP times (once per sender) and only on its owner.
    for (KvView p : got) {
      EXPECT_EQ(partition_of_key(p.key, kP), c.rank());
    }
    int64_t total = 0;
    ASSERT_TRUE(c.allreduce_one(simmpi::ReduceOp::kSum,
                                static_cast<int64_t>(got.size()), total).ok());
    EXPECT_EQ(total, 50 * kP);
  });
}

// --- mr::exchange: the one shuffle round protocol ---

struct Delivery {
  int sender;
  int partition;
  std::vector<std::string> keys;
  bool operator==(const Delivery&) const = default;
};

std::vector<std::string> keys_of(const KvBuffer& kv) {
  std::vector<std::string> keys;
  for (KvView p : kv) keys.emplace_back(p.key);
  return keys;
}

// Round k of sender s to destination d: partition 10*d + k, holding s+1
// records named after all three.
KvBuffer round_block(int s, int k, int d) {
  KvBuffer kv;
  for (int i = 0; i <= s; ++i) {
    kv.add("s" + std::to_string(s) + "k" + std::to_string(k) + "d" +
               std::to_string(d) + "i" + std::to_string(i),
           "v");
  }
  return kv;
}

TEST(Exchange, UnequalRoundCountsEndTogetherInSenderOrder) {
  constexpr int kP = 3;
  constexpr int kEmptyPartition = 99;
  // Rank 0 holds nothing, rank 1 needs three rounds, rank 2 one.
  const std::vector<int> rounds_of = {0, 3, 1};
  std::vector<std::vector<Delivery>> got(kP);
  std::vector<int> fills(kP, 0);
  std::vector<int64_t> ops(kP, 0);
  Runtime::run(kP, [&](Comm& c) {
    const int me = c.rank();
    std::vector<KvBuffer> blocks;
    const KvBuffer empty;
    const auto fill = [&](std::vector<ExchangeRow>& rows, bool& more) {
      const int k = fills[static_cast<size_t>(me)]++;
      blocks.clear();
      blocks.reserve(kP);
      if (k < rounds_of[static_cast<size_t>(me)]) {
        for (int d = 0; d < kP; ++d) {
          blocks.push_back(round_block(me, k, d));
          rows[static_cast<size_t>(d)].push_back({10 * d + k, &blocks.back()});
          rows[static_cast<size_t>(d)].push_back({kEmptyPartition, &empty});
        }
      }
      more = k + 1 < rounds_of[static_cast<size_t>(me)];
      return Status::Ok();
    };
    const auto deliver = [&](int sender, int partition, KvBuffer&& kv) {
      got[static_cast<size_t>(me)].push_back({sender, partition, keys_of(kv)});
      return Status::Ok();
    };
    ShuffleStats st;
    const int64_t ops0 = c.ops_issued();
    ASSERT_TRUE(exchange(c, /*bounded=*/true, fill, deliver, &st).ok());
    ops[static_cast<size_t>(me)] = c.ops_issued() - ops0;
    EXPECT_EQ(st.pairs_sent, static_cast<size_t>(
                                 kP * (me + 1) * rounds_of[static_cast<size_t>(me)]));
    size_t received = 0;
    for (const Delivery& d : got[static_cast<size_t>(me)]) {
      received += d.keys.size();
    }
    EXPECT_EQ(st.pairs_received, received);
  });
  for (int r = 0; r < kP; ++r) {
    // Every rank ran the slowest rank's three rounds: an alltoall and a
    // vote each.
    EXPECT_EQ(fills[static_cast<size_t>(r)], 3) << "rank " << r;
    EXPECT_EQ(ops[static_cast<size_t>(r)], 6) << "rank " << r;
    // Round-major, then sender order; the empty blocks never arrive.
    std::vector<Delivery> want;
    for (int k = 0; k < 3; ++k) {
      for (int s = 0; s < kP; ++s) {
        if (k >= rounds_of[static_cast<size_t>(s)]) continue;
        want.push_back({s, 10 * r + k, keys_of(round_block(s, k, r))});
      }
    }
    EXPECT_EQ(got[static_cast<size_t>(r)], want) << "rank " << r;
  }
}

TEST(Exchange, UnboundedIsOneRoundWithoutVote) {
  constexpr int kP = 4;
  std::vector<int> fills(kP, 0);
  std::vector<int64_t> ops(kP, 0);
  std::vector<std::vector<Delivery>> got(kP);
  Runtime::run(kP, [&](Comm& c) {
    const int me = c.rank();
    std::vector<KvBuffer> blocks;
    const auto fill = [&](std::vector<ExchangeRow>& rows, bool& more) {
      fills[static_cast<size_t>(me)]++;
      blocks.reserve(kP);
      for (int d = 0; d < kP; ++d) {
        blocks.push_back(round_block(me, 0, d));
        rows[static_cast<size_t>(d)].push_back({d, &blocks.back()});
      }
      more = true;  // ignored: an unbounded exchange is one round
      return Status::Ok();
    };
    const auto deliver = [&](int sender, int partition, KvBuffer&& kv) {
      got[static_cast<size_t>(me)].push_back({sender, partition, keys_of(kv)});
      return Status::Ok();
    };
    const int64_t ops0 = c.ops_issued();
    ASSERT_TRUE(exchange(c, /*bounded=*/false, fill, deliver).ok());
    ops[static_cast<size_t>(me)] = c.ops_issued() - ops0;
  });
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(fills[static_cast<size_t>(r)], 1);
    EXPECT_EQ(ops[static_cast<size_t>(r)], 1) << "only the alltoall";
    std::vector<Delivery> want;
    for (int s = 0; s < kP; ++s) {
      want.push_back({s, r, keys_of(round_block(s, 0, r))});
    }
    EXPECT_EQ(got[static_cast<size_t>(r)], want) << "rank " << r;
  }
}

// A block is read only while its row is framed, before the alltoall: once
// any rank's alltoall has returned, every rank has framed, so a borrowed
// image may change, an owned one is gone, and so is a buffer the blocks of
// every row kept. The pair count comes from each image's count header.
TEST(Exchange, BlocksAreBorrowedOnlyUntilTheRowsAreFramed) {
  constexpr int kP = 3;
  std::vector<std::vector<Bytes>> borrowed(kP);  // each rank's lent images
  std::vector<std::weak_ptr<const Bytes>> kept(kP);  // each rank's shared buffer
  std::vector<std::vector<Delivery>> got(kP);
  std::vector<size_t> sent(kP, 0);
  std::atomic<bool> overwritten{false};
  std::atomic<int> kept_alive{0};
  Runtime::run(kP, [&](Comm& c) {
    const int me = c.rank();
    std::vector<Bytes>& lent = borrowed[static_cast<size_t>(me)];
    const auto fill = [&](std::vector<ExchangeRow>& rows, bool&) {
      auto shared = std::make_shared<Bytes>();  // one image per row, back to back
      std::vector<size_t> at;
      for (int d = 0; d < kP; ++d) {
        lent.push_back(round_block(me, 0, d).serialize());
        const Bytes image = round_block(me, 3, d).serialize();
        at.push_back(shared->size());
        shared->insert(shared->end(), image.begin(), image.end());
      }
      at.push_back(shared->size());
      kept[static_cast<size_t>(me)] = shared;
      for (int d = 0; d < kP; ++d) {
        const size_t i = static_cast<size_t>(d);
        ExchangeRow& row = rows[i];
        row.emplace_back(10 * d, lent[i]);
        row.emplace_back(10 * d + 1, round_block(me, 1, d).serialize());
        row.emplace_back(10 * d + 2, KvBuffer{}.serialize());  // no records
        row.emplace_back(10 * d + 3,
                         std::span<const std::byte>(*shared).subspan(at[i], at[i + 1] - at[i]),
                         shared);
      }
      return Status::Ok();
    };
    const auto deliver = [&](int sender, int partition, KvBuffer&& kv) {
      for (const std::weak_ptr<const Bytes>& buffer : kept) {
        if (!buffer.expired()) kept_alive++;
      }
      if (!overwritten.exchange(true)) {
        for (std::vector<Bytes>& images : borrowed) {
          for (Bytes& image : images) {
            std::fill(image.begin(), image.end(), std::byte{0xee});
          }
        }
      }
      got[static_cast<size_t>(me)].push_back({sender, partition, keys_of(kv)});
      return Status::Ok();
    };
    ShuffleStats st;
    ASSERT_TRUE(exchange(c, /*bounded=*/false, fill, deliver, &st).ok());
    sent[static_cast<size_t>(me)] = st.pairs_sent;
  });
  EXPECT_TRUE(overwritten.load());
  EXPECT_EQ(kept_alive.load(), 0) << "a kept buffer outlived the framing";
  for (int r = 0; r < kP; ++r) {
    // Each rank sent s+1 records in each of three blocks to every rank.
    EXPECT_EQ(sent[static_cast<size_t>(r)], static_cast<size_t>(3 * kP * (r + 1)));
    std::vector<Delivery> want;
    for (int s = 0; s < kP; ++s) {
      want.push_back({s, 10 * r, keys_of(round_block(s, 0, r))});
      want.push_back({s, 10 * r + 1, keys_of(round_block(s, 1, r))});
      want.push_back({s, 10 * r + 3, keys_of(round_block(s, 3, r))});
    }
    EXPECT_EQ(got[static_cast<size_t>(r)], want) << "rank " << r;
  }
}

TEST(Exchange, DamagedRowDeliversNothing) {
  const KvBuffer a = round_block(1, 0, 0);
  const KvBuffer b = round_block(2, 1, 0);
  const Bytes row = frame_row({{4, &a}, {7, &b}});
  std::vector<Delivery> got;
  const ExchangeDeliver deliver = [&](int sender, int partition, KvBuffer&& kv) {
    got.push_back({sender, partition, keys_of(kv)});
    return Status::Ok();
  };
  ShuffleStats st;
  ASSERT_TRUE(deliver_row(2, row, deliver, &st).ok());
  const std::vector<Delivery> want = {{2, 4, keys_of(a)}, {2, 7, keys_of(b)}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(st.pairs_received, a.size() + b.size());

  // Every truncation, including one that drops only the second block's
  // last byte, fails without delivering the intact first block.
  for (size_t len = 0; len < row.size(); ++len) {
    got.clear();
    const Bytes cut(row.begin(), row.begin() + static_cast<ptrdiff_t>(len));
    EXPECT_FALSE(deliver_row(0, cut, deliver).ok()) << "len=" << len;
    EXPECT_TRUE(got.empty()) << "len=" << len;
  }
  // A block count that overstates the blocks present, and trailing bytes.
  Bytes overstated = row;
  overstated[0] = std::byte{3};
  EXPECT_FALSE(deliver_row(0, overstated, deliver).ok());
  Bytes trailing = row;
  trailing.push_back(std::byte{0});
  const Status s = deliver_row(0, trailing, deliver);
  EXPECT_EQ(s.code(), ErrorCode::kCorrupt);
  EXPECT_TRUE(got.empty());
}

// --- end-to-end baseline wordcount ---

struct MiniCluster {
  MiniCluster() : tmp("ftmr-mr-test") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

/// The MR-MPI baseline: FtJob without fault tolerance or checkpoints.
core::FtJobOptions baseline_opts() {
  core::FtJobOptions o;
  o.mode = core::FtMode::kNone;
  o.ckpt.enabled = false;
  return o;
}

Status wordcount_driver(core::FtJob& job) {
  if (auto s = job.run_stage(apps::wordcount_stage(), false, nullptr); !s.ok()) {
    return s;
  }
  return job.write_output();
}

std::map<std::string, int64_t> read_counts(storage::StorageSystem& fs,
                                           const std::string& dir) {
  std::vector<std::string> parts;
  EXPECT_TRUE(fs.list_dir(storage::Tier::kShared, 0, dir, parts).ok());
  std::map<std::string, int64_t> counts;
  for (const auto& name : parts) {
    Bytes data;
    EXPECT_TRUE(fs.read_file(storage::Tier::kShared, 0, dir + "/" + name, data).ok());
    ByteReader r(data);
    while (!r.exhausted()) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) {
        ADD_FAILURE() << "corrupt output part " << name;
        break;
      }
      counts[k] += std::strtoll(v.c_str(), nullptr, 10);
    }
  }
  return counts;
}

TEST(BaselineJob, WordcountEndToEnd) {
  MiniCluster cl;
  // 6 chunks: "w0 w1 w0", "w1 w2 w1", ... deterministic counts.
  for (int i = 0; i < 6; ++i) {
    const std::string text = "w" + std::to_string(i % 3) + " common w" +
                             std::to_string(i % 3);
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%03d", i);
    ASSERT_TRUE(cl.fs->write_file(storage::Tier::kShared, 0,
                                  std::string("input/") + name,
                                  as_bytes_view(text)).ok());
  }
  JobResult r = Runtime::run(4, [&](Comm& c) {
    core::FtJobOptions o = baseline_opts();
    o.ppn = 2;
    core::FtJob job(c, cl.fs.get(), o);
    ASSERT_TRUE(job.run(wordcount_driver).ok());
    EXPECT_GT(job.times().get("map"), 0.0);
    EXPECT_GT(job.times().get("shuffle"), 0.0);
    EXPECT_GT(job.times().get("merge"), 0.0);
    EXPECT_GT(job.times().get("reduce"), 0.0);
  });
  ASSERT_EQ(r.finished_count(), 4);
  auto counts = read_counts(*cl.fs, "output");
  EXPECT_EQ(counts["common"], 6);
  EXPECT_EQ(counts["w0"], 4);
  EXPECT_EQ(counts["w1"], 4);
  EXPECT_EQ(counts["w2"], 4);
}

TEST(BaselineJob, TwoPassConvertProducesSameOutput) {
  MiniCluster cl;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cl.fs->write_file(storage::Tier::kShared, 0,
                                  "input/c" + std::to_string(i),
                                  as_bytes_view("a b a c b a")).ok());
  }
  for (bool two_pass : {false, true}) {
    Runtime::run(3, [&](Comm& c) {
      core::FtJobOptions o = baseline_opts();
      o.two_pass_convert = two_pass;
      o.output_dir = two_pass ? "out2" : "out4";
      core::FtJob job(c, cl.fs.get(), o);
      ASSERT_TRUE(job.run(wordcount_driver).ok());
    });
  }
  EXPECT_EQ(read_counts(*cl.fs, "out2"), read_counts(*cl.fs, "out4"));
}

TEST(BaselineJob, FailureAbortsWholeJobWithFatalHandler) {
  MiniCluster cl;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(cl.fs->write_file(storage::Tier::kShared, 0,
                                  "input/c" + std::to_string(i),
                                  as_bytes_view("x y z")).ok());
  }
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 1e-7, -1});  // dies very early in the map phase
  JobResult r = Runtime::run(4, [&](Comm& c) {
    // Stock-MPI behaviour: FtMode::kNone treats errors as fatal.
    core::FtJob job(c, cl.fs.get(), baseline_opts());
    (void)job.run(wordcount_driver);
  }, jo);
  EXPECT_TRUE(r.aborted);  // the whole job is lost — no fault tolerance
}

}  // namespace
}  // namespace ftmr::mr

// ---------------------------------------------------------------------------
// Out-of-core paged KV (spill.hpp)
// ---------------------------------------------------------------------------

#include "mr/spill.hpp"

namespace spill_tests {

struct SpillFixture : ::testing::Test {
  SpillFixture() : tmp("ftmr-spill") {
    ftmr::storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<ftmr::storage::StorageSystem>(o);
  }
  ftmr::storage::TempDir tmp;
  std::unique_ptr<ftmr::storage::StorageSystem> fs;
};

TEST_F(SpillFixture, SmallDataStaysInMemory) {
  ftmr::mr::SpillableKvBuffer buf(fs.get(), 0, "spill", 1 << 10, 1 << 20);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(buf.add("k" + std::to_string(i), "v").ok());
  }
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.stats().pages_spilled, 0);
  ftmr::mr::KvBuffer out;
  ASSERT_TRUE(buf.drain_to(out).ok());
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(out.view(0).key, "k0");
  EXPECT_EQ(out.view(9).key, "k9");
}

TEST_F(SpillFixture, LargeDataSpillsAndStreamsBackInOrder) {
  // Tiny pages + tiny budget: most pages must round-trip through disk.
  ftmr::mr::SpillableKvBuffer buf(fs.get(), 0, "spill", 256, 512);
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        buf.add("key" + std::to_string(i), std::string(20, 'x')).ok());
  }
  EXPECT_EQ(buf.size(), static_cast<size_t>(kN));
  EXPECT_GT(buf.stats().pages_spilled, 10);
  EXPECT_GT(buf.stats().sim_io_seconds, 0.0);
  int idx = 0;
  bool ordered = true;
  ASSERT_TRUE(buf.for_each([&](ftmr::mr::KvView p) {
    if (p.key != "key" + std::to_string(idx)) ordered = false;
    idx++;
  }).ok());
  EXPECT_EQ(idx, kN);
  EXPECT_TRUE(ordered);  // insertion order preserved across spills
  EXPECT_GT(buf.stats().pages_loaded, 10);
}

TEST_F(SpillFixture, DrainEquivalentToPlainBuffer) {
  ftmr::mr::SpillableKvBuffer spilled(fs.get(), 0, "spill", 128, 256);
  ftmr::mr::KvBuffer plain;
  ftmr::Rng rng(99);
  for (int i = 0; i < 300; ++i) {
    const std::string k = "k" + std::to_string(rng.next_below(40));
    const std::string v = "v" + std::to_string(rng.next_u64() % 1000);
    ASSERT_TRUE(spilled.add(k, v).ok());
    plain.add(k, v);
  }
  ftmr::mr::KvBuffer out;
  ASSERT_TRUE(spilled.drain_to(out).ok());
  ASSERT_EQ(out.size(), plain.size());
  EXPECT_EQ(out, plain);  // byte-wise arena equality
  // Converting the round-tripped data groups identically too.
  const auto a = ftmr::mr::convert_2pass(out);
  const auto b = ftmr::mr::convert_2pass(plain);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    std::vector<std::string_view> va, vb;
    a.values_of(i, va);
    b.values_of(i, vb);
    EXPECT_EQ(va, vb);
  }
}

TEST_F(SpillFixture, ClearRemovesSpillFiles) {
  ftmr::mr::SpillableKvBuffer buf(fs.get(), 0, "spill", 64, 64);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(buf.add("key", "valuevaluevalue").ok());
  }
  EXPECT_GT(buf.stats().pages_spilled, 0);
  ASSERT_TRUE(buf.clear().ok());
  EXPECT_EQ(buf.size(), 0u);
  std::vector<std::string> names;
  ASSERT_TRUE(
      fs->list_dir(ftmr::storage::Tier::kLocal, 0, "spill", names).ok());
  EXPECT_TRUE(names.empty());
}

TEST_F(SpillFixture, NullStorageNeverSpills) {
  ftmr::mr::SpillableKvBuffer buf(nullptr, 0, "spill", 64, 64);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(buf.add("k", "vvvvvvvvvvvv").ok());
  }
  EXPECT_EQ(buf.stats().pages_spilled, 0);
  EXPECT_EQ(buf.size(), 200u);
  int n = 0;
  ASSERT_TRUE(buf.for_each([&](ftmr::mr::KvView) { n++; }).ok());
  EXPECT_EQ(n, 200);
}

}  // namespace spill_tests
