// In-memory replicated checkpoint tier: placement policy determinism and
// node-disjointness, ReplicaStore semantics (death marks, fault injection),
// StorageSystem plumbing, CheckpointManager recovery through peer memory
// with corrupted-replica fallback to the file tiers, and end-to-end fault
// schedules with memory replicas as the primary recovery source.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics.hpp"
#include "core/checkpoint.hpp"
#include "simmpi/runtime.hpp"
#include "storage/replica.hpp"
#include "storage/segment_store.hpp"
#include "storage/storage.hpp"
#include "testing/explorer.hpp"

namespace ftmr {
namespace {

using core::CheckpointManager;
using core::CkptOptions;
using core::RankRecovery;
using simmpi::Comm;
using simmpi::Runtime;
using storage::ReplicaStore;
using storage::SegmentStore;
using storage::replica_placement;

Bytes blob(std::string_view s) {
  auto v = as_bytes_view(s);
  return Bytes(v.begin(), v.end());
}

std::vector<int> iota_live(int n) {
  std::vector<int> live(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) live[static_cast<size_t>(i)] = i;
  return live;
}

// ---------------------------------------------------------------------------
// Placement policy
// ---------------------------------------------------------------------------

TEST(ReplicaPlacement, NeverPicksOwnerOrOwnersNode) {
  const std::vector<int> live = iota_live(8);
  for (int ppn : {1, 2, 4}) {
    for (int owner = 0; owner < 8; ++owner) {
      for (int k : {1, 2, 3}) {
        const auto targets = replica_placement(owner, k, live, ppn);
        for (int t : targets) {
          EXPECT_NE(t, owner) << "self-replica at ppn=" << ppn;
          EXPECT_NE(t / ppn, owner / ppn)
              << "replica on owner's node: owner=" << owner << " target=" << t
              << " ppn=" << ppn;
        }
        // Sorted, duplicate-free, and sized min(k, eligible).
        EXPECT_TRUE(std::is_sorted(targets.begin(), targets.end()));
        EXPECT_EQ(std::set<int>(targets.begin(), targets.end()).size(),
                  targets.size());
        const size_t eligible = static_cast<size_t>(8 - ppn);
        EXPECT_EQ(targets.size(), std::min<size_t>(
                                      static_cast<size_t>(k), eligible));
      }
    }
  }
}

TEST(ReplicaPlacement, DeterministicUnderOwnerAndSeed) {
  const std::vector<int> live = iota_live(16);
  for (int owner = 0; owner < 16; ++owner) {
    const auto a = replica_placement(owner, 2, live, 4, 7);
    const auto b = replica_placement(owner, 2, live, 4, 7);
    EXPECT_EQ(a, b) << "placement must be reproducible without coordination";
  }
}

TEST(ReplicaPlacement, DegradesGracefullyWhenEligibleScarce) {
  // k exceeds the eligible set: take everyone off-node, no more.
  EXPECT_EQ(replica_placement(0, 3, {0, 1}, 1), (std::vector<int>{1}));
  // Everybody shares the owner's node: nothing eligible.
  EXPECT_TRUE(replica_placement(0, 2, {0, 1, 2, 3}, 4).empty());
  // Lone survivor, and disabled replication.
  EXPECT_TRUE(replica_placement(0, 2, {0}, 1).empty());
  EXPECT_TRUE(replica_placement(0, 0, iota_live(8), 1).empty());
}

TEST(ReplicaPlacement, RecomputesOverShrunkenLiveSet) {
  // After rank 3 dies, every survivor must agree on replacement targets
  // drawn only from the survivors — that is what makes re-replication
  // converge without communication.
  std::vector<int> live = iota_live(8);
  live.erase(live.begin() + 3);
  for (int owner : live) {
    for (int t : replica_placement(owner, 2, live, 1)) {
      EXPECT_NE(t, 3) << "placed a replica on a dead rank";
    }
  }
}

TEST(ReplicaPlacement, RotationSpreadsTargetsAcrossOwners) {
  const std::vector<int> live = iota_live(12);
  std::set<int> first_targets;
  for (int owner = 0; owner < 12; ++owner) {
    const auto t = replica_placement(owner, 1, live, 1);
    ASSERT_EQ(t.size(), 1u);
    first_targets.insert(t[0]);
  }
  // The mixed rotation start must not funnel every owner onto one holder.
  EXPECT_GE(first_targets.size(), 3u);
}

// ---------------------------------------------------------------------------
// ReplicaStore semantics
// ---------------------------------------------------------------------------

/// The segment store a ReplicaStore keeps its replicas in, over a temp
/// directory.
struct HostFile {
  storage::TempDir tmp{"ftmr-replica-store"};
  SegmentStore segments{tmp.path()};
};

/// `bytes` as an extent of `host`'s segment store.
SegmentStore::Extent stashed(HostFile& host, const Bytes& bytes) {
  SegmentStore::Extent e;
  EXPECT_TRUE(host.segments.stash(bytes, e).ok());
  return e;
}

/// The bytes of `e`.
Bytes loaded(HostFile& host, const SegmentStore::Extent& e) {
  Bytes out;
  EXPECT_TRUE(host.segments.load(e, out).ok());
  return out;
}

TEST(ReplicaStoreTest, PutGetRoundTripWithModeledCost) {
  HostFile host;
  ReplicaStore store(storage::TierModel{1e-6, 1e9, 0.0}, host.segments);
  double put_cost = -1.0, get_cost = -1.0;
  ASSERT_TRUE(store.put(2, "ck/r0/a", blob("payload"), &put_cost).ok());
  EXPECT_GT(put_cost, 0.0);
  Bytes out;
  ASSERT_TRUE(store.get(2, "ck/r0/a", out, &get_cost).ok());
  EXPECT_EQ(out, blob("payload"));
  EXPECT_GT(get_cost, 0.0);
  EXPECT_EQ(store.stats().write_ops, 1);
  EXPECT_EQ(store.stats().read_ops, 1);
  EXPECT_EQ(store.stats().bytes_written, 7u);
}

TEST(ReplicaStoreTest, PutsAreIdempotentOverwrites) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  ASSERT_TRUE(store.put(1, "p", blob("old")).ok());
  ASSERT_TRUE(store.put(1, "p", blob("new")).ok());
  Bytes out;
  ASSERT_TRUE(store.get(1, "p", out).ok());
  EXPECT_EQ(out, blob("new"));
  EXPECT_EQ(store.holders_of("p"), (std::vector<int>{1}));
}

TEST(ReplicaStoreTest, EnumerationAndRemoval) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  ASSERT_TRUE(store.put(3, "ck/r0/a", blob("x")).ok());
  ASSERT_TRUE(store.put(1, "ck/r0/a", blob("x")).ok());
  ASSERT_TRUE(store.put(1, "ck/r2/b", blob("y")).ok());
  EXPECT_EQ(store.holders_of("ck/r0/a"), (std::vector<int>{1, 3}));
  EXPECT_EQ(store.all_paths(),
            (std::vector<std::string>{"ck/r0/a", "ck/r2/b"}));
  EXPECT_EQ(store.paths_held_by(1),
            (std::vector<std::string>{"ck/r0/a", "ck/r2/b"}));
  store.remove(1, "ck/r0/a");
  EXPECT_FALSE(store.exists(1, "ck/r0/a"));
  EXPECT_TRUE(store.exists(3, "ck/r0/a"));
  Bytes out;
  EXPECT_EQ(store.get(1, "ck/r0/a", out).code(), ErrorCode::kNotFound);
}

// paths_held_by reads the per-holder index that re-replication walks; it
// must agree with the path index after overwrites, removals and deaths.
TEST(ReplicaStoreTest, HolderIndexFollowsPutsRemovalsAndDeaths) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  const auto scanned = [&store](int holder) {
    std::vector<std::string> out;
    for (const std::string& path : store.all_paths()) {
      if (store.exists(holder, path)) out.push_back(path);
    }
    return out;
  };
  for (int holder : {0, 1, 2}) {
    for (const char* path : {"ck/r1/b", "ck/r0/a", "ck/r2/c", "ck/r0/a"}) {
      if (holder == 2 && path[4] == '2') continue;
      ASSERT_TRUE(store.put(holder, path, blob(path)).ok());
    }
  }
  store.remove(1, "ck/r1/b");
  store.remove(1, "ck/r9/z");  // absent: no-op
  store.wipe_rank(0);
  ASSERT_TRUE(store.put(2, "ck/r3/d", blob("d")).ok());
  EXPECT_EQ(store.paths_held_by(0), std::vector<std::string>{});
  EXPECT_EQ(store.paths_held_by(1),
            (std::vector<std::string>{"ck/r0/a", "ck/r2/c"}));
  EXPECT_EQ(store.paths_held_by(2),
            (std::vector<std::string>{"ck/r0/a", "ck/r1/b", "ck/r3/d"}));
  for (int holder : {0, 1, 2, 3}) {
    EXPECT_EQ(store.paths_held_by(holder), scanned(holder)) << holder;
  }
  store.wipe_all();
  EXPECT_TRUE(store.paths_held_by(2).empty());
}

TEST(ReplicaStoreTest, DeathWipesHoldingsAndRejectsLateDeposits) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  ASSERT_TRUE(store.put(2, "a", blob("x")).ok());
  ASSERT_TRUE(store.put(4, "a", blob("x")).ok());
  store.wipe_rank(2);
  EXPECT_TRUE(store.is_dead(2));
  EXPECT_FALSE(store.exists(2, "a"));
  EXPECT_EQ(store.holders_of("a"), (std::vector<int>{4}));
  // The deposit/death race: a put whose handshake won just before the kill
  // must fail like the process failure it is, not ghost-write.
  EXPECT_EQ(store.put(2, "b", blob("late")).code(), ErrorCode::kProcFailed);
  // A fresh incarnation starts clean: dead marks and holdings both reset.
  store.wipe_all();
  EXPECT_FALSE(store.is_dead(2));
  EXPECT_TRUE(store.all_paths().empty());
  EXPECT_TRUE(store.put(2, "b", blob("ok")).ok());
}

TEST(ReplicaStoreTest, InjectedTornPutStoresStrictPrefix) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  storage::TierFaults f;
  f.p_torn_write = 1.0;
  store.set_fault_injector(11, f, "");
  const Bytes data = blob("sixteen byte blob");
  ASSERT_TRUE(store.put(1, "p", data).ok());  // torn puts report success
  store.clear_fault_injector();
  Bytes out;
  ASSERT_TRUE(store.get(1, "p", out).ok());
  EXPECT_LT(out.size(), data.size());
  EXPECT_GE(store.fault_stats().torn_writes, 1);
}

TEST(ReplicaStoreTest, InjectedCorruptReadIsTransient) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  const Bytes data = blob("pristine replica bytes");
  ASSERT_TRUE(store.put(1, "p", data).ok());
  storage::TierFaults f;
  f.p_corrupt_read = 1.0;
  store.set_fault_injector(12, f, "");
  Bytes corrupt;
  ASSERT_TRUE(store.get(1, "p", corrupt).ok());
  EXPECT_NE(corrupt, data);  // exactly one bit flipped in the copy
  store.clear_fault_injector();
  Bytes clean;
  ASSERT_TRUE(store.get(1, "p", clean).ok());
  EXPECT_EQ(clean, data);  // the stored blob was never touched
  EXPECT_GE(store.fault_stats().corrupt_reads, 1);
}

TEST(ReplicaStoreTest, InjectedCleanFailuresAndPathFilter) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  ASSERT_TRUE(store.put(1, "ck/r0/a", blob("x")).ok());
  ASSERT_TRUE(store.put(1, "ck/r5/b", blob("y")).ok());
  storage::TierFaults f;
  f.p_read_fail = 1.0;
  store.set_fault_injector(13, f, "ck/r0");
  Bytes out;
  EXPECT_EQ(store.get(1, "ck/r0/a", out).code(), ErrorCode::kIo);
  EXPECT_TRUE(store.get(1, "ck/r5/b", out).ok());  // filtered out
  f = storage::TierFaults{};
  f.p_write_fail = 1.0;
  store.set_fault_injector(13, f, "");
  EXPECT_EQ(store.put(2, "c", blob("z")).code(), ErrorCode::kIo);
  EXPECT_FALSE(store.exists(2, "c"));  // clean failure persists nothing
  EXPECT_GE(store.fault_stats().read_failures, 1);
  EXPECT_GE(store.fault_stats().write_failures, 1);
}

// One framed blob deposited at k holders is a single shared run of the
// segment store; each holder's copy must still behave as a private one.

TEST(ReplicaStoreTest, SharedBlobCorruptReadAtOneHolderLeavesOthersPristine) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  const auto shared = stashed(host, blob("one blob, two holders"));
  ASSERT_TRUE(store.put(1, "p", shared).ok());
  ASSERT_TRUE(store.put(2, "p", shared).ok());
  SegmentStore::Extent at2;
  ASSERT_TRUE(store.get(2, "p", at2).ok());
  EXPECT_EQ(at2.run, shared.run) << "holders must share, not copy";
  storage::TierFaults f;
  f.p_corrupt_read = 1.0;
  store.set_fault_injector(21, f, "");
  Bytes corrupt;
  ASSERT_TRUE(store.get(1, "p", corrupt).ok());
  EXPECT_NE(corrupt, loaded(host, shared));
  store.clear_fault_injector();
  Bytes out;
  ASSERT_TRUE(store.get(2, "p", out).ok());
  EXPECT_EQ(out, blob("one blob, two holders"));
  ASSERT_TRUE(store.get(1, "p", out).ok());
  EXPECT_EQ(out, blob("one blob, two holders"));
  EXPECT_EQ(loaded(host, shared), blob("one blob, two holders"));
}

TEST(ReplicaStoreTest, SharedBlobTornPutStoresThatHoldersPrefixOnly) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  const Bytes data = blob("a blob torn at exactly one holder");
  const auto shared = stashed(host, data);
  ASSERT_TRUE(store.put(1, "p", shared).ok());
  storage::TierFaults f;
  f.p_torn_write = 1.0;
  store.set_fault_injector(22, f, "");
  ASSERT_TRUE(store.put(2, "p", shared).ok());  // torn puts report success
  store.clear_fault_injector();
  EXPECT_GE(store.fault_stats().torn_writes, 1);
  Bytes torn;
  ASSERT_TRUE(store.get(2, "p", torn).ok());
  ASSERT_LT(torn.size(), data.size());
  EXPECT_TRUE(std::equal(torn.begin(), torn.end(), data.begin()));
  Bytes intact;
  ASSERT_TRUE(store.get(1, "p", intact).ok());
  EXPECT_EQ(intact, data);
  EXPECT_EQ(loaded(host, shared), data);
}

TEST(ReplicaStoreTest, SharedBlobSurvivesOneHoldersWipe) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  auto shared = stashed(host, blob("outlives holder 1"));
  ASSERT_TRUE(store.put(1, "p", shared).ok());
  ASSERT_TRUE(store.put(2, "p", shared).ok());
  shared = {};  // the store's references are all that remain
  store.wipe_rank(1);
  EXPECT_EQ(store.holders_of("p"), (std::vector<int>{2}));
  Bytes out;
  ASSERT_TRUE(store.get(2, "p", out).ok());
  EXPECT_EQ(out, blob("outlives holder 1"));
}

// The host representation: replicas are extents of the segment store's
// one host file, whose allocated bytes (st_blocks: a released run is a
// hole) are those of the runs still held.

/// The file system's block size and the bytes it has allocated to the
/// files under `root`.
std::pair<uint64_t, uint64_t> host_usage(const std::filesystem::path& root) {
  uint64_t block = 0, allocated = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    struct stat st {};
    if (!e.is_regular_file() || ::stat(e.path().c_str(), &st) != 0) continue;
    block = static_cast<uint64_t>(st.st_blksize);
    allocated += static_cast<uint64_t>(st.st_blocks) * 512;
  }
  return {block, allocated};
}

TEST(ReplicaHostFile, HoldersGoneLeaveAtMostOneBlock) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  const Bytes data(20000, std::byte{0x5a});
  ASSERT_TRUE(store.put(1, "ck/r0/a", data).ok());
  ASSERT_TRUE(store.put(2, "ck/r0/a", data).ok());
  ASSERT_TRUE(store.put(3, "ck/r0/b", data).ok());
  auto [block, allocated] = host_usage(host.tmp.path());
  EXPECT_GE(allocated, 3 * data.size());
  // A wiped rank's extents go at the store's next call that may punch.
  store.wipe_rank(1);
  store.wipe_rank(3);
  store.remove(2, "ck/r0/a");
  EXPECT_TRUE(store.all_paths().empty());
  std::tie(block, allocated) = host_usage(host.tmp.path());
  EXPECT_LE(allocated, block);
}

TEST(ReplicaHostFile, TornPutSharesExactlyThePrefix) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  Bytes data(9000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::byte>(i * 7);
  const auto blob = stashed(host, data);
  const uint64_t before = host_usage(host.tmp.path()).second;
  storage::TierFaults f;
  f.p_torn_write = 1.0;
  store.set_fault_injector(31, f, "");
  ASSERT_TRUE(store.put(1, "p", blob).ok());
  store.clear_fault_injector();
  ASSERT_EQ(store.fault_stats().torn_writes, 1);
  SegmentStore::Extent torn;
  ASSERT_TRUE(store.get(1, "p", torn).ok());
  EXPECT_EQ(torn.run, blob.run);
  ASSERT_LT(torn.len, blob.len);
  EXPECT_EQ(store.stats().bytes_written, torn.len);
  const Bytes back = loaded(host, torn);
  EXPECT_TRUE(std::equal(back.begin(), back.end(), data.begin()));
  EXPECT_EQ(host_usage(host.tmp.path()).second, before);
}

TEST(ReplicaHostFile, CorruptExtentGetHandsBackAPrivateRun) {
  HostFile host;
  ReplicaStore store(storage::TierModel{}, host.segments);
  const Bytes data = blob("a replica read with one bit flipped");
  const auto shared = stashed(host, data);
  ASSERT_TRUE(store.put(1, "p", shared).ok());
  storage::TierFaults f;
  f.p_corrupt_read = 1.0;
  store.set_fault_injector(32, f, "");
  SegmentStore::Extent flipped;
  ASSERT_TRUE(store.get(1, "p", flipped).ok());
  store.clear_fault_injector();
  EXPECT_NE(flipped.run, shared.run);
  EXPECT_EQ(flipped.len, shared.len);
  EXPECT_NE(loaded(host, flipped), data);
  Bytes out;
  ASSERT_TRUE(store.get(1, "p", out).ok());
  EXPECT_EQ(out, data);
}

// ---------------------------------------------------------------------------
// StorageSystem plumbing
// ---------------------------------------------------------------------------

struct MemoryTierFixture : ::testing::Test {
  MemoryTierFixture() : tmp("ftmr-replica-fs") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

TEST_F(MemoryTierFixture, FileApiRejectsTheMemoryTier) {
  Bytes out;
  EXPECT_EQ(fs->write_file(storage::Tier::kMemory, 0, "f", blob("x")).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(fs->read_file(storage::Tier::kMemory, 0, "f", out).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(MemoryTierFixture, InjectorAndStatsPlumbThroughTheFacade) {
  storage::FaultInjectorConfig fc;
  fc.memory.p_read_fail = 1.0;
  fs->set_fault_injector(fc);
  ASSERT_TRUE(fs->memory().put(1, "p", blob("x")).ok());
  Bytes out;
  EXPECT_EQ(fs->memory().get(1, "p", out).code(), ErrorCode::kIo);
  EXPECT_GE(fs->fault_stats().read_failures, 1);  // summed into the facade
  fs->clear_fault_injector();
  EXPECT_TRUE(fs->memory().get(1, "p", out).ok());
  EXPECT_EQ(fs->stats(storage::Tier::kMemory).write_ops, 1);
  EXPECT_GE(fs->stats(storage::Tier::kMemory).read_ops, 1);
}

// ---------------------------------------------------------------------------
// CheckpointManager: recovery through peer memory
// ---------------------------------------------------------------------------

struct ReplicaCkptFixture : ::testing::Test {
  ReplicaCkptFixture() : tmp("ftmr-replica-ckpt") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  static mr::KvBuffer kv(std::initializer_list<std::pair<const char*, const char*>> ps) {
    mr::KvBuffer b;
    for (auto& [k, v] : ps) b.add(k, v);
    return b;
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

TEST_F(ReplicaCkptFixture, CheckpointWriteReplicatesAndRecoveryHitsMemory) {
  Runtime::run(4, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}})).ok());
      // ppn=1 makes every other rank eligible; k=2 copies must exist, and
      // never in the owner's own memory.
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 1u);
      const auto holders = fs->memory().holders_of(paths[0]);
      EXPECT_EQ(holders.size(), 2u);
      for (int h : holders) EXPECT_NE(h, 0);
    }
    ASSERT_TRUE(c.barrier().ok());
    if (c.rank() == 0) {
      RankRecovery rec;
      ASSERT_TRUE(
          cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                             /*from_shared=*/true, 1e9, rec).ok());
      ASSERT_TRUE(rec.partitions.count(3));
      EXPECT_GE(cm.integrity().replica_hits, 1);
      EXPECT_EQ(cm.integrity().replica_misses, 0);
    }
    ASSERT_TRUE(c.barrier().ok());
  });
}

TEST_F(ReplicaCkptFixture, EveryHolderSharesOneExactSizeBlob) {
  // A replica lives in peer RAM for the whole job: each kind's frame is one
  // run of the segment store, the checkpoint file's own, shared (not
  // copied) by all k holders.
  Runtime::run(4, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      const mr::KvBuffer data = kv({{"k", "v"}, {"word", "12345"}});
      ASSERT_TRUE(cm.map_ckpt(c, 0, 1, 0, 2, data).ok());
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, data).ok());
      ASSERT_TRUE(cm.reduce_ckpt(c, 0, 3, 0, 2, data).ok());
      ASSERT_TRUE(cm.stage_output_ckpt(c, 0, 3, data).ok());
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 4u);
      for (const std::string& mpath : paths) {
        const auto holders = fs->memory().holders_of(mpath);
        ASSERT_EQ(holders.size(), 2u) << mpath;
        // The holders share the run of the checkpoint file itself.
        SegmentStore::Extent first;
        ASSERT_TRUE(fs->segments().extent_of(storage::Tier::kLocal, 0, mpath, first));
        for (int h : holders) {
          SegmentStore::Extent e;
          ASSERT_TRUE(fs->memory().get(h, mpath, e).ok());
          EXPECT_EQ(e.len, first.len) << mpath << " at holder " << h;
          Bytes b, payload;
          ASSERT_TRUE(fs->segments().load(e, b).ok());
          EXPECT_TRUE(core::unframe_checkpoint(b, payload).ok()) << mpath;
          EXPECT_EQ(e.run, first.run) << mpath << " copied, not shared";
        }
      }
    }
    ASSERT_TRUE(c.barrier().ok());
  });
}

TEST_F(ReplicaCkptFixture, OneBlobAtThreeHoldersAddsOneRun) {
  // The checkpoint file, its drained copy and all k = 3 replicas share the
  // run the write appended.
  Runtime::run(5, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 3;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      mr::KvBuffer data;
      for (int i = 0; i < 400; ++i) data.add("key" + std::to_string(i), "value");
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, data).ok());
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 1u);
      ASSERT_EQ(fs->memory().holders_of(paths[0]).size(), 3u);
      const int64_t frame = fs->file_size(storage::Tier::kLocal, 0, paths[0]);
      ASSERT_GT(frame, 4096);
      const auto [block, allocated] = host_usage(tmp.path());
      EXPECT_LE(allocated, static_cast<uint64_t>(frame) + block);
    }
    ASSERT_TRUE(c.barrier().ok());
  });
}

TEST_F(ReplicaCkptFixture, ReplicaOutlivesItsCheckpointFileAndNode) {
  Runtime::run(4, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}, {"w", "x"}})).ok());
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 1u);
      Bytes file;
      ASSERT_TRUE(fs->read_file(storage::Tier::kLocal, 0, paths[0], file).ok());
      // The file whose run the replicas share goes, with its node's disk and
      // its drained copy.
      ASSERT_TRUE(fs->remove(storage::Tier::kLocal, 0, paths[0]).ok());
      fs->wipe_node_local(0);
      ASSERT_TRUE(fs->remove(storage::Tier::kShared, 0, "").ok());
      for (int h : fs->memory().holders_of(paths[0])) {
        Bytes replica, payload;
        ASSERT_TRUE(fs->memory().get(h, paths[0], replica).ok());
        EXPECT_EQ(replica, file) << "at holder " << h;
        EXPECT_TRUE(core::unframe_checkpoint(replica, payload).ok());
      }
    }
    ASSERT_TRUE(c.barrier().ok());
  });
}

TEST_F(ReplicaCkptFixture, CorruptedReplicasFallBackToFileTiers) {
  Runtime::run(4, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}})).ok());
      // Smash every in-memory copy; the CRC frame must reject them and the
      // ladder must fall through to the (intact) file tiers.
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 1u);
      for (int h : fs->memory().holders_of(paths[0])) {
        ASSERT_TRUE(fs->memory().put(h, paths[0], blob("garbage")).ok());
      }
    }
    ASSERT_TRUE(c.barrier().ok());
    if (c.rank() == 0) {
      RankRecovery rec;
      ASSERT_TRUE(
          cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                             /*from_shared=*/true, 1e9, rec).ok());
      ASSERT_TRUE(rec.partitions.count(3));  // served from files after all
      EXPECT_GE(cm.integrity().replica_misses, 1);
      EXPECT_GE(cm.integrity().corrupt_frames, 2);  // both bad copies seen
      EXPECT_EQ(rec.quarantined, 0u);
    }
    ASSERT_TRUE(c.barrier().ok());
  });
}

TEST_F(ReplicaCkptFixture, RereplicateHealsToKSharedCopiesAfterAKill) {
  constexpr int kK = 2;
  const int victim = replica_placement(0, kK, iota_live(4), 1).front();
  simmpi::JobOptions o;
  o.kills.push_back({victim, 100.0, -1});
  o.on_rank_death = [this](int r) { fs->memory().wipe_rank(r); };
  std::string mpath;
  Runtime::run(4, [&](Comm& c) {
    CkptOptions co;
    co.memory_replication_k = kK;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), co, 1, /*ppn=*/1);
    if (c.rank() == 0) {
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}})).ok());
      const auto paths = fs->memory().all_paths();
      ASSERT_EQ(paths.size(), 1u);
      mpath = paths[0];
      ASSERT_EQ(fs->memory().holders_of(mpath).size(), size_t{kK});
    }
    ASSERT_TRUE(c.barrier().ok());
    if (c.rank() == victim) {
      c.compute(200.0);  // crosses the kill time
      FAIL() << "victim kept running";
    }
    EXPECT_EQ(c.barrier().code(), ErrorCode::kProcFailed);
    Comm nc;
    ASSERT_TRUE(c.shrink(nc).ok());
    ASSERT_TRUE(cm.rereplicate(nc).ok());
    ASSERT_TRUE(nc.barrier().ok());
    if (c.rank() == 0) {
      const auto holders = fs->memory().holders_of(mpath);
      ASSERT_EQ(holders.size(), size_t{kK});
      SegmentStore::Extent first;
      for (int h : holders) {
        EXPECT_NE(h, victim);
        EXPECT_NE(h, 0);
        SegmentStore::Extent e;
        ASSERT_TRUE(fs->memory().get(h, mpath, e).ok());
        Bytes b, payload;
        ASSERT_TRUE(fs->segments().load(e, b).ok());
        EXPECT_TRUE(core::unframe_checkpoint(b, payload).ok());
        if (!first.run) first = e;
        EXPECT_EQ(e.run, first.run) << "re-push must share the survivor's blob";
      }
    }
  }, o);
}

TEST_F(ReplicaCkptFixture, RereplicateCountsEveryLostPushInBothCounters) {
  // Memory-tier write faults lose every push: the checkpoint's replicate()
  // and rereplicate()'s file-sourced re-push from the owner alike. Each lost
  // push must land in the registry counter as well as in integrity().
  storage::FaultInjectorConfig fc;
  fc.memory.p_write_fail = 1.0;
  fs->set_fault_injector(fc);
  const metrics::MetricsRegistry& reg = metrics::MetricsRegistry::global();
  Runtime::run(4, [&](Comm& c) {
    CkptOptions o;
    o.memory_replication_k = 2;
    CheckpointManager cm(fs.get(), c.rank(), c.rank(), o, 1, /*ppn=*/1);
    const double before = reg.counter("ckpt.replica_push_failures", c.rank());
    if (c.rank() == 0) {
      ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}})).ok());
      EXPECT_TRUE(fs->memory().all_paths().empty());
    }
    ASSERT_TRUE(c.barrier().ok());
    const int64_t lost_at_write = cm.integrity().replica_push_failures;
    ASSERT_TRUE(cm.rereplicate(c).ok());
    if (c.rank() == 0) {
      EXPECT_EQ(lost_at_write, 2);
      EXPECT_EQ(cm.integrity().replica_push_failures, 4);  // the re-push lost 2
    }
    EXPECT_EQ(reg.counter("ckpt.replica_push_failures", c.rank()) - before,
              static_cast<double>(cm.integrity().replica_push_failures));
    ASSERT_TRUE(c.barrier().ok());
  });
}

// ---------------------------------------------------------------------------
// End to end: fault schedules with memory replicas as the primary source
// ---------------------------------------------------------------------------

testing::Explorer make_explorer(const std::string& mode) {
  testing::ExplorerOptions opts;
  opts.mode = mode;
  opts.workload.memory_replication_k = 2;
  return testing::Explorer(opts);
}

TEST(ReplicaEndToEnd, MidRunKillRecoversFromPeerMemory) {
  testing::Explorer e = make_explorer("wc");
  ASSERT_TRUE(e.harvest().ok());
  testing::FaultSchedule s;
  s.label = "replica-midrun-kill";
  s.mode = "wc";
  s.kills.push_back({2, e.golden_ops()[2] / 2, -1.0, 0});
  const testing::RunReport rep = e.run_schedule(s);
  EXPECT_TRUE(rep.completed);
  for (const auto& v : rep.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

TEST(ReplicaEndToEnd, KillingBothReplicaHoldersStillHoldsInvariants) {
  // Default workload: 4 ranks, ppn=2 — ranks 2 and 3 form node 1 and are
  // the only eligible holders for node 0's blobs. Killing both destroys
  // every replica of those blobs; recovery must degrade to files/reprocess
  // and the coverage invariant must account for the empty eligible set.
  testing::Explorer e = make_explorer("wc");
  ASSERT_TRUE(e.harvest().ok());
  testing::FaultSchedule s;
  s.label = "replica-holders-die";
  s.mode = "wc";
  s.kills.push_back({2, e.golden_ops()[2] / 2, -1.0, 0});
  s.kills.push_back({3, 2 * e.golden_ops()[3] / 3, -1.0, 0});
  const testing::RunReport rep = e.run_schedule(s);
  EXPECT_TRUE(rep.completed);
  for (const auto& v : rep.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

TEST(ReplicaEndToEnd, RestartIncarnationsStartWithEmptyMemory) {
  // Checkpoint/restart: the kill forces a resubmission, whose fresh
  // processes must recover from files (wipe_all between incarnations) and
  // then rebuild replicas for their own new writes.
  testing::Explorer e = make_explorer("cr");
  ASSERT_TRUE(e.harvest().ok());
  testing::FaultSchedule s;
  s.label = "replica-cr-restart";
  s.mode = "cr";
  s.kills.push_back({1, e.golden_ops()[1] / 2, -1.0, 0});
  const testing::RunReport rep = e.run_schedule(s);
  EXPECT_TRUE(rep.completed);
  EXPECT_GE(rep.submissions, 2);
  for (const auto& v : rep.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

}  // namespace
}  // namespace ftmr
