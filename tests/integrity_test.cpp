// Checkpoint integrity layer: CRC framing round trips and rejection, the
// probabilistic storage fault injector, copier/prefetcher retry and
// permanent-failure reporting, tier-fallback recovery in the checkpoint
// manager, and end-to-end FtJob recovery under torn writes and bit rot.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "core/checkpoint.hpp"
#include "core/ftjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/copier.hpp"
#include "storage/replica.hpp"
#include "storage/storage.hpp"
#include "tests/test_seed.hpp"

namespace ftmr::core {
namespace {

using simmpi::Comm;
using simmpi::Runtime;

// ---------------------------------------------------------------------------
// Frame round trip and rejection
// ---------------------------------------------------------------------------

Bytes payload_of(std::string_view s) {
  auto v = as_bytes_view(s);
  return Bytes(v.begin(), v.end());
}

TEST(CkptFrame, RoundTrips) {
  const Bytes payload = payload_of("checkpoint payload bytes");
  const Bytes framed = frame_checkpoint(payload);
  EXPECT_EQ(framed.size(), payload.size() + kCkptFrameOverhead);
  Bytes back;
  ASSERT_TRUE(unframe_checkpoint(framed, back).ok());
  EXPECT_EQ(back, payload);
}

TEST(CkptFrame, EmptyPayloadRoundTrips) {
  const Bytes framed = frame_checkpoint({});
  EXPECT_EQ(framed.size(), kCkptFrameOverhead);
  Bytes back{std::byte{0xFF}};
  ASSERT_TRUE(unframe_checkpoint(framed, back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(CkptFrame, DetectsEverySingleBitFlip) {
  const Bytes framed = frame_checkpoint(payload_of("abc"));
  for (size_t i = 0; i < framed.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = framed;
      bad[i] ^= static_cast<std::byte>(1u << bit);
      Bytes out;
      EXPECT_EQ(unframe_checkpoint(bad, out).code(), ErrorCode::kCorrupt)
          << "flip at byte " << i << " bit " << bit << " went undetected";
    }
  }
}

TEST(CkptFrame, DetectsEveryTruncation) {
  // A torn write persists an arbitrary strict prefix; all of them must be
  // rejected, including prefixes shorter than the header.
  const Bytes framed = frame_checkpoint(payload_of("torn write victim"));
  for (size_t n = 0; n < framed.size(); ++n) {
    Bytes out;
    EXPECT_EQ(
        unframe_checkpoint(std::span(framed).first(n), out).code(),
        ErrorCode::kCorrupt)
        << "prefix of " << n << " bytes went undetected";
  }
}

TEST(CkptFrame, RejectsUnknownVersionAndTrailingGarbage) {
  Bytes framed = frame_checkpoint(payload_of("x"));
  Bytes versioned = framed;
  versioned[4] = std::byte{0x7F};  // version field
  Bytes out;
  EXPECT_EQ(unframe_checkpoint(versioned, out).code(), ErrorCode::kCorrupt);
  Bytes longer = framed;
  longer.push_back(std::byte{0});  // length no longer matches frame size
  EXPECT_EQ(unframe_checkpoint(longer, out).code(), ErrorCode::kCorrupt);
}

TEST(CkptFrame, IsOneExactSizeAllocation) {
  // Frames are held for the whole job (local write, memory replicas), so
  // they must carry no spare capacity.
  for (size_t n : {size_t{0}, size_t{1}, size_t{31}, size_t{4096}, size_t{70001}}) {
    const Bytes payload(n, std::byte{0x5A});
    const Bytes framed = frame_checkpoint(payload);
    EXPECT_EQ(framed.size(), n + kCkptFrameOverhead);
    EXPECT_EQ(framed.capacity(), framed.size()) << "payload " << n;
  }
}

TEST(CkptFrame, KindFramesMatchPayloadThenFrameLayout) {
  // Every checkpoint kind frames its fixed fields and KV wire image in one
  // pass; the file must be byte-identical to framing a separately built
  // payload, which is the layout every reader (and every older file) has.
  storage::TempDir tmp("ftmr-integrity-layout");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);
  mr::KvBuffer kv;
  kv.add("alpha", "1");
  kv.add("jumbo", std::string(3000, 'j'));
  kv.add("", "");
  const mr::KvBuffer empty;
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.location = CkptOptions::Location::kLocalOnly;
    CheckpointManager cm(&fs, 0, 0, o, 1);
    ASSERT_TRUE(cm.map_ckpt(c, 2, 7, 10, 42, kv).ok());
    ASSERT_TRUE(cm.partition_ckpt(c, 2, 5, kv).ok());
    ASSERT_TRUE(cm.reduce_ckpt(c, 2, 5, 3, 9, kv).ok());
    ASSERT_TRUE(cm.stage_output_ckpt(c, 2, 5, empty).ok());
  });
  auto expect_file = [&](const std::string& name, const ByteWriter& payload) {
    Bytes file;
    ASSERT_TRUE(fs.read_file(storage::Tier::kLocal, 0, "ck/r0/" + name, file).ok());
    EXPECT_EQ(file, frame_checkpoint(payload.bytes())) << name;
  };
  ByteWriter map;
  map.put<uint64_t>(7);
  map.put<uint64_t>(10);
  map.put<uint64_t>(42);
  map.put_blob(kv.wire_view());
  expect_file("map_s002_p000000000007_q000000", map);
  ByteWriter part;
  part.put<int32_t>(5);
  part.put_blob(kv.wire_view());
  expect_file("part_s002_p000000000005_q000001", part);
  ByteWriter red;
  red.put<int32_t>(5);
  red.put<uint64_t>(3);
  red.put<uint64_t>(9);
  red.put_blob(kv.wire_view());
  expect_file("red_s002_p000000000005_q000002", red);
  ByteWriter out;
  out.put<int32_t>(5);
  out.put_blob(empty.wire_view());
  expect_file("out_s002_p000000000005_q000003", out);
}

// ---------------------------------------------------------------------------
// Storage fault injector
// ---------------------------------------------------------------------------

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest() : tmp_("ftmr-integrity-inj") {
    storage::StorageOptions opts;
    opts.root = tmp_.path();
    fs_ = std::make_unique<storage::StorageSystem>(opts);
  }
  storage::TempDir tmp_;
  std::unique_ptr<storage::StorageSystem> fs_;
};

TEST_F(InjectorTest, TornWriteReportsSuccessButPersistsPrefix) {
  storage::FaultInjectorConfig fc;
  fc.local.p_torn_write = 1.0;
  fs_->set_fault_injector(fc);
  const std::string data = "twelve bytes";
  // The write *claims* success — a process dying mid-write never sees an
  // error either. Only the CRC frame can catch this.
  ASSERT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "f",
                              as_bytes_view(data)).ok());
  fs_->clear_fault_injector();
  Bytes out;
  ASSERT_TRUE(fs_->read_file(storage::Tier::kLocal, 0, "f", out).ok());
  EXPECT_LT(out.size(), data.size());
  EXPECT_GE(fs_->fault_stats().torn_writes, 1);
}

TEST_F(InjectorTest, CorruptReadFlipsOneBitAndIsTransient) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kShared, 0, "f",
                              as_bytes_view("stable bytes")).ok());
  storage::FaultInjectorConfig fc;
  fc.shared.p_corrupt_read = 1.0;
  fs_->set_fault_injector(fc);
  Bytes corrupted;
  ASSERT_TRUE(fs_->read_file(storage::Tier::kShared, 0, "f", corrupted).ok());
  EXPECT_NE(to_string_copy(corrupted), "stable bytes");
  EXPECT_EQ(corrupted.size(), 12u);  // size intact: exactly one bit flipped
  fs_->clear_fault_injector();
  // The file itself is untouched — a re-read can succeed.
  Bytes clean;
  ASSERT_TRUE(fs_->read_file(storage::Tier::kShared, 0, "f", clean).ok());
  EXPECT_EQ(to_string_copy(clean), "stable bytes");
  EXPECT_GE(fs_->fault_stats().corrupt_reads, 1);
}

TEST_F(InjectorTest, PathFilterScopesFaults) {
  storage::FaultInjectorConfig fc;
  fc.local.p_write_fail = 1.0;
  fc.path_filter = "ck/r2";
  fs_->set_fault_injector(fc);
  EXPECT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "input/chunk0",
                              as_bytes_view("x")).ok());
  EXPECT_EQ(fs_->write_file(storage::Tier::kLocal, 0, "ck/r2/map_x",
                            as_bytes_view("x")).code(),
            ErrorCode::kIo);
}

TEST_F(InjectorTest, SameSeedSameFaultSequence) {
  auto run = [&](uint64_t seed) {
    std::vector<bool> outcomes;
    storage::FaultInjectorConfig fc;
    fc.seed = seed;
    fc.shared.p_write_fail = 0.5;
    fs_->set_fault_injector(fc);
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(
          fs_->write_file(storage::Tier::kShared, 0, "f" + std::to_string(i),
                          as_bytes_view("x")).ok());
    }
    fs_->clear_fault_injector();
    return outcomes;
  };
  const auto a = run(tests::test_seed(0x42)), b = run(tests::test_seed(0x42)),
             c = run(tests::test_seed(7));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // (astronomically unlikely to collide over 64 draws)
}

// Every tier's fault stream, pinned bit for bit: a fixed seed and a fixed
// single-threaded op sequence must give exactly these failures, torn
// prefix lengths and flipped (byte:bit) positions. This pins the draw
// order that replaying a seeded fault run depends on: count-based failures
// before any draw, then the path filter, fail before torn, read fail before
// corrupt, byte before bit.
//
// Tokens, one per operation. Writes: F clean failure, W whole, T<n> torn to
// n bytes. Reads: F clean failure, N not found, L<n> short file, @<byte>:<bit>
// flipped bit, . intact.
enum class FaultOps { kWrites, kReads, kMixed };

struct StreamRow {
  storage::Tier tier;
  // The TierFaults probability set to 0.5; "mixed" sets all four to 0.25.
  const char* faults;
  FaultOps ops;
  const char* golden;
  storage::FaultStats stats;
};

std::string run_fault_stream(const std::filesystem::path& root, const StreamRow& row,
                             storage::FaultStats& stats) {
  constexpr int kOps = 16;
  const Bytes data = [] {
    Bytes b(64);
    for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<std::byte>(i * 37 + 11);
    return b;
  }();
  storage::StorageOptions so;
  so.root = root;
  storage::StorageSystem fs(so);
  storage::ReplicaStore& mem = fs.memory();
  const bool memory = row.tier == storage::Tier::kMemory;
  // The mixed rows filter on "ck/": every fourth path is outside it and
  // must draw nothing.
  auto path = [&](int i) {
    return std::string(row.ops == FaultOps::kMixed && i % 4 == 3 ? "in/f" : "ck/r0/f") +
           std::to_string(i);
  };
  auto put = [&](int i) {
    return memory ? mem.put(0, path(i), data) : fs.write_file(row.tier, 0, path(i), data);
  };
  auto get = [&](int i, Bytes& out) {
    return memory ? mem.get(0, path(i), out) : fs.read_file(row.tier, 0, path(i), out);
  };
  auto read_token = [&](const Status& s, const Bytes& out) -> std::string {
    if (!s.ok()) return s.code() == ErrorCode::kNotFound ? "N" : "F";
    std::string t = out.size() == data.size() ? "" : "L" + std::to_string(out.size());
    for (size_t b = 0; b < out.size(); ++b) {
      const auto diff = static_cast<unsigned>(out[b] ^ data[b]);
      for (int bit = 0; bit < 8; ++bit) {
        if (diff & (1u << bit)) t += "@" + std::to_string(b) + ":" + std::to_string(bit);
      }
    }
    return t.empty() ? "." : t;
  };

  storage::FaultInjectorConfig fc;
  fc.seed = 0xC0FFEEULL;
  storage::TierFaults& f = row.tier == storage::Tier::kLocal    ? fc.local
                           : row.tier == storage::Tier::kShared ? fc.shared
                                                                : fc.memory;
  const std::string kind = row.faults;
  const double p = kind == "mixed" ? 0.25 : 0.5;
  if (kind == "write_fail" || kind == "mixed") f.p_write_fail = p;
  if (kind == "torn_write" || kind == "mixed") f.p_torn_write = p;
  if (kind == "read_fail" || kind == "mixed") f.p_read_fail = p;
  if (kind == "corrupt_read" || kind == "mixed") f.p_corrupt_read = p;
  if (kind == "mixed") fc.path_filter = "ck/";

  std::string tokens;
  auto emit = [&](const std::string& t) { tokens += (tokens.empty() ? "" : " ") + t; };
  Bytes out;
  switch (row.ops) {
    case FaultOps::kWrites: {
      fs.set_fault_injector(fc);
      std::vector<bool> landed;
      for (int i = 0; i < kOps; ++i) landed.push_back(put(i).ok());
      fs.clear_fault_injector();
      for (int i = 0; i < kOps; ++i) {
        if (!landed[static_cast<size_t>(i)]) {
          emit("F");
          continue;
        }
        EXPECT_TRUE(get(i, out).ok());
        emit(out.size() == data.size() ? "W" : "T" + std::to_string(out.size()));
      }
      break;
    }
    case FaultOps::kReads:
      for (int i = 0; i < kOps; ++i) EXPECT_TRUE(put(i).ok());
      fs.set_fault_injector(fc);
      for (int i = 0; i < kOps; ++i) {
        const Status s = get(i, out);
        emit(read_token(s, out));
      }
      break;
    case FaultOps::kMixed:
      fs.set_fault_injector(fc);
      // Count-based failures hit the file tiers only, before any draw.
      fs.inject_io_failures(2);
      for (int i = 0; i < kOps; ++i) {
        emit(put(i).ok() ? "W" : "F");
        const Status s = get(i, out);
        emit(read_token(s, out));
      }
      break;
  }
  stats = fs.fault_stats();
  return tokens;
}

TEST_F(InjectorTest, EveryTierFaultStreamIsPinnedBitForBit) {
  using storage::Tier;
  const StreamRow rows[] = {
      {Tier::kLocal, "write_fail", FaultOps::kWrites,
       "W W W F W F F F F F W W F F W W",
       {8, 0, 0, 0, 0}},
      {Tier::kLocal, "torn_write", FaultOps::kWrites,
       "W W W T37 T27 T11 T36 W T34 W W T32 W T21 T32 W",
       {0, 8, 0, 0, 0}},
      {Tier::kLocal, "read_fail", FaultOps::kReads,
       ". . . F . F F F F F . . F F . .",
       {0, 0, 8, 0, 0}},
      {Tier::kLocal, "corrupt_read", FaultOps::kReads,
       ". . . @37:1 @0:3 @36:7 @34:6 . @32:0 @21:4 @31:0 . @38:7 . @12:0 @30:6",
       {0, 0, 0, 10, 0}},
      {Tier::kLocal, "mixed", FaultOps::kMixed,
       "F F W . W L27@1:4 W . W L34 F N W F W . W @38:7 W L12 F N W . "
       "W @37:3 W @56:6 F N W .",
       {3, 4, 1, 5, 2}},
      {Tier::kShared, "write_fail", FaultOps::kWrites,
       "W W W F W F F F F F W W F F W W",
       {8, 0, 0, 0, 0}},
      {Tier::kShared, "torn_write", FaultOps::kWrites,
       "W W W T37 T27 T11 T36 W T34 W W T32 W T21 T32 W",
       {0, 8, 0, 0, 0}},
      {Tier::kShared, "read_fail", FaultOps::kReads,
       ". . . F . F F F F F . . F F . .",
       {0, 0, 8, 0, 0}},
      {Tier::kShared, "corrupt_read", FaultOps::kReads,
       ". . . @37:1 @0:3 @36:7 @34:6 . @32:0 @21:4 @31:0 . @38:7 . @12:0 @30:6",
       {0, 0, 0, 10, 0}},
      {Tier::kShared, "mixed", FaultOps::kMixed,
       "F F W . W L27@1:4 W . W L34 F N W F W . W @38:7 W L12 F N W . "
       "W @37:3 W @56:6 F N W .",
       {3, 4, 1, 5, 2}},
      {Tier::kMemory, "write_fail", FaultOps::kWrites,
       "F W W F W W W F W F W F F F F W",
       {8, 0, 0, 0, 0}},
      {Tier::kMemory, "torn_write", FaultOps::kWrites,
       "T60 W T5 W W T61 T60 T60 T42 W W W W W T48 T21",
       {0, 8, 0, 0, 0}},
      {Tier::kMemory, "read_fail", FaultOps::kReads,
       "F . . F . . . F . F . F F F F .",
       {0, 0, 8, 0, 0}},
      {Tier::kMemory, "corrupt_read", FaultOps::kReads,
       "@60:5 @5:0 . @61:5 . @60:7 @1:1 . . . @48:4 . . @18:0 . @57:0",
       {0, 0, 0, 8, 0}},
      {Tier::kMemory, "mixed", FaultOps::kMixed,
       "F N F N W @60:5 W . F F F N W @48:4 W . W @8:7 W . W L38 W . W F W F W . W .",
       {4, 1, 3, 3, 0}},
  };
  int n = 0;
  for (const StreamRow& row : rows) {
    const char* tier = row.tier == Tier::kLocal    ? "local"
                       : row.tier == Tier::kShared ? "shared"
                                                   : "memory";
    SCOPED_TRACE(std::string(tier) + " " + row.faults);
    storage::FaultStats st;
    const std::string got =
        run_fault_stream(tmp_.path() / ("row" + std::to_string(n++)), row, st);
    EXPECT_EQ(got, row.golden);
    EXPECT_EQ(st.write_failures, row.stats.write_failures);
    EXPECT_EQ(st.torn_writes, row.stats.torn_writes);
    EXPECT_EQ(st.read_failures, row.stats.read_failures);
    EXPECT_EQ(st.corrupt_reads, row.stats.corrupt_reads);
    EXPECT_EQ(st.count_failures, row.stats.count_failures);
  }
}

// ---------------------------------------------------------------------------
// Copier retry / permanent failure reporting
// ---------------------------------------------------------------------------

TEST_F(InjectorTest, CopierRetriesTransientErrorThenSucceeds) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "ck/f",
                              as_bytes_view("payload")).ok());
  storage::CopierAgent copier(fs_.get(), 0, 1);
  fs_->inject_io_failures(1, {ErrorCode::kIo, "transient"});
  double done_at = 0.0;
  ASSERT_TRUE(copier.enqueue("ck/f", "ck/f", 0.0, &done_at).ok());
  EXPECT_EQ(copier.retries(), 1);
  EXPECT_TRUE(copier.failed_drains().empty());
  // The sat-out backoff stretches the copier's timeline beyond pure I/O.
  storage::RetryPolicy pol;
  EXPECT_GE(done_at, pol.backoff_before(1));
  EXPECT_TRUE(fs_->exists(storage::Tier::kShared, 0, "ck/f"));
}

TEST_F(InjectorTest, CopierReportsPermanentFailure) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kLocal, 0, "ck/f",
                              as_bytes_view("payload")).ok());
  storage::CopierAgent copier(fs_.get(), 0, 1);
  storage::RetryPolicy pol;
  fs_->inject_io_failures(pol.max_attempts, {ErrorCode::kIo, "disk on fire"});
  EXPECT_EQ(copier.enqueue("ck/f", "ck/f", 0.0).code(), ErrorCode::kIo);
  ASSERT_EQ(copier.failed_drains().size(), 1u);
  EXPECT_EQ(copier.failed_drains()[0].local_path, "ck/f");
  EXPECT_EQ(copier.retries(), pol.max_attempts - 1);
  EXPECT_EQ(copier.copies(), 0);
}

TEST_F(InjectorTest, CopierFailsFastOnMissingSource) {
  storage::CopierAgent copier(fs_.get(), 0, 1);
  EXPECT_EQ(copier.enqueue("ck/absent", "ck/absent", 0.0).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(copier.retries(), 0);  // waiting cannot make the file appear
  ASSERT_EQ(copier.failed_drains().size(), 1u);
}

TEST_F(InjectorTest, PrefetcherRetriesAndStagesThroughTransientError) {
  ASSERT_TRUE(fs_->write_file(storage::Tier::kShared, 0, "ck/f",
                              as_bytes_view("prefetched")).ok());
  storage::Prefetcher pf(fs_.get(), 0, 1);
  fs_->inject_io_failures(1, {ErrorCode::kIo, "transient"});
  std::vector<std::string> paths{"ck/f"};
  ASSERT_TRUE(pf.start(paths, "stage", 0.0).ok());
  EXPECT_EQ(pf.retries(), 1);
  ASSERT_TRUE(pf.staged_ok(0));
  Bytes out;
  double cost = 0.0;
  ASSERT_TRUE(pf.read(0, 0.0, out, &cost).ok());
  EXPECT_EQ(to_string_copy(out), "prefetched");
}

// ---------------------------------------------------------------------------
// CheckpointManager: verify, fall back across tiers, quarantine
// ---------------------------------------------------------------------------

struct IntegrityCkptFixture : ::testing::Test {
  IntegrityCkptFixture() : tmp("ftmr-integrity-ckpt") {
    storage::StorageOptions o;
    o.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(o);
  }
  mr::KvBuffer kv(std::initializer_list<std::pair<const char*, const char*>> ps) {
    mr::KvBuffer b;
    for (auto& [k, v] : ps) b.add(k, v);
    return b;
  }
  // Overwrite one checkpoint file (selected by substring) with a torn
  // prefix of itself, simulating a write cut short by a crash.
  void tear_file(storage::Tier tier, const std::string& substr) {
    std::vector<std::string> names;
    ASSERT_TRUE(fs->list_dir(tier, 0, "ck/r0", names).ok());
    for (const auto& n : names) {
      if (n.find(substr) == std::string::npos) continue;
      Bytes data;
      ASSERT_TRUE(fs->read_file(tier, 0, "ck/r0/" + n, data).ok());
      ASSERT_GT(data.size(), 4u);
      ASSERT_TRUE(fs->write_file(tier, 0, "ck/r0/" + n,
                                 std::span(data).first(data.size() / 2)).ok());
      return;
    }
    FAIL() << "no file matching " << substr << " to tear";
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

TEST_F(IntegrityCkptFixture, TornSharedCopyServedFromLocalReplica) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;  // kLocalWithCopier: file exists on both tiers
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}})).ok());
    tear_file(storage::Tier::kShared, "part_");
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                                   /*from_shared=*/true, 1e9, rec).ok());
    ASSERT_TRUE(rec.partitions.count(3));  // recovered via the local replica
    EXPECT_GE(rec.corrupt_frames, 1u);
    EXPECT_EQ(rec.tier_fallbacks, 1u);
    EXPECT_EQ(rec.quarantined, 0u);
    EXPECT_GE(cm.integrity().tier_fallbacks, 1);
  });
}

TEST_F(IntegrityCkptFixture, TornLocalFileServedFromDrainedSharedCopy) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}})).ok());
    tear_file(storage::Tier::kLocal, "part_");
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                                   /*from_shared=*/false, -1.0, rec).ok());
    ASSERT_TRUE(rec.partitions.count(3));  // recovered via the stamped shared copy
    EXPECT_EQ(rec.tier_fallbacks, 1u);
    EXPECT_EQ(rec.quarantined, 0u);
  });
}

TEST_F(IntegrityCkptFixture, BothReplicasTornQuarantinesAndKeepsRest) {
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv({{"k", "v"}})).ok());
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 4, kv({{"k2", "v2"}})).ok());
    tear_file(storage::Tier::kShared, "p000000000003");
    tear_file(storage::Tier::kLocal, "p000000000003");
    RankRecovery rec;
    // Load still succeeds: partition 3 is lost (bounded), partition 4 intact.
    ASSERT_TRUE(cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                                   /*from_shared=*/true, 1e9, rec).ok());
    EXPECT_FALSE(rec.partitions.count(3));
    EXPECT_TRUE(rec.partitions.count(4));
    EXPECT_EQ(rec.quarantined, 1u);
    EXPECT_EQ(cm.integrity().files_quarantined, 1);
  });
}

TEST_F(IntegrityCkptFixture, PoisonedDeltaChainKeepsVerifiedPrefixOnly) {
  // Map deltas (task, records [start, end)) and red deltas (partition, KMV
  // entries [start, end)) replay by the same contiguity rule. Each delta
  // holds one record whose key names it, so the replayed keys show exactly
  // which deltas were merged.
  struct Delta {
    uint64_t start, end;
    const char* key;
  };
  struct Case {
    const char* name;
    std::vector<Delta> deltas;
    int torn;  // index of a delta whose file is torn before loading; -1: none
    uint64_t cursor;                // replayed chain position
    std::vector<std::string> keys;  // replayed records, in merge order
    size_t quarantined;
  };
  const std::vector<Case> cases = {
      {"contiguous continuation", {{0, 100, "a"}, {100, 200, "b"}}, -1, 200,
       {"a", "b"}, 0},
      // A restarted incarnation re-executed from 0 but got no further than
      // the chain already reaches: its delta repeats records already applied.
      {"duplicate prefix", {{0, 100, "a"}, {100, 200, "b"}, {0, 150, "a2"}}, -1,
       200, {"a", "b"}, 0},
      {"restart reaching further supersedes the prefix",
       {{0, 100, "a"}, {0, 300, "c"}}, -1, 300, {"c"}, 0},
      // Once a gap appears, even a later delta contiguous with it is not
      // merged: the tail is reprocessed from input.
      {"gap poisons the tail", {{0, 100, "a"}, {200, 300, "c"}, {300, 400, "d"}},
       -1, 100, {"a"}, 0},
      // Merging the third delta onto the first would claim position 300
      // while missing the torn delta's records.
      {"torn middle delta poisons the tail",
       {{0, 100, "a"}, {100, 200, "b"}, {200, 300, "c"}}, 1, 100, {"a"}, 1},
  };
  for (const bool map_kind : {true, false}) {
    for (size_t ci = 0; ci < cases.size(); ++ci) {
      const Case& tc = cases[ci];
      SCOPED_TRACE(std::string(map_kind ? "map: " : "red: ") + tc.name);
      storage::StorageOptions so;
      so.root = tmp.path() / ((map_kind ? "map" : "red") + std::to_string(ci));
      fs = std::make_unique<storage::StorageSystem>(so);
      Runtime::run(1, [&](Comm& c) {
        CkptOptions o;
        o.location = CkptOptions::Location::kLocalOnly;  // single replica
        CheckpointManager cm(fs.get(), 0, 0, o, 1);
        for (const Delta& d : tc.deltas) {
          const mr::KvBuffer delta = kv({{d.key, "1"}});
          ASSERT_TRUE((map_kind ? cm.map_ckpt(c, 0, 5, d.start, d.end, delta)
                                : cm.reduce_ckpt(c, 0, 5, d.start, d.end, delta))
                          .ok());
        }
        if (tc.torn >= 0) {
          char seq[16];
          std::snprintf(seq, sizeof(seq), "_q%06d", tc.torn);
          tear_file(storage::Tier::kLocal, seq);
        }
        RankRecovery rec;
        ASSERT_TRUE(
            cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                               /*from_shared=*/false, -1.0, rec).ok());
        ASSERT_EQ(map_kind ? rec.map_tasks.count(5) : rec.reduce.count(5), 1u);
        const uint64_t cursor =
            map_kind ? rec.map_tasks[5].pos : rec.reduce[5].entries_done;
        const mr::KvBuffer& got = map_kind ? rec.map_tasks[5].kv : rec.reduce[5].out;
        EXPECT_EQ(cursor, tc.cursor);
        std::vector<std::string> keys;
        for (size_t i = 0; i < got.size(); ++i) keys.emplace_back(got.view(i).key);
        EXPECT_EQ(keys, tc.keys);
        EXPECT_EQ(rec.quarantined, tc.quarantined);
      });
    }
  }

  // A red delta older than the partition snapshot it follows reduced a
  // superseded shuffle's content: it is dropped, and the chain replays
  // from the first delta written after the snapshot.
  storage::StorageOptions so;
  so.root = tmp.path() / "stale-red";
  fs = std::make_unique<storage::StorageSystem>(so);
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.location = CkptOptions::Location::kLocalOnly;
    CheckpointManager cm(fs.get(), 0, 0, o, 1);
    ASSERT_TRUE(cm.reduce_ckpt(c, 0, 5, 0, 10, kv({{"stale", "1"}})).ok());
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 5, kv({{"p", "1"}})).ok());
    ASSERT_TRUE(cm.reduce_ckpt(c, 0, 5, 0, 4, kv({{"fresh", "1"}})).ok());
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                                   /*from_shared=*/false, -1.0, rec).ok());
    ASSERT_TRUE(rec.partitions.count(5));
    ASSERT_TRUE(rec.reduce.count(5));
    EXPECT_EQ(rec.reduce[5].entries_done, 4u);
    ASSERT_EQ(rec.reduce[5].out.size(), 1u);
    EXPECT_EQ(rec.reduce[5].out.view(0).key, "fresh");
    EXPECT_EQ(rec.quarantined, 0u);
  });
}

// ---------------------------------------------------------------------------
// CheckpointManager write ladder: retry, best-effort drop, misconfiguration
// ---------------------------------------------------------------------------

struct LadderCase {
  bool paged;  // partition_ckpt_paged (streamed) vs partition_ckpt (whole frame)
  CkptOptions::Location location;
  std::string name() const {
    const char* loc = location == CkptOptions::Location::kSharedDirect ? "shared"
                      : location == CkptOptions::Location::kLocalOnly  ? "local-only"
                                                                       : "local+copier";
    return std::string(paged ? "paged " : "whole-frame ") + loc;
  }
};

std::vector<LadderCase> ladder_cases(bool local_only) {
  std::vector<LadderCase> out;
  for (const bool paged : {false, true}) {
    for (const auto loc : {CkptOptions::Location::kSharedDirect,
                           CkptOptions::Location::kLocalOnly,
                           CkptOptions::Location::kLocalWithCopier}) {
      if (local_only && loc == CkptOptions::Location::kSharedDirect) continue;
      out.push_back({paged, loc});
    }
  }
  return out;
}

/// Writes partition 3 of stage 0 through the case's writer. The paged
/// source spills to its own storage system, so its page I/O never draws
/// on `fs`'s injected failures.
Status write_ladder_partition(Comm& c, CheckpointManager& cm, const LadderCase& lc,
                              storage::StorageSystem& spill_fs, mr::KvBuffer& kv) {
  mr::SpillableKvBuffer skv(&spill_fs, 0, "spill/ladder", /*page_bytes=*/512,
                            /*memory_budget=*/1024);
  for (int i = 0; i < 120; ++i) {
    const std::string k = "key-" + std::to_string(i);
    const std::string v(static_cast<size_t>(8 + i % 17), 'v');
    kv.add(k, v);
    if (!skv.add(k, v).ok()) return {ErrorCode::kInternal, "spill add failed"};
  }
  if (skv.page_count() < 2) return {ErrorCode::kInternal, "stream is one page"};
  return lc.paged ? cm.partition_ckpt_paged(c, 0, 3, skv)
                  : cm.partition_ckpt(c, 0, 3, kv);
}

TEST(CkptWriteLadder, RetriesThenDropsForEveryWriterAndPlacement) {
  const storage::RetryPolicy policy;  // the manager's ladder
  for (const LadderCase& lc : ladder_cases(/*local_only=*/false)) {
    for (const int failures : {policy.max_attempts - 1, policy.max_attempts}) {
      const bool dropped = failures == policy.max_attempts;
      SCOPED_TRACE(lc.name() + (dropped ? ", exhausted" : ", last attempt lands"));
      storage::TempDir tmp("ftmr-integrity-ladder");
      storage::StorageOptions so, spill_so;
      so.root = tmp.path() / "ckpt";
      spill_so.root = tmp.path() / "spill";
      storage::StorageSystem fs(so), spill_fs(spill_so);
      Runtime::run(1, [&](Comm& c) {
        CkptOptions o;
        o.location = lc.location;
        CheckpointManager cm(&fs, 0, 0, o, 1);
        fs.inject_io_failures(failures, {ErrorCode::kIo, "transient"});
        mr::KvBuffer kv;
        // Best-effort: an exhausted ladder drops the checkpoint, not the job.
        ASSERT_TRUE(write_ladder_partition(c, cm, lc, spill_fs, kv).ok());
        EXPECT_EQ(fs.fault_stats().count_failures, failures);
        EXPECT_EQ(cm.integrity().io_retries, policy.max_attempts - 1);
        EXPECT_EQ(cm.integrity().ckpt_write_failures, dropped ? 1 : 0);
        EXPECT_EQ(cm.integrity().drain_failures, 0);
        const bool shared = lc.location == CkptOptions::Location::kSharedDirect;
        RankRecovery rec;
        ASSERT_TRUE(cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                                       shared, -1.0, rec).ok());
        if (dropped) {
          EXPECT_TRUE(rec.partitions.empty());
          EXPECT_EQ(rec.files_read, 0u);
        } else {
          ASSERT_TRUE(rec.partitions.count(3));
          EXPECT_EQ(rec.partitions[3].size(), kv.size());
          EXPECT_EQ(rec.quarantined, 0u);
        }
      });
    }
  }
}

TEST(CkptWriteLadder, LocalPlacementWithoutLocalDiskFailsPrecondition) {
  for (const LadderCase& lc : ladder_cases(/*local_only=*/true)) {
    SCOPED_TRACE(lc.name());
    storage::TempDir tmp("ftmr-integrity-nodisk");
    storage::StorageOptions so, spill_so;
    so.root = tmp.path() / "ckpt";
    so.has_local_disk = false;
    spill_so.root = tmp.path() / "spill";
    storage::StorageSystem fs(so), spill_fs(spill_so);
    Runtime::run(1, [&](Comm& c) {
      CkptOptions o;
      o.location = lc.location;
      CheckpointManager cm(&fs, 0, 0, o, 1);
      mr::KvBuffer kv;
      // A misconfiguration is surfaced, never retried or dropped.
      EXPECT_EQ(write_ladder_partition(c, cm, lc, spill_fs, kv).code(),
                ErrorCode::kFailedPrecondition);
      const IntegrityStats st = cm.integrity();
      EXPECT_EQ(st.io_retries, 0);
      EXPECT_EQ(st.ckpt_write_failures, 0);
      EXPECT_EQ(st.drain_failures, 0);
      EXPECT_EQ(cm.write_seconds(), 0.0);
    });
  }
}

TEST(CkptReadLadder, PrefetchWithoutLocalDiskReadsSharedDirectly) {
  // With no local disk the prefetcher cannot stage anything. That is the
  // pipeline's error, not the shared tier's: the read ladder's next rung
  // reads the shared file directly, so nothing falls back or is lost.
  storage::TempDir tmp("ftmr-integrity-nodisk-prefetch");
  storage::StorageOptions so;
  so.root = tmp.path();
  so.has_local_disk = false;
  storage::StorageSystem fs(so);
  Runtime::run(1, [&](Comm& c) {
    CkptOptions o;
    o.location = CkptOptions::Location::kSharedDirect;
    o.prefetch_recovery = true;
    CheckpointManager cm(&fs, 0, 0, o, 1);
    mr::KvBuffer kv;
    kv.add("alpha", "1");
    kv.add("beta", "2");
    ASSERT_TRUE(cm.partition_ckpt(c, 0, 3, kv).ok());
    RankRecovery rec;
    ASSERT_TRUE(cm.load_rank_stage(c, {.stage = 0, .rank = 0}, 0,
                                   /*from_shared=*/true, -1.0, rec).ok());
    ASSERT_TRUE(rec.partitions.count(3));
    EXPECT_EQ(rec.partitions[3].size(), kv.size());
    EXPECT_EQ(rec.quarantined, 0u);
    EXPECT_EQ(cm.integrity().io_retries, 1);
    EXPECT_EQ(cm.integrity().tier_fallbacks, 0);
  });
}

// ---------------------------------------------------------------------------
// End-to-end: FtJob recovery under storage faults
// ---------------------------------------------------------------------------

struct FaultyCluster {
  FaultyCluster() : tmp("ftmr-integrity-e2e") {
    storage::StorageOptions so;
    so.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(so);
    apps::TextGenOptions tg;
    tg.nchunks = 16;
    tg.lines_per_chunk = 32;
    EXPECT_TRUE(apps::generate_text(*fs, tg, &expected_words).ok());
    for (auto& [w, cnt] : expected_words) expected[w] = cnt;
  }
  std::map<std::string, int64_t> read_output() {
    std::vector<std::string> parts;
    EXPECT_TRUE(fs->list_dir(storage::Tier::kShared, 0, "output", parts).ok());
    std::map<std::string, int64_t> counts;
    for (const auto& name : parts) {
      Bytes data;
      EXPECT_TRUE(
          fs->read_file(storage::Tier::kShared, 0, "output/" + name, data).ok());
      ByteReader r(data);
      while (!r.exhausted()) {
        std::string k, v;
        if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
        counts[k] += std::strtoll(v.c_str(), nullptr, 10);
      }
    }
    return counts;
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
  std::map<std::string, int64_t> expected_words;
  std::map<std::string, int64_t> expected;
};

Status wc_driver(FtJob& job) {
  if (auto s = job.run_stage(apps::wordcount_stage(), false, nullptr); !s.ok()) {
    return s;
  }
  return job.write_output();
}

TEST(FaultyRecovery, TornCheckpointsPlusProcessKillStillExactOutput) {
  // The acceptance scenario: every checkpoint the victim rank writes is
  // torn (models crash-during-write), its drained shared copies inherit the
  // damage, and the rank is killed mid-map. Recovery must detect the
  // corruption via CRC, quarantine, degrade to reprocessing — and produce
  // byte-exact output without hanging or aborting.
  FaultyCluster cl;
  storage::FaultInjectorConfig fc;
  fc.seed = tests::test_seed(1234);
  fc.local.p_torn_write = 1.0;
  fc.path_filter = "ck/r2";  // only rank 2's checkpoint files
  cl.fs->set_fault_injector(fc);

  simmpi::JobOptions jo;
  jo.kills.push_back({2, 8e-3, -1});
  IntegrityStats total;
  std::mutex mu;
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run(wc_driver);
    if (c.global_rank() != 2) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
    const IntegrityStats st = job.ckpt().integrity();
    std::lock_guard<std::mutex> lock(mu);
    total.corrupt_frames += st.corrupt_frames;
    total.tier_fallbacks += st.tier_fallbacks;
    total.files_quarantined += st.files_quarantined;
    total.segments_reprocessed += st.segments_reprocessed;
  }, jo);
  cl.fs->clear_fault_injector();

  EXPECT_EQ(cl.read_output(), cl.expected);
  // The survivors must have *seen* the corruption, not sidestepped it...
  EXPECT_GE(total.corrupt_frames, 1);
  // ...and paid for it with fallbacks or reprocessed segments.
  EXPECT_GE(total.tier_fallbacks + total.segments_reprocessed, 1);
  EXPECT_GE(cl.fs->fault_stats().torn_writes, 1);
}

TEST(FaultyRecovery, ProbabilisticBitRotAndProcessKillStillExactOutput) {
  // Clean-probability variant of the acceptance scenario: torn writes and
  // corrupt-on-read at a few percent on *all* checkpoint traffic. Recovery
  // paths taken vary with the draw; the invariants may not.
  FaultyCluster cl;
  storage::FaultInjectorConfig fc;
  fc.seed = tests::test_seed(99);
  fc.local.p_torn_write = 0.05;
  fc.local.p_corrupt_read = 0.02;
  fc.shared.p_torn_write = 0.05;
  fc.shared.p_corrupt_read = 0.02;
  fc.path_filter = "ck/";  // all ranks' checkpoints, nothing else
  cl.fs->set_fault_injector(fc);

  simmpi::JobOptions jo;
  jo.kills.push_back({1, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run(wc_driver);
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  cl.fs->clear_fault_injector();
  EXPECT_EQ(cl.read_output(), cl.expected);
}

// Draw-order parity pin: on one worker thread with an op-indexed kill the
// fault injector's draws land in one fixed order, so the exact fault
// counts, the recovery they force and the file tiers' counters repeat run
// after run. Any change to the order or number of draws, or to the bytes
// and operations a write, copy, drain stamp or recovery read books, moves
// these numbers. The kill lands in the reduce phase, so the survivors read
// only the dead rank's partition snapshots and reduce deltas (the read
// plan), not its map deltas or its finished output.
TEST(DrawOrderParity, SeededWcKillPinsFaultsIntegrityAndTierStats) {
  FaultyCluster cl;
  storage::FaultInjectorConfig fc;
  fc.seed = 0x9a11a5ULL;  // fixed, not test_seed(): the counts are pinned
  for (storage::TierFaults* f : {&fc.local, &fc.shared}) {
    f->p_torn_write = 0.05;
    f->p_corrupt_read = 0.05;
    f->p_read_fail = 0.05;
  }
  fc.path_filter = "ck/";
  cl.fs->set_fault_injector(fc);

  simmpi::JobOptions jo;
  jo.worker_threads = 1;
  jo.kills.push_back({1, /*vtime=*/-1.0, /*after_ops=*/5});
  IntegrityStats total;
  int finished = 0;
  std::mutex mu;
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kDetectResumeWC;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    Status s = job.run(wc_driver);
    EXPECT_TRUE(s.ok()) << s.to_string();
    const IntegrityStats st = job.ckpt().integrity();
    std::lock_guard<std::mutex> lock(mu);
    finished++;
    total.corrupt_frames += st.corrupt_frames;
    total.io_retries += st.io_retries;
    total.tier_fallbacks += st.tier_fallbacks;
    total.files_quarantined += st.files_quarantined;
    total.segments_reprocessed += st.segments_reprocessed;
    total.ckpt_write_failures += st.ckpt_write_failures;
    total.drain_failures += st.drain_failures;
  }, jo);
  cl.fs->clear_fault_injector();
  EXPECT_EQ(finished, 3);  // rank 1 was killed
  EXPECT_EQ(cl.read_output(), cl.expected);

  const storage::FaultStats f = cl.fs->fault_stats();
  EXPECT_EQ(f.write_failures, 0);
  EXPECT_EQ(f.torn_writes, 13);
  EXPECT_EQ(f.read_failures, 8);
  EXPECT_EQ(f.corrupt_reads, 7);
  EXPECT_EQ(f.count_failures, 0);

  EXPECT_EQ(total.corrupt_frames, 7);
  EXPECT_EQ(total.io_retries, 6);
  EXPECT_EQ(total.tier_fallbacks, 2);
  EXPECT_EQ(total.files_quarantined, 0);
  EXPECT_EQ(total.segments_reprocessed, 0);
  EXPECT_EQ(total.ckpt_write_failures, 0);
  EXPECT_EQ(total.drain_failures, 2);

  const storage::TierStats lo = cl.fs->stats(storage::Tier::kLocal);
  EXPECT_EQ(lo.bytes_written, 135136u);
  EXPECT_EQ(lo.bytes_read, 135752u);
  EXPECT_EQ(lo.write_ops, 86);
  EXPECT_EQ(lo.read_ops, 88);
  const storage::TierStats sh = cl.fs->stats(storage::Tier::kShared);
  EXPECT_EQ(sh.bytes_written, 276269u);
  EXPECT_EQ(sh.bytes_read, 182832u);
  EXPECT_EQ(sh.write_ops, 190);
  EXPECT_EQ(sh.read_ops, 121);
}

// The same pin for a checkpoint/restart job: the first submission is
// killed mid-map and aborts, the resubmission primes itself from its own
// checkpoints through the restart read plan (every stage's outputs and the
// newest stage's partition snapshots before the resume-point allreduce, the
// map deltas after it) and finishes. Faults stay armed across both
// submissions, so the restart's reads draw too.
TEST(DrawOrderParity, SeededCrRestartPinsFaultsIntegrityAndTierStats) {
  FaultyCluster cl;
  storage::FaultInjectorConfig fc;
  fc.seed = 0x9a11a5ULL;  // fixed, not test_seed(): the counts are pinned
  for (storage::TierFaults* f : {&fc.local, &fc.shared}) {
    f->p_torn_write = 0.05;
    f->p_corrupt_read = 0.05;
    f->p_read_fail = 0.05;
  }
  fc.path_filter = "ck/";
  cl.fs->set_fault_injector(fc);

  const auto submit = [&](const simmpi::JobOptions& jo, IntegrityStats* total) {
    std::mutex mu;
    Runtime::run(4, [&](Comm& c) {
      FtJobOptions o;
      o.mode = FtMode::kCheckpointRestart;
      o.ppn = 2;
      o.ckpt.records_per_ckpt = 16;
      FtJob job(c, cl.fs.get(), o);
      Status s = job.run(wc_driver);
      if (total == nullptr) return;  // the killed submission aborts
      EXPECT_TRUE(s.ok()) << s.to_string();
      EXPECT_TRUE(job.resumed_from_checkpoint());
      const IntegrityStats st = job.ckpt().integrity();
      std::lock_guard<std::mutex> lock(mu);
      total->corrupt_frames += st.corrupt_frames;
      total->io_retries += st.io_retries;
      total->tier_fallbacks += st.tier_fallbacks;
      total->files_quarantined += st.files_quarantined;
      total->segments_reprocessed += st.segments_reprocessed;
      total->ckpt_write_failures += st.ckpt_write_failures;
      total->drain_failures += st.drain_failures;
    }, jo);
  };
  simmpi::JobOptions killed;
  killed.worker_threads = 1;
  killed.kills.push_back({1, /*vtime=*/-1.0, /*after_ops=*/5});
  submit(killed, nullptr);
  simmpi::JobOptions resubmitted;
  resubmitted.worker_threads = 1;
  IntegrityStats total;
  submit(resubmitted, &total);
  cl.fs->clear_fault_injector();
  EXPECT_EQ(cl.read_output(), cl.expected);

  const storage::FaultStats f = cl.fs->fault_stats();
  EXPECT_EQ(f.write_failures, 0);
  EXPECT_EQ(f.torn_writes, 11);
  EXPECT_EQ(f.read_failures, 10);
  EXPECT_EQ(f.corrupt_reads, 10);
  EXPECT_EQ(f.count_failures, 0);

  EXPECT_EQ(total.corrupt_frames, 13);
  EXPECT_EQ(total.io_retries, 11);
  EXPECT_EQ(total.tier_fallbacks, 0);
  EXPECT_EQ(total.files_quarantined, 2);
  EXPECT_EQ(total.segments_reprocessed, 0);
  EXPECT_EQ(total.ckpt_write_failures, 0);
  EXPECT_EQ(total.drain_failures, 4);

  const storage::TierStats lo = cl.fs->stats(storage::Tier::kLocal);
  EXPECT_EQ(lo.bytes_written, 199089u);
  EXPECT_EQ(lo.bytes_read, 335391u);
  EXPECT_EQ(lo.write_ops, 90);
  EXPECT_EQ(lo.read_ops, 135);
  const storage::TierStats sh = cl.fs->stats(storage::Tier::kShared);
  EXPECT_EQ(sh.bytes_written, 405883u);
  EXPECT_EQ(sh.bytes_read, 259025u);
  EXPECT_EQ(sh.write_ops, 195);
  EXPECT_EQ(sh.read_ops, 123);
}

TEST(FaultyRecovery, RestartFallsBackAcrossTiersForTornLocalFiles) {
  // Checkpoint/restart (Sec. 4.1): first submission killed mid-map, then
  // the job is resubmitted. Between submissions the node-local files of
  // rank 0 rot (torn). Restart reads local first and must transparently
  // serve those files from their drained shared copies.
  FaultyCluster cl;
  simmpi::JobOptions jo1;
  jo1.kills.push_back({0, 8e-3, -1});
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    (void)job.run(wc_driver);  // dies; checkpoints remain
  }, jo1);

  // Rot: tear every node-local checkpoint of rank 0 (the drained shared
  // copies are intact).
  {
    std::vector<std::string> names;
    ASSERT_TRUE(
        cl.fs->list_dir(storage::Tier::kLocal, 0, "ck/r0", names).ok());
    ASSERT_FALSE(names.empty());
    for (const auto& n : names) {
      Bytes data;
      ASSERT_TRUE(
          cl.fs->read_file(storage::Tier::kLocal, 0, "ck/r0/" + n, data).ok());
      ASSERT_TRUE(cl.fs->write_file(storage::Tier::kLocal, 0, "ck/r0/" + n,
                                    std::span(data).first(data.size() / 2))
                      .ok());
    }
  }

  int64_t fallbacks = 0, corrupt = 0;
  std::mutex mu;
  Runtime::run(4, [&](Comm& c) {
    FtJobOptions o;
    o.mode = FtMode::kCheckpointRestart;
    o.ppn = 2;
    o.ckpt.records_per_ckpt = 16;
    FtJob job(c, cl.fs.get(), o);
    ASSERT_TRUE(job.run(wc_driver).ok());
    std::lock_guard<std::mutex> lock(mu);
    fallbacks += job.ckpt().integrity().tier_fallbacks;
    corrupt += job.ckpt().integrity().corrupt_frames;
  });
  EXPECT_EQ(cl.read_output(), cl.expected);
  EXPECT_GE(corrupt, 1);
  EXPECT_GE(fallbacks, 1);
}

}  // namespace
}  // namespace ftmr::core
