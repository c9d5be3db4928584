// fiber_sched_test.cpp — the fiber scheduler's external contracts.
//
// Covers: the counted-op determinism contract at fiber scale (64/512/2048
// ranks, repeat runs, different worker-pool widths), explorer replay
// bit-stability at 2048 simulated ranks, the batched-mailbox delivery
// guarantees (no loss, no duplication, per-sender FIFO under many-to-one
// pressure), and fiber stack sizing (deep recursion fits the default
// stack; JobOptions::fiber_stack_bytes buys deeper).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/runtime.hpp"
#include "testing/explorer.hpp"

// Sanitizer builds pay 10-20x on the engine runs, so the scale-tier tests
// drop from 2048 to 256 simulated ranks there — same contracts, affordable
// wall clock. The full-scale numbers run in the default and clang CI legs.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FTMR_TEST_SANITIZED 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FTMR_TEST_SANITIZED 1
#endif

namespace {
#ifdef FTMR_TEST_SANITIZED
constexpr int kMaxRanks = 256;
#else
constexpr int kMaxRanks = 2048;
#endif
}  // namespace

namespace ftmr::simmpi {
namespace {

// Workload mixing point-to-point ops, probes and collectives, the same
// shape engine code has. Op totals must not depend on how fibers
// interleave.
void mixed_workload(Comm& c) {
  const int n = c.size();
  const int r = c.rank();
  Bytes buf;
  for (int iter = 0; iter < 3; ++iter) {
    const int dst = (r + 1) % n;
    const int src = (r + n - 1) % n;
    ASSERT_TRUE(
        c.send_string(dst, 7, std::to_string(iter * n + r)).ok());
    ASSERT_TRUE(c.recv(src, 7, buf).ok());
    EXPECT_EQ(to_string_copy(buf), std::to_string(iter * n + src));
    (void)c.iprobe(kAnySource, 99);
    int64_t sum = 0;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kSum, int64_t{1}, sum).ok());
    EXPECT_EQ(sum, n);
  }
  ASSERT_TRUE(c.barrier().ok());
}

std::vector<int64_t> run_ops(int nranks, int workers) {
  JobOptions o;
  o.worker_threads = workers;
  JobResult res = Runtime::run(nranks, mixed_workload, o);
  std::vector<int64_t> ops;
  ops.reserve(res.ranks.size());
  for (const RankResult& rr : res.ranks) {
    EXPECT_TRUE(rr.finished);
    ops.push_back(rr.ops);
  }
  return ops;
}

// The replay contract: identical per-rank op totals run-to-run AND across
// worker-pool widths, at every scale tier. This is what makes op-indexed
// fault schedules recorded on one box replay exactly on another.
TEST(SchedulerDeterminism, OpTotalsBitIdenticalAcrossRunsAndWorkers) {
  for (int nranks : {64, kMaxRanks / 4, kMaxRanks}) {
    SCOPED_TRACE("nranks=" + std::to_string(nranks));
    std::vector<int64_t> first = run_ops(nranks, /*workers=*/1);
    ASSERT_EQ(first.size(), static_cast<size_t>(nranks));
    EXPECT_EQ(first, run_ops(nranks, /*workers=*/1)) << "repeat run differs";
    EXPECT_EQ(first, run_ops(nranks, /*workers=*/3)) << "worker count leaks";
  }
}

// Many-to-one pressure on the batched inbox: every sender's stream arrives
// complete, exactly once, in sender order. 64 senders x 128 messages means
// thousands of messages get staged while rank 0 is parked, so batches are
// actually exercised (one wakeup delivers many messages).
TEST(BatchedMailbox, ManyToOneLosesNothingKeepsSenderOrder) {
  const int kSenders = 64;
  const int kMsgs = 128;
  JobResult res = Runtime::run(kSenders + 1, [&](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> next(kSenders + 1, 0);
      Bytes buf;
      MessageInfo info;
      for (int i = 0; i < kSenders * kMsgs; ++i) {
        ASSERT_TRUE(c.recv(kAnySource, 5, buf, &info).ok());
        ASSERT_GE(info.source, 1);
        ASSERT_LE(info.source, kSenders);
        const int seq = std::stoi(to_string_copy(buf));
        ASSERT_EQ(seq, next[info.source])
            << "sender " << info.source << " stream reordered or dropped";
        next[info.source]++;
      }
      // Every stream complete, and nothing left over (no duplication).
      for (int s = 1; s <= kSenders; ++s) EXPECT_EQ(next[s], kMsgs);
      EXPECT_FALSE(c.iprobe(kAnySource, 5)) << "duplicate delivery";
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        ASSERT_TRUE(c.send_string(0, 5, std::to_string(i)).ok());
      }
    }
  });
  EXPECT_EQ(res.finished_count(), kSenders + 1);
}

// Deep recursion with a real frame per level. noinline + the volatile
// write keep the compiler from flattening it; the post-call add keeps it
// from becoming a tail call.
__attribute__((noinline)) int64_t burn_stack(int depth) {
  volatile char frame[192];
  frame[0] = 1;
  if (depth <= 0) return frame[0];
  return burn_stack(depth - 1) + frame[0];  // returns depth + 1
}

// ~1500 frames x ~250 B fits comfortably in the 1 MiB default (2 MiB under
// ASan, whose redzones fatten every frame). The guard page below the stack
// turns a miscalculation here into a clean SIGSEGV, not silent corruption.
TEST(FiberStacks, DeepRecursionFitsDefaultStack) {
  JobResult res = Runtime::run(4, [](Comm& c) {
    EXPECT_GT(burn_stack(1500), 0);
    ASSERT_TRUE(c.barrier().ok());
  });
  EXPECT_EQ(res.finished_count(), 4);
}

// JobOptions::fiber_stack_bytes is the escape hatch for genuinely deep
// user code: 16 MiB holds ~12000 frames that would blow the default.
TEST(FiberStacks, CustomStackSizeEnablesDeeperRecursion) {
  JobOptions o;
  o.fiber_stack_bytes = 16u << 20;
  JobResult res = Runtime::run(
      2,
      [](Comm& c) {
        EXPECT_GT(burn_stack(12000), 0);
        ASSERT_TRUE(c.barrier().ok());
      },
      o);
  EXPECT_EQ(res.finished_count(), 2);
}

}  // namespace
}  // namespace ftmr::simmpi

namespace ftmr::testing {
namespace {

// Explorer replay at fiber scale: a fault-schedule artifact recorded
// against a 2048-rank job must parse back and re-run to the identical
// outcome. Workload kept small per rank so the engine run stays in test
// budget; the point is the rank count, not the data volume. (The engine's
// v-semantics alltoall is inherently O(p^2) in blob headers, so each run
// at 2048 ranks costs tens of seconds — three runs total here.)
ExplorerOptions big_opts() {
  ExplorerOptions o;
  o.mode = "wc";
  o.workload.nranks = kMaxRanks;
  o.workload.ppn = 32;
  o.workload.chunks = 64;
  o.workload.lines_per_chunk = 2;
  o.workload.words_per_line = 4;
  o.workload.vocabulary = 40;
  o.workload.records_per_ckpt = 64;
  return o;
}

TEST(FiberScaleReplay, ArtifactAtFullScaleReplaysExactly) {
  Explorer a(big_opts());
  ASSERT_TRUE(a.harvest().ok());
  ASSERT_EQ(a.golden_ops().size(), static_cast<size_t>(kMaxRanks));

  // Kill a mid-pack rank mid-run, round-trip the artifact, replay it.
  const int victim = kMaxRanks / 2 + 3;
  FaultSchedule sched;
  sched.label = "fiber-scale-kill";
  sched.mode = "wc";
  sched.kills.push_back(
      {/*rank=*/victim, /*after_ops=*/a.golden_ops()[victim] / 2,
       /*vtime=*/-1.0, /*submission=*/0});
  RunReport first = a.run_schedule(sched);
  EXPECT_TRUE(first.completed);
  EXPECT_TRUE(first.violations.empty());

  const std::string artifact = Explorer::artifact_json(
      sched, big_opts().workload, /*break_recovery=*/false,
      /*break_iteration_reuse=*/false, first.violations);
  FaultSchedule parsed;
  ExplorerWorkload workload;
  ASSERT_TRUE(Explorer::artifact_parse(artifact, parsed, workload, nullptr).ok());
  EXPECT_EQ(parsed.kills, sched.kills);

  ExplorerOptions replay_opts = big_opts();
  replay_opts.workload = workload;
  Explorer replayer(replay_opts);
  RunReport replay = replayer.run_schedule(parsed);
  EXPECT_EQ(replay.completed, first.completed);
  EXPECT_EQ(replay.submissions, first.submissions);
  EXPECT_EQ(replay.violations.size(), first.violations.size());
}

}  // namespace
}  // namespace ftmr::testing
