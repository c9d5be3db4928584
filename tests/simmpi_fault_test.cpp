// Failure semantics of the simulated MPI runtime: kill injection, error
// classes, abort (checkpoint/restart teardown), and the ULFM extensions
// (revoke/shrink/agree/ack) that the detect/resume model builds on.
#include <gtest/gtest.h>

#include <atomic>

#include "simmpi/runtime.hpp"

namespace ftmr::simmpi {
namespace {

JobOptions kill_rank(int rank, double vtime = 0.0) {
  JobOptions o;
  o.kills.push_back({rank, vtime, -1});
  return o;
}

TEST(Kill, RankDiesAtItsNextCall) {
  JobResult r = Runtime::run(4, [](Comm& c) {
    c.compute(1.0);  // rank 1 dies here (kill_vtime 0 <= 1.0)
    // Survivors' barrier observes the failure (PROC_FAILED), it must not
    // succeed silently nor hang.
    Status s = c.barrier();
    EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
  }, kill_rank(1));
  EXPECT_EQ(r.killed_count(), 1);
  EXPECT_TRUE(r.ranks[1].killed);
  EXPECT_FALSE(r.ranks[1].finished);
  EXPECT_EQ(r.finished_count(), 3);
}

TEST(Kill, AfterOpsTriggerIsHonored) {
  JobOptions o;
  o.kills.push_back({2, -1.0, 3});
  JobResult r = Runtime::run(4, [](Comm& c) {
    // Each compute() counts via vtime-kill only; ops are counted at MPI
    // entries. Ranks do several sends to self to accumulate op count.
    // Self-sends never involve a dead peer, so survivors must succeed on
    // every iteration; a silent early-return here would still count as
    // "finished" and mask a runtime bug. (The killed rank exits via
    // KilledError, not an error status.)
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(c.send_string(c.rank(), 0, "x").ok());
      Bytes out;
      ASSERT_TRUE(c.recv(c.rank(), 0, out).ok());
    }
  }, o);
  EXPECT_TRUE(r.ranks[2].killed);
  EXPECT_EQ(r.finished_count(), 3);
}

TEST(Kill, SendToDeadPeerReturnsProcFailed) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      // Wait until rank 1 is certainly dead (it dies at its first call).
      while (c.failed_ranks().empty()) {
      }
      Status s = c.send_string(1, 0, "hello?");
      EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
    } else {
      c.compute(0.1);  // dies (kill at vtime 0)
      FAIL() << "dead rank kept running";
    }
  }, kill_rank(1));
}

TEST(Kill, RecvFromDeadPeerReturnsProcFailed) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      Bytes out;
      Status s = c.recv(1, 0, out);
      EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
    } else {
      c.compute(0.1);
    }
  }, kill_rank(1));
}

TEST(Kill, BufferedMessageFromDeadSenderIsStillDelivered) {
  JobOptions o = kill_rank(1, /*vtime=*/0.5);
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 1) {
      ASSERT_TRUE(c.send_string(0, 0, "legacy").ok());
      c.compute(1.0);  // now dies
    } else {
      Bytes out;
      // Eager buffering: the message sent before death must be received.
      ASSERT_TRUE(c.recv(1, 0, out).ok());
      EXPECT_EQ(to_string_copy(out), "legacy");
      // A second recv must now fail.
      Status s = c.recv(1, 0, out);
      EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
    }
  }, o);
}

TEST(Kill, CollectiveWithDeadMemberFailsForSurvivors) {
  std::atomic<int> failures{0};
  Runtime::run(4, [&](Comm& c) {
    if (c.rank() == 1) {
      c.compute(0.1);  // dies before the barrier
      return;
    }
    Status s = c.barrier();
    if (s.code() == ErrorCode::kProcFailed) failures++;
  }, kill_rank(1));
  EXPECT_EQ(failures.load(), 3);
}

TEST(Kill, MemberDyingAfterArrivalFailsAndFreesTheSlot) {
  // Rank 1 arrives at the barrier and parks; then a call made on its
  // behalf elsewhere (as a master or copier thread of that process would)
  // trips its kill. The survivors' barrier fails, and the failed slot
  // leaves the registry like a computed one.
  std::atomic<int> failures{0};
  JobResult r = Runtime::run(4, [&](Comm& c) {
    Job& job = *c.job();
    if (c.rank() == 1) {
      (void)c.barrier();  // killed while parked here
      ADD_FAILURE() << "rank 1 outlived its kill";
      return;
    }
    if (c.rank() == 0) {
      auto rank1_arrived = [&job] {
        MutexLock lock(job.mu);
        for (const auto& entry : job.slots) {
          if (entry.second->members[1].arrived) return true;
        }
        return false;
      };
      while (!rank1_arrived()) (void)c.failed_ranks();  // yields
      std::shared_ptr<CommState> world;
      {
        MutexLock lock(job.mu);
        world = job.comms.at(0);
      }
      Comm as_rank1(&job, world, 1);
      EXPECT_THROW(as_rank1.compute(2.0), KilledError);
    }
    if (c.barrier().code() == ErrorCode::kProcFailed) failures++;
    MutexLock lock(job.mu);
    EXPECT_TRUE(job.slots.empty()) << job.slots.size() << " slots left";
  }, kill_rank(1, 1.0));
  EXPECT_EQ(r.killed_count(), 1);
  EXPECT_EQ(failures.load(), 3);
}

TEST(Kill, AnySourceRecvReportsPendingFailure) {
  Runtime::run(3, [](Comm& c) {
    if (c.rank() == 2) {
      c.compute(0.1);
      return;
    }
    if (c.rank() == 0) {
      while (c.failed_ranks().empty()) {
      }
      // No message can be buffered yet (rank 1 waits for the go-signal), so
      // the wildcard receive must report the un-acked failure.
      Bytes out;
      Status s = c.recv(kAnySource, 0, out);
      EXPECT_EQ(s.code(), ErrorCode::kProcFailedPending);
      // After acking, the wildcard recv can match live senders again.
      c.ack_failures();
      ASSERT_TRUE(c.send_string(1, 9, "go").ok());
      ASSERT_TRUE(c.recv(kAnySource, 0, out).ok());
      EXPECT_EQ(to_string_copy(out), "from1");
    } else {
      Bytes go;
      ASSERT_TRUE(c.recv(0, 9, go).ok());
      ASSERT_TRUE(c.send_string(0, 0, "from1").ok());
    }
  }, kill_rank(2));
}

TEST(ErrorHandler, InvokedOnProcFailure) {
  std::atomic<int> handled{0};
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      c.set_error_handler([&](Comm&, const Status& s) {
        EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
        handled++;
      });
      Bytes out;
      (void)c.recv(1, 0, out);
    } else {
      c.compute(0.1);
    }
  }, kill_rank(1));
  EXPECT_EQ(handled.load(), 1);
}

TEST(ErrorHandler, MayThrowToUnwindIntoRecovery) {
  struct Recover {};
  std::atomic<bool> recovered{false};
  Runtime::run(2, [&](Comm& c) {
    if (c.rank() == 0) {
      c.set_error_handler([](Comm&, const Status&) { throw Recover{}; });
      try {
        Bytes out;
        (void)c.recv(1, 0, out);
        FAIL() << "handler should have thrown";
      } catch (const Recover&) {
        recovered = true;
      }
    } else {
      c.compute(0.1);
    }
  }, kill_rank(1));
  EXPECT_TRUE(recovered.load());
}

TEST(Abort, TearsDownAllRanks) {
  // Rank 0 aborts; ranks blocked in a barrier must be released and the job
  // must be flagged aborted — this is the checkpoint/restart notification
  // path (error handler + MPI_Abort + process-manager broadcast).
  JobResult r = Runtime::run(4, [](Comm& c) {
    if (c.rank() == 0) {
      c.abort(42);
    }
    (void)c.barrier();  // others block here until the abort wakes them
    FAIL() << "execution continued past abort";
  });
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(r.abort_code, 42);
  EXPECT_EQ(r.finished_count(), 0);
}

TEST(Abort, RestartLoopModelsResubmission) {
  // The user resubmits until the job finishes — the paper's restart model.
  int submissions = 0;
  for (;;) {
    submissions++;
    JobResult r = Runtime::run(2, [&](Comm& c) {
      if (submissions < 3 && c.rank() == 1) c.abort(1);
      (void)c.barrier();
    });
    if (!r.aborted) break;
  }
  EXPECT_EQ(submissions, 3);
}

TEST(Ulfm, RevokeWakesBlockedReceivers) {
  Runtime::run(3, [](Comm& c) {
    if (c.rank() == 0) {
      Bytes out;
      Status s = c.recv(1, 0, out);  // nobody will send: freed by revoke
      EXPECT_EQ(s.code(), ErrorCode::kRevoked);
    } else if (c.rank() == 2) {
      ASSERT_TRUE(c.revoke().ok());
    }
    // rank 1 just exits
  });
}

TEST(Ulfm, RevokeFailsSubsequentOps) {
  Runtime::run(2, [](Comm& c) {
    ASSERT_TRUE(c.barrier().ok());
    if (c.rank() == 0) { ASSERT_TRUE(c.revoke().ok()); }
    while (!c.is_revoked()) {
    }
    Status s = c.send_string((c.rank() + 1) % 2, 0, "x");
    EXPECT_EQ(s.code(), ErrorCode::kRevoked);
    Status b = c.barrier();
    EXPECT_EQ(b.code(), ErrorCode::kRevoked);
  });
}

TEST(Ulfm, ShrinkExcludesDeadRanksAndDensifies) {
  Runtime::run(5, [](Comm& c) {
    if (c.rank() == 2) {
      c.compute(0.1);  // dies
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    Comm nc;
    ASSERT_TRUE(c.shrink(nc).ok());
    ASSERT_TRUE(nc.valid());
    EXPECT_EQ(nc.size(), 4);
    // Old ranks 0,1,3,4 -> new ranks 0,1,2,3 (order preserved).
    const int expect_new = c.rank() < 2 ? c.rank() : c.rank() - 1;
    EXPECT_EQ(nc.rank(), expect_new);
    // The shrunken comm is fully operational.
    int64_t sum = 0;
    ASSERT_TRUE(nc.allreduce_one(ReduceOp::kSum, int64_t{1}, sum).ok());
    EXPECT_EQ(sum, 4);
  }, kill_rank(2));
}

TEST(Ulfm, ShrinkWorksOnRevokedComm) {
  Runtime::run(4, [](Comm& c) {
    if (c.rank() == 3) {
      c.compute(0.1);
      return;
    }
    if (c.rank() == 0) {
      while (c.failed_ranks().empty()) {
      }
      ASSERT_TRUE(c.revoke().ok());
    }
    while (!c.is_revoked()) {
    }
    Comm nc;
    ASSERT_TRUE(c.shrink(nc).ok());
    EXPECT_EQ(nc.size(), 3);
    EXPECT_FALSE(nc.is_revoked());  // new comm starts clean
    ASSERT_TRUE(nc.barrier().ok());
  }, kill_rank(3));
}

TEST(Ulfm, ConsecutiveShrinksHandleContinuousFailures) {
  JobOptions o;
  o.kills.push_back({1, 0.0, -1});
  o.kills.push_back({3, 5.0, -1});
  Runtime::run(6, [](Comm& c) {
    if (c.rank() == 1) {
      c.compute(0.1);
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    Comm nc1;
    ASSERT_TRUE(c.shrink(nc1).ok());
    EXPECT_EQ(nc1.size(), 5);
    if (c.rank() == 3) {
      c.compute(10.0);  // crosses vtime 5 -> dies
      return;
    }
    // Survivors wait for the second failure, then shrink again.
    while (nc1.failed_ranks().empty()) {
    }
    Comm nc2;
    ASSERT_TRUE(nc1.shrink(nc2).ok());
    EXPECT_EQ(nc2.size(), 4);
    int64_t sum = 0;
    ASSERT_TRUE(nc2.allreduce_one(ReduceOp::kSum, int64_t{1}, sum).ok());
    EXPECT_EQ(sum, 4);
  }, o);
}

TEST(Ulfm, AgreeComputesAndOverSurvivors) {
  Runtime::run(4, [](Comm& c) {
    if (c.rank() == 3) {
      c.compute(0.1);
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    int flag = (c.rank() == 1) ? 0 : 1;
    Status s = c.agree(flag);
    // Un-acked failure: PROC_FAILED is reported, flag still meaningful.
    EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
    EXPECT_EQ(flag, 0);
    c.ack_failures();
    int flag2 = 1;
    EXPECT_TRUE(c.agree(flag2).ok());
    EXPECT_EQ(flag2, 1);
  }, kill_rank(3));
}

TEST(Ulfm, FailedRanksReportsDeadMembers) {
  Runtime::run(4, [](Comm& c) {
    if (c.rank() == 2) {
      c.compute(0.1);
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    auto dead = c.failed_ranks();
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0], 2);
  }, kill_rank(2));
}

TEST(Ulfm, RevokeDoesNotLeakIntoDuppedComm) {
  Runtime::run(2, [](Comm& c) {
    Comm d;
    ASSERT_TRUE(c.dup(d).ok());
    if (c.rank() == 0) { ASSERT_TRUE(c.revoke().ok()); }
    while (!c.is_revoked()) {
    }
    EXPECT_FALSE(d.is_revoked());
    ASSERT_TRUE(d.barrier().ok());
  });
}

// ---------------------------------------------------------------------------
// Degenerate recovery shapes: the edges of the ULFM state space where a
// production failure schedule would normally never linger — a lone survivor,
// agreement on a comm everyone has revoked, and collectives on a
// shrunk-to-one communicator. These are exactly the states a fault-schedule
// sweep drives into, so they must be well-defined, not "unreachable".
// ---------------------------------------------------------------------------

TEST(UlfmDegenerate, AllButOneDeadThenAgreeAndShrink) {
  JobOptions o;
  o.kills.push_back({1, 0.0, -1});
  o.kills.push_back({2, 0.0, -1});
  o.kills.push_back({3, 0.0, -1});
  Runtime::run(4, [](Comm& c) {
    if (c.rank() != 0) {
      c.compute(0.1);  // dies
      return;
    }
    while (c.failed_ranks().size() < 3u) {
    }
    // Agreement with three un-acked failures: the AND is over the lone
    // survivor's contribution, and PROC_FAILED reports the un-acked dead.
    int flag = 1;
    Status s = c.agree(flag);
    EXPECT_EQ(s.code(), ErrorCode::kProcFailed);
    EXPECT_EQ(flag, 1);
    c.ack_failures();
    int flag2 = 0;
    EXPECT_TRUE(c.agree(flag2).ok());
    EXPECT_EQ(flag2, 0);
    // Shrink with one alive member yields a working singleton comm.
    Comm nc;
    ASSERT_TRUE(c.shrink(nc).ok());
    ASSERT_TRUE(nc.valid());
    EXPECT_EQ(nc.size(), 1);
    EXPECT_EQ(nc.rank(), 0);
  }, o);
}

TEST(UlfmDegenerate, AgreeOnFullyRevokedComm) {
  // ULFM guarantees agree (like shrink) still completes after a revoke —
  // it is itself a recovery primitive. Every rank revokes, so the comm is
  // revoked no matter whose revoke lands first.
  Runtime::run(3, [](Comm& c) {
    ASSERT_TRUE(c.revoke().ok());
    while (!c.is_revoked()) {
    }
    int flag = c.rank() == 1 ? 0 : 1;
    ASSERT_TRUE(c.agree(flag).ok());  // no failures, so no PROC_FAILED
    EXPECT_EQ(flag, 0);
    // Ordinary collectives on the revoked comm still fail.
    EXPECT_EQ(c.barrier().code(), ErrorCode::kRevoked);
  });
}

TEST(UlfmDegenerate, ShrinkToOneThenCollectivesStillWork) {
  JobOptions o;
  o.kills.push_back({0, 0.0, -1});
  o.kills.push_back({2, 0.0, -1});
  Runtime::run(3, [](Comm& c) {
    if (c.rank() != 1) {
      c.compute(0.1);  // dies
      return;
    }
    while (c.failed_ranks().size() < 2u) {
    }
    Comm nc;
    ASSERT_TRUE(c.shrink(nc).ok());
    ASSERT_EQ(nc.size(), 1);
    EXPECT_EQ(nc.rank(), 0);
    EXPECT_EQ(nc.global_of_rel(0), 1);
    // A singleton communicator is still a communicator: collectives are
    // self-agreement and must succeed, not hang or fail.
    ASSERT_TRUE(nc.barrier().ok());
    int64_t sum = 0;
    ASSERT_TRUE(nc.allreduce_one(ReduceOp::kSum, int64_t{7}, sum).ok());
    EXPECT_EQ(sum, 7);
    int flag = 1;
    ASSERT_TRUE(nc.agree(flag).ok());
    EXPECT_EQ(flag, 1);
    // And a second shrink of an already-minimal comm is the identity shape.
    Comm nc2;
    ASSERT_TRUE(nc.shrink(nc2).ok());
    EXPECT_EQ(nc2.size(), 1);
  }, o);
}

// Parameterized: a failure at each rank of an 8-rank job; survivors always
// shrink to 7 and remain operational. Property: recovery works regardless
// of *which* rank dies.
class KillAnyRank : public ::testing::TestWithParam<int> {};

TEST_P(KillAnyRank, ShrinkAlwaysRecovers) {
  const int victim = GetParam();
  Runtime::run(8, [victim](Comm& c) {
    if (c.rank() == victim) {
      c.compute(0.1);
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    Comm nc;
    ASSERT_TRUE(c.shrink(nc).ok());
    EXPECT_EQ(nc.size(), 7);
    int64_t sum = 0;
    ASSERT_TRUE(nc.allreduce_one(ReduceOp::kSum, int64_t{1}, sum).ok());
    EXPECT_EQ(sum, 7);
  }, kill_rank(victim));
}

INSTANTIATE_TEST_SUITE_P(Victims, KillAnyRank, ::testing::Range(0, 8));

}  // namespace
}  // namespace ftmr::simmpi
