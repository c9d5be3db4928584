// explorer_test.cpp — the fault-schedule exploration engine.
//
// Covers: candidate harvesting and op-axis determinism, full single-kill
// sweeps with zero violations in all three fault-tolerance modes (WC, NWC,
// CR), multi-kill schedules, artifact JSON round-tripping, greedy schedule
// minimization, and the mutation sanity check (a deliberately broken
// recovery build MUST produce violations — a fault harness that cannot
// fail proves nothing).
#include <gtest/gtest.h>

#include <set>

#include "testing/explorer.hpp"
#include "tests/test_seed.hpp"

// Sanitizer builds pay 10-20x per explored run; the graph-app sweeps cap
// their run counts there (same contracts, affordable wall clock). The full
// sweeps run in the default and clang CI legs.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FTMR_TEST_SANITIZED 1
#endif
#elif defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FTMR_TEST_SANITIZED 1
#endif

namespace ftmr::testing {
namespace {

ExplorerOptions small_opts(const std::string& mode) {
  ExplorerOptions o;
  o.mode = mode;
  o.seed = tests::test_seed(/*salt=*/0xe7);
  return o;
}

TEST(Harvest, GoldenRunIsCleanAndDeterministic) {
  Explorer a(small_opts("wc"));
  ASSERT_TRUE(a.harvest().ok());
  ASSERT_FALSE(a.candidates().empty());
  ASSERT_EQ(a.golden_ops().size(), 4u);
  for (int64_t ops : a.golden_ops()) EXPECT_GE(ops, 1);

  // The op axis is the replay contract: a second harvest in a fresh
  // explorer must see identical per-rank op totals and candidates.
  Explorer b(small_opts("wc"));
  ASSERT_TRUE(b.harvest().ok());
  EXPECT_EQ(a.golden_ops(), b.golden_ops());
  ASSERT_EQ(a.candidates().size(), b.candidates().size());
  for (size_t i = 0; i < a.candidates().size(); ++i) {
    EXPECT_EQ(a.candidates()[i].op, b.candidates()[i].op) << "candidate " << i;
  }
}

TEST(Harvest, CandidatesCoverPhasesAndBoundaries) {
  Explorer e(small_opts("wc"));
  ASSERT_TRUE(e.harvest().ok());
  std::set<std::string> prefixes;
  for (const Candidate& c : e.candidates()) {
    prefixes.insert(c.source.substr(0, c.source.find(':')));
  }
  // Phase spans and the first/last-op boundaries must always be present;
  // ckpt/shuffle events ride along when their op index is distinct.
  EXPECT_TRUE(prefixes.count("phase")) << "no phase-boundary candidates";
  EXPECT_TRUE(prefixes.count("boundary")) << "no boundary candidates";
}

// The acceptance bar: a full single-kill sweep — every candidate op x every
// rank — completes with zero invariant violations in each mode.
class SingleKillSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SingleKillSweep, FullSweepZeroViolations) {
  Explorer e(small_opts(GetParam()));
  ExploreReport rep = e.explore();
  EXPECT_GT(rep.schedules, 0);
  EXPECT_EQ(rep.runs, rep.schedules + 1);  // + the golden run
  for (const RunReport& f : rep.failing) {
    for (const Violation& v : f.violations) {
      ADD_FAILURE() << f.schedule.label << ": [" << v.invariant << "] "
                    << v.detail;
    }
  }
  EXPECT_TRUE(rep.failing.empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, SingleKillSweep,
                         ::testing::Values("wc", "nwc", "cr"));

TEST(MultiKill, ContinuousFailuresSurviveWC) {
  ExplorerOptions o = small_opts("wc");
  o.max_single_kill_runs = 1;  // focus this test on the multi-kill runs
  o.multi_kill_schedules = 6;
  o.max_kills_per_schedule = 2;
  Explorer e(o);
  ASSERT_TRUE(e.harvest().ok());
  const auto schedules = e.multi_kill_schedules();
  ASSERT_EQ(schedules.size(), 6u);
  for (const FaultSchedule& s : schedules) {
    ASSERT_GE(s.kills.size(), 2u);
    std::set<int> victims;
    for (const KillSpec& k : s.kills) {
      victims.insert(k.rank);
      EXPECT_EQ(k.submission, 0) << "detect/resume kills are all submission 0";
    }
    EXPECT_EQ(victims.size(), s.kills.size()) << "victims must be distinct";
    EXPECT_LT(static_cast<int>(victims.size()), e.options().workload.nranks)
        << "at least one survivor required";
    RunReport rep = e.run_schedule(s);
    for (const Violation& v : rep.violations) {
      ADD_FAILURE() << s.label << ": [" << v.invariant << "] " << v.detail;
    }
  }
}

TEST(MultiKill, RepeatedRestartsSurviveCR) {
  ExplorerOptions o = small_opts("cr");
  o.multi_kill_schedules = 4;
  Explorer e(o);
  ASSERT_TRUE(e.harvest().ok());
  bool spread = false;
  for (const FaultSchedule& s : e.multi_kill_schedules()) {
    for (const KillSpec& k : s.kills) spread = spread || k.submission > 0;
    RunReport rep = e.run_schedule(s);
    for (const Violation& v : rep.violations) {
      ADD_FAILURE() << s.label << ": [" << v.invariant << "] " << v.detail;
    }
  }
  EXPECT_TRUE(spread) << "CR multi-kill schedules must span resubmissions";
}

TEST(Artifact, JsonRoundTrip) {
  FaultSchedule s;
  s.label = "multi/3/r1@op7/r2@op9#s1";
  s.mode = "cr";
  s.seed = 0xabcdef;
  s.kills = {{1, 7, -1.0, 0}, {2, 9, -1.0, 1}};
  ExplorerWorkload w;
  w.nranks = 6;
  w.records_per_ckpt = 3;
  w.deadlock_timeout_s = 12.5;
  w.app = "sssp";
  w.graph_nodes = 33;
  w.graph_max_weight = 5;
  w.iterations = 4;
  w.sssp_source = 2;
  const std::vector<Violation> viol = {
      {"output-exactness", "key 'x\"y' count 1 != expected 2"}};
  const std::string json = Explorer::artifact_json(s, w, true, true, viol);

  FaultSchedule s2;
  ExplorerWorkload w2;
  bool broken = false;
  bool reuse_broken = false;
  ASSERT_TRUE(Explorer::artifact_parse(json, s2, w2, &broken, &reuse_broken).ok())
      << json;
  EXPECT_EQ(s2.label, s.label);
  EXPECT_EQ(s2.mode, s.mode);
  EXPECT_EQ(s2.seed, s.seed);
  EXPECT_EQ(s2.kills, s.kills);
  EXPECT_EQ(w2.nranks, w.nranks);
  EXPECT_EQ(w2.records_per_ckpt, w.records_per_ckpt);
  EXPECT_DOUBLE_EQ(w2.deadlock_timeout_s, w.deadlock_timeout_s);
  EXPECT_EQ(w2.app, w.app);
  EXPECT_EQ(w2.graph_nodes, w.graph_nodes);
  EXPECT_EQ(w2.graph_max_weight, w.graph_max_weight);
  EXPECT_EQ(w2.iterations, w.iterations);
  EXPECT_EQ(w2.sssp_source, w.sssp_source);
  EXPECT_TRUE(broken);
  EXPECT_TRUE(reuse_broken);
}

TEST(Artifact, RejectsMalformedInput) {
  FaultSchedule s;
  ExplorerWorkload w;
  EXPECT_FALSE(Explorer::artifact_parse("", s, w, nullptr).ok());
  EXPECT_FALSE(Explorer::artifact_parse("{", s, w, nullptr).ok());
  EXPECT_FALSE(Explorer::artifact_parse("[]", s, w, nullptr).ok());
  EXPECT_FALSE(Explorer::artifact_parse("{\"version\": 2}", s, w, nullptr).ok());
  // Kill rank out of range for the declared workload.
  EXPECT_FALSE(Explorer::artifact_parse(
                   R"({"version":1,"mode":"wc","workload":{"nranks":4},)"
                   R"("kills":[{"rank":9,"after_ops":3}]})",
                   s, w, nullptr)
                   .ok());
  EXPECT_FALSE(Explorer::artifact_parse(
                   R"({"version":1,"mode":"bogus"})", s, w, nullptr)
                   .ok());
  EXPECT_FALSE(Explorer::artifact_parse(
                   R"({"version":1,"mode":"wc","workload":{"app":"bogus"}})",
                   s, w, nullptr)
                   .ok());
}

// Mutation sanity: with testing_break_recovery planted, the sweep MUST
// report violations, every violating schedule must replay to the same
// verdict from its serialized artifact, and minimization must reduce it to
// a single kill.
TEST(Mutation, BrokenRecoveryIsDetectedMinimizedAndReplayable) {
  ExplorerOptions o = small_opts("wc");
  o.break_recovery = true;
  Explorer e(o);
  ExploreReport rep = e.explore();
  ASSERT_FALSE(rep.failing.empty())
      << "planted recovery bug produced zero violations — the explorer "
         "cannot detect real bugs";

  const RunReport& f = rep.failing.front();
  ASSERT_EQ(f.schedule.kills.size(), 1u) << "minimized schedule has one kill";
  bool lost = false;
  for (const Violation& v : f.violations) {
    lost = lost || v.invariant == "output-exactness";
  }
  EXPECT_TRUE(lost) << "planted bug drops records; expected output-exactness";

  // Round-trip the artifact and replay it in a *fresh* explorer.
  const std::string json = Explorer::artifact_json(
      f.schedule, e.options().workload, /*break_recovery=*/true,
      /*break_iteration_reuse=*/false, f.violations);
  FaultSchedule replay_sched;
  ExplorerWorkload replay_w;
  bool replay_broken = false;
  ASSERT_TRUE(
      Explorer::artifact_parse(json, replay_sched, replay_w, &replay_broken)
          .ok());
  ASSERT_TRUE(replay_broken);
  ExplorerOptions ro;
  ro.mode = replay_sched.mode;
  ro.workload = replay_w;
  ro.break_recovery = replay_broken;
  Explorer replayer(ro);
  RunReport replayed = replayer.run_schedule(replay_sched);
  EXPECT_FALSE(replayed.violations.empty())
      << "artifact " << f.schedule.label << " did not reproduce on replay";
}

// ---------------------------------------------------------------------------
// Iterative graph apps on the cross-iteration-reuse engine. Every graph-app
// run in modes wc/cr additionally arms the no-completed-iteration-
// reexecution invariant (see check_iteration_reuse), so a clean sweep here
// is the acceptance bar for cross-iteration checkpoint reuse under faults.
// ---------------------------------------------------------------------------

ExplorerOptions graph_opts(const std::string& app, const std::string& mode) {
  ExplorerOptions o;
  o.mode = mode;
  o.seed = tests::test_seed(/*salt=*/0x17e6);
  o.workload.app = app;
  o.workload.graph_nodes = 18;
  o.workload.iterations = 3;  // 3+-iteration runs per the acceptance bar
  return o;
}

TEST(IterGraph, HarvestCoversIterationBoundaries) {
  Explorer e(graph_opts("sssp", "wc"));
  ASSERT_TRUE(e.harvest().ok());
  bool round_boundary = false;
  for (const Candidate& c : e.candidates()) {
    round_boundary = round_boundary || c.source.compare(0, 5, "iter:") == 0;
  }
  EXPECT_TRUE(round_boundary)
      << "harvest found no iteration-boundary kill candidates";
}

// Acceptance bar: single-kill sweep over a 3-iteration SSSP run, zero
// violations with the reuse invariant armed. WC exercises the in-job
// (trace) half of the invariant, CR the cross-submission (round log) half.
class SsspSingleKillSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(SsspSingleKillSweep, ZeroViolationsWithReuseInvariantArmed) {
  ExplorerOptions o = graph_opts("sssp", GetParam());
#ifdef FTMR_TEST_SANITIZED
  o.max_single_kill_runs = 24;
#endif
  Explorer e(o);
  ExploreReport rep = e.explore();
  EXPECT_GT(rep.schedules, 0);
  for (const RunReport& f : rep.failing) {
    for (const Violation& v : f.violations) {
      ADD_FAILURE() << f.schedule.label << ": [" << v.invariant << "] "
                    << v.detail;
    }
  }
  EXPECT_TRUE(rep.failing.empty());
}

INSTANTIATE_TEST_SUITE_P(Modes, SsspSingleKillSweep,
                         ::testing::Values("wc", "cr"));

// Bounded-random multi-kill CR sweep over connected components: repeated
// restarts, kills spread across resubmissions, reuse invariant checking
// that rounds completed in earlier submissions are never re-executed.
TEST(IterGraph, CcMultiKillCrSweepClean) {
  ExplorerOptions o = graph_opts("cc", "cr");
  o.max_single_kill_runs = 1;  // focus on the multi-kill runs
#ifdef FTMR_TEST_SANITIZED
  o.multi_kill_schedules = 2;
#else
  o.multi_kill_schedules = 5;
#endif
  o.max_kills_per_schedule = 3;
  Explorer e(o);
  ASSERT_TRUE(e.harvest().ok());
  bool spread = false;
  for (const FaultSchedule& s : e.multi_kill_schedules()) {
    for (const KillSpec& k : s.kills) spread = spread || k.submission > 0;
    RunReport rep = e.run_schedule(s);
    for (const Violation& v : rep.violations) {
      ADD_FAILURE() << s.label << ": [" << v.invariant << "] " << v.detail;
    }
  }
  EXPECT_TRUE(spread) << "CR multi-kill schedules must span resubmissions";
}

// Checkpoint/restart reuses every completed round, however many there are.
// A restart once scanned only the checkpoints of stages below 64, so this
// schedule (a 70-round SSSP, rank 0 killed in a late round) re-ran rounds
// 64-68 in its resubmission. The graph is the ftmr_explore default.
TEST(IterGraph, CrRestartReusesRoundsPastSixtyFour) {
  ExplorerOptions o;
  o.mode = "cr";
  o.workload.app = "sssp";
  o.workload.iterations = 70;
  Explorer e(o);
  FaultSchedule s;
  s.label = "single/r0/op349";
  s.mode = "cr";
  s.kills.push_back({/*rank=*/0, /*after_ops=*/349, /*vtime=*/-1.0,
                     /*submission=*/0});
  const RunReport rep = e.run_schedule(s);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.submissions, 2);
  for (const Violation& v : rep.violations) {
    ADD_FAILURE() << "[" << v.invariant << "] " << v.detail;
  }
}

// Triangle counting runs a 3-stage pipeline through the engine; a capped
// sweep keeps the multi-stage (non-relaxation) shape covered under kills.
TEST(IterGraph, TriangleCappedSweepClean) {
  ExplorerOptions o = graph_opts("tri", "wc");
  o.workload.graph_nodes = 14;
  o.max_single_kill_runs = 12;
  Explorer e(o);
  ExploreReport rep = e.explore();
  for (const RunReport& f : rep.failing) {
    for (const Violation& v : f.violations) {
      ADD_FAILURE() << f.schedule.label << ": [" << v.invariant << "] "
                    << v.detail;
    }
  }
  EXPECT_TRUE(rep.failing.empty());
}

// Mutation sanity for the reuse contract: a build that deliberately
// invalidates its newest completed round on post-failure replay MUST be
// caught by the iteration-reuse invariant, and the violating schedule must
// replay from its serialized artifact (which carries the mutation flag).
class BrokenReuse : public ::testing::TestWithParam<const char*> {};

TEST_P(BrokenReuse, IsDetectedAndReplayable) {
  ExplorerOptions o = graph_opts("sssp", GetParam());
  o.break_iteration_reuse = true;
  o.max_single_kill_runs = 24;  // subsample still lands mid-iteration kills
  Explorer e(o);
  ExploreReport rep = e.explore();
  ASSERT_FALSE(rep.failing.empty())
      << "planted reuse bug produced zero violations — the reuse invariant "
         "cannot detect real re-execution";
  bool reuse_caught = false;
  for (const RunReport& f : rep.failing) {
    for (const Violation& v : f.violations) {
      reuse_caught = reuse_caught || v.invariant == "iteration-reuse";
    }
  }
  EXPECT_TRUE(reuse_caught)
      << "violations found but none from the iteration-reuse invariant";

  const RunReport& f = rep.failing.front();
  const std::string json = Explorer::artifact_json(
      f.schedule, e.options().workload, /*break_recovery=*/false,
      /*break_iteration_reuse=*/true, f.violations);
  FaultSchedule rs;
  ExplorerWorkload rw;
  bool rbroken = false;
  bool rreuse = false;
  ASSERT_TRUE(Explorer::artifact_parse(json, rs, rw, &rbroken, &rreuse).ok());
  EXPECT_FALSE(rbroken);
  ASSERT_TRUE(rreuse);
  ExplorerOptions ro;
  ro.mode = rs.mode;
  ro.workload = rw;
  ro.break_iteration_reuse = rreuse;
  Explorer replayer(ro);
  RunReport replayed = replayer.run_schedule(rs);
  EXPECT_FALSE(replayed.violations.empty())
      << "artifact " << f.schedule.label << " did not reproduce on replay";
}

INSTANTIATE_TEST_SUITE_P(Modes, BrokenReuse, ::testing::Values("wc", "cr"));

TEST(Minimize, DropsRedundantKills) {
  ExplorerOptions o = small_opts("wc");
  o.break_recovery = true;
  Explorer e(o);
  ASSERT_TRUE(e.harvest().ok());
  // Find one single-kill violation, then pad the schedule with a second
  // kill and check minimization strips the pad back off.
  FaultSchedule violating;
  for (const FaultSchedule& s : e.single_kill_schedules()) {
    if (!e.run_schedule(s).violations.empty()) {
      violating = s;
      break;
    }
  }
  ASSERT_EQ(violating.kills.size(), 1u) << "no single-kill violation found";
  FaultSchedule padded = violating;
  // A kill that never fires (far beyond the golden op horizon) is inert.
  padded.kills.push_back({(violating.kills[0].rank + 1) % 4, 1 << 20, -1.0, 0});
  padded.label += "+pad";
  int runs = 0;
  RunReport minimized = e.minimize(padded, &runs);
  EXPECT_FALSE(minimized.violations.empty());
  ASSERT_EQ(minimized.schedule.kills.size(), 1u);
  EXPECT_EQ(minimized.schedule.kills[0], violating.kills[0]);
  EXPECT_GE(runs, 2);
}

}  // namespace
}  // namespace ftmr::testing
