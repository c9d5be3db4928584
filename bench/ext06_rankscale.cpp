// ext06_rankscale.cpp — rank-count scaling of the fiber-scheduled simulator
// (extension; no direct paper figure).
//
// The paper's evaluation runs on 64-256 physical nodes with up to thousands
// of MPI processes. The original thread-per-rank simulator topped out around
// a few hundred simulated ranks per box (one OS thread + preallocated stack
// each); the fiber scheduler multiplexes cooperatively scheduled ranks over
// a small worker pool, so paper-scale rank counts fit on one dev core.
//
// Three series:
//   1. Raw runtime scaling: ring exchange + allreduce + barrier at 64..8192
//      simulated ranks — wall clock and peak RSS must stay bounded.
//   2. Functional engine scaling: the real wordcount engine (FtJob,
//      checkpoints on) at 256..2048 simulated ranks.
//   3. Storage-tier saturation at scale: modeled per-writer checkpoint cost
//      as concurrent writers grow 64..2048. The shared tier (GPFS-like,
//      20 GB/s aggregate) saturates before 256 writers and degrades
//      linearly beyond; the in-memory replica tier keeps per-writer cost
//      flat through 2048 writers — the reason memory-tier recovery holds up
//      at paper scale.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bench/minicluster.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set size of this process in MiB (VmHWM, Linux).
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Raw-runtime workload: every rank rings a message around, joins an
/// allreduce, and hits a barrier, twice. Exercises the batched mailboxes,
/// the collective slots, and the park/wake machinery at full fan-in.
void ring_workload(ftmr::simmpi::Comm& c) {
  const int n = c.size();
  const int r = c.rank();
  ftmr::Bytes buf;
  for (int iter = 0; iter < 2; ++iter) {
    (void)c.send_string((r + 1) % n, 3, "t");
    (void)c.recv((r + n - 1) % n, 3, buf);
    int64_t sum = 0;
    (void)c.allreduce_one(ftmr::simmpi::ReduceOp::kSum, int64_t{1}, sum);
    (void)c.barrier();
  }
}

}  // namespace

int main() {
  using namespace ftmr;
  using namespace ftmr::bench;

  Report rep(
      "EXT-06: simulated-rank scaling (fiber scheduler)",
      "paper-scale rank counts (2048-8192) on one box; shared storage "
      "saturates before 256 concurrent checkpoint writers, peer memory "
      "does not",
      "rankscale");

  // -- 1. raw runtime scaling ---------------------------------------------
  rep.section("raw simmpi: ring + allreduce + barrier, wall clock / peak RSS");
  rep.row("%8s %12s %14s", "ranks", "wall (s)", "peak RSS (MiB)");
  double wall_2048 = 0.0, wall_8192 = 0.0;
  std::vector<int> raw_ranks = {64, 256, 1024, 2048, 8192};
  for (int n : raw_ranks) {
    const Clock::time_point t0 = Clock::now();
    simmpi::JobResult r = simmpi::Runtime::run(n, ring_workload);
    const double wall = seconds_since(t0);
    const double rss = peak_rss_mib();
    bool all_finished = true;
    for (const auto& rr : r.ranks) all_finished = all_finished && rr.finished;
    rep.row("%8d %12.3f %14.1f%s", n, wall, rss,
            all_finished ? "" : "  (INCOMPLETE)");
    rep.metric("raw_wall_s_" + std::to_string(n), wall);
    rep.metric("raw_rss_mib_" + std::to_string(n), rss);
    if (n == 2048) wall_2048 = wall;
    if (n == 8192) wall_8192 = wall;
    rep.check("raw run completes at " + std::to_string(n) + " ranks",
              all_finished);
  }
  rep.check("2048 raw ranks under 30 s wall", wall_2048 < 30.0,
            std::to_string(wall_2048) + " s");
  rep.check("8192 raw ranks under 180 s wall", wall_8192 < 180.0,
            std::to_string(wall_8192) + " s");
  // 8192 fiber stacks are reserved lazily (MAP_NORESERVE + guard page);
  // peak RSS must reflect pages actually touched, not 8192 x 1 MiB = 8 GiB.
  const double rss_8192 = peak_rss_mib();
  rep.check("peak RSS bounded at 8192 ranks (< 4 GiB)", rss_8192 < 4096.0,
            std::to_string(rss_8192) + " MiB");

  // -- 2. functional engine scaling ---------------------------------------
  rep.section("functional wordcount engine (checkpoints on), 64 chunks");
  rep.row("%8s %12s %14s %12s", "ranks", "wall (s)", "makespan (vs)", "ok");
  double engine_wall_2048 = 0.0;
  bool engine_ok_2048 = false;
  for (int n : {256, 1024, 2048}) {
    MiniJob j = wordcount_mini(core::FtMode::kDetectResumeWC, n,
                               /*nchunks=*/64);
    const Clock::time_point t0 = Clock::now();
    MiniResult r = run_mini(j);
    const double wall = seconds_since(t0);
    rep.row("%8d %12.3f %14.4f %12s", n, wall, r.makespan,
            r.ok ? "yes" : "NO");
    rep.metric("engine_wall_s_" + std::to_string(n), wall);
    rep.metric("engine_makespan_vs_" + std::to_string(n), r.makespan);
    if (n == 2048) {
      engine_wall_2048 = wall;
      engine_ok_2048 = r.ok;
    }
  }
  // The 2048-rank point runs last and dominates the process high-water
  // mark, so this is the engine's own peak at 2048 ranks.
  rep.metric("engine_peak_rss_mib_2048", peak_rss_mib());
  rep.check("wordcount engine completes at 2048 simulated ranks",
            engine_ok_2048);
  rep.check("2048-rank engine run under 300 s wall", engine_wall_2048 < 300.0,
            std::to_string(engine_wall_2048) + " s");

  // -- 3. storage-tier saturation at scale --------------------------------
  // Modeled cost of one 64 MiB checkpoint write per rank as concurrent
  // writers grow. Shared per-writer bandwidth is min(per-process,
  // aggregate / writers): flat until the aggregate ceiling binds, then
  // degrading linearly. The memory tier has no aggregate ceiling (every
  // replica pair uses its own links), so its curve stays flat.
  rep.section("per-writer 64 MiB checkpoint cost vs concurrent writers");
  const storage::StorageOptions so;
  const size_t ckpt_bytes = 64ull << 20;
  rep.row("%8s %14s %14s %10s", "writers", "shared (s)", "memory (s)",
          "ratio");
  std::vector<int> writers = {64, 128, 256, 512, 1024, 2048};
  std::vector<double> shared_cost, memory_cost;
  int saturation_writers = 0;
  for (int w : writers) {
    const double sh = so.shared.cost(ckpt_bytes, 1, w);
    const double mem = so.memory.cost(ckpt_bytes, 1, w);
    shared_cost.push_back(sh);
    memory_cost.push_back(mem);
    // Saturated: the aggregate ceiling halves (or worse) the per-writer
    // bandwidth relative to an uncontended writer.
    const double uncontended = so.shared.cost(ckpt_bytes, 1, 1);
    if (saturation_writers == 0 && sh >= 2.0 * uncontended) {
      saturation_writers = w;
    }
    rep.row("%8d %14.3f %14.3f %9.0fx", w, sh, mem, sh / mem);
    rep.metric("shared_ckpt_s_" + std::to_string(w), sh);
    rep.metric("memory_ckpt_s_" + std::to_string(w), mem);
  }
  rep.metric("saturation_writers", saturation_writers);
  rep.check("shared tier saturates at or before 256 writers",
            saturation_writers > 0 && saturation_writers <= 256,
            "first >=2x-degraded point: " + std::to_string(saturation_writers) +
                " writers");
  // Past saturation the curve must be linear in writers (aggregate-bound):
  // doubling writers doubles per-writer cost, within latency noise.
  const double grow = shared_cost.back() / shared_cost[shared_cost.size() - 2];
  rep.check("shared tier degrades linearly past saturation",
            grow > 1.9 && grow < 2.1,
            "2048w/1024w cost ratio " + std::to_string(grow));
  const double mem_drift = memory_cost.back() / memory_cost.front();
  rep.check("memory tier flat through 2048 writers",
            mem_drift > 0.99 && mem_drift < 1.01,
            "2048w/64w cost ratio " + std::to_string(mem_drift));
  const double advantage = shared_cost.back() / memory_cost.back();
  rep.metric("memory_advantage_2048w", advantage);
  rep.check("memory-tier recovery >= 100x faster at 2048 writers",
            advantage >= 100.0, std::to_string(advantage) + "x");

  return rep.finish();
}
