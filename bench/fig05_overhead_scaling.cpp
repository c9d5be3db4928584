// Figure 5 — normalized failure-free job completion time of wordcount
// (128 GB) for MR-MPI vs FT-MRMPI's three models, 32..2048 processes.
// Refinements disabled for fairness (paper Sec. 6.2). Also reproduces the
// functional data point on the mini-cluster.
#include <chrono>

#include "bench/common.hpp"
#include "bench/minicluster.hpp"

using namespace ftmr;
using namespace ftmr::bench;

int main() {
  Report rep("Figure 5: normalized failure-free job completion time (wordcount)",
             "C/R and D/R(WC) take 10%-13% longer than MR-MPI; D/R(NWC) matches "
             "MR-MPI; scaling degrades beyond 256 procs (shared-storage "
             "bottleneck), which further increases checkpoint overhead");

  rep.section("model @ paper scale (normalized to MR-MPI at each size)");
  rep.row("%6s %12s %8s %8s %8s", "procs", "mrmpi(s)", "C/R", "D/R-WC", "D/R-NWC");
  const auto w = wordcount_workload();
  double cr256 = 0, cr2048 = 0, nwc_max = 0;
  for (int p : {32, 64, 128, 256, 512, 1024, 2048}) {
    const double base = make_model(w, perf::Mode::kMrMpi, p).failure_free().total();
    const double cr =
        make_model(w, perf::Mode::kCheckpointRestart, p).failure_free().total() / base;
    const double wc =
        make_model(w, perf::Mode::kDetectResumeWC, p).failure_free().total() / base;
    const double nwc =
        make_model(w, perf::Mode::kDetectResumeNWC, p).failure_free().total() / base;
    rep.row("%6d %12.1f %8.3f %8.3f %8.3f", p, base, cr, wc, nwc);
    if (p == 256) cr256 = cr;
    if (p == 2048) cr2048 = cr;
    nwc_max = std::max(nwc_max, nwc);
  }
  rep.check("C/R overhead in 10-13% band at 256 procs",
            cr256 >= 1.08 && cr256 <= 1.15);
  rep.check("storage bottleneck raises overhead at 2048", cr2048 > cr256);
  rep.check("D/R(NWC) matches MR-MPI (no checkpointing)", nwc_max < 1.02);

  rep.section("functional mini-cluster (8 ranks, virtual time)");
  auto ff = [](core::FtMode mode) {
    MiniJob j = wordcount_mini(mode, 8, 48);
    j.opts.ckpt.records_per_ckpt = 64;
    // Paper-scale jobs are minutes of compute; give the mini job enough
    // per-record work that fixed checkpoint costs are amortized similarly.
    j.opts.map_cost_per_record = 1e-3;
    j.generate = [](storage::StorageSystem& fs) {
      apps::TextGenOptions tg;
      tg.nchunks = 48;
      tg.lines_per_chunk = 64;
      (void)apps::generate_text(fs, tg);
    };
    return run_mini(j);
  };
  const MiniResult none = ff(core::FtMode::kNone);
  const MiniResult cr = ff(core::FtMode::kCheckpointRestart);
  const MiniResult wc = ff(core::FtMode::kDetectResumeWC);
  const MiniResult nwc = ff(core::FtMode::kDetectResumeNWC);
  rep.row("%-10s makespan=%.4fs (norm %.3f)", "mrmpi", none.makespan, 1.0);
  rep.row("%-10s makespan=%.4fs (norm %.3f)", "C/R", cr.makespan,
          cr.makespan / none.makespan);
  rep.row("%-10s makespan=%.4fs (norm %.3f)", "D/R-WC", wc.makespan,
          wc.makespan / none.makespan);
  rep.row("%-10s makespan=%.4fs (norm %.3f)", "D/R-NWC", nwc.makespan,
          nwc.makespan / none.makespan);
  rep.check("functional: checkpointing modes cost extra but bounded (<60%)",
            cr.makespan > none.makespan && wc.makespan > none.makespan &&
                cr.makespan < none.makespan * 1.6);
  rep.check("functional: NWC ~= baseline",
            nwc.makespan < none.makespan * 1.05);

  // Paper-scale rank count, functionally: the fiber scheduler runs the
  // real engine at the top of Figure 5's x-axis on one box. 64 chunks
  // keeps the data volume mini-cluster-sized — the point is the rank
  // count (collectives, 2048-way shuffle), not the bytes.
  rep.section("functional @ paper scale (2048 simulated ranks)");
  {
    using Clock = std::chrono::steady_clock;
    auto paper_scale = [](core::FtMode mode) {
      MiniJob j = wordcount_mini(mode, 2048, 64);
      // Same amortization as the 8-rank section: paper jobs are minutes of
      // compute, so give records enough map cost that fixed checkpoint
      // latencies are charged against real work, not an empty job.
      j.opts.map_cost_per_record = 1e-3;
      return run_mini(j);
    };
    const auto t0 = Clock::now();
    const MiniResult base = paper_scale(core::FtMode::kNone);
    const MiniResult wc2k = paper_scale(core::FtMode::kDetectResumeWC);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    rep.row("%-10s makespan=%.4fs", "mrmpi", base.makespan);
    rep.row("%-10s makespan=%.4fs (norm %.3f)  [both runs: %.1fs wall]",
            "D/R-WC", wc2k.makespan, wc2k.makespan / base.makespan, wall);
    rep.check("functional runs complete at 2048 simulated ranks",
              base.ok && wc2k.ok);
    rep.check("2048-rank checkpoint overhead bounded (<2x)",
              wc2k.makespan >= base.makespan &&
                  wc2k.makespan < base.makespan * 2.0);
  }
  return rep.finish();
}
