// Figure 3 — recovery time by checkpoint granularity (record vs input
// chunk), pagerank. Record-level checkpoints replace reprocessing with
// cheap record skipping; chunk-level recovery is ~38% slower.
#include "bench/common.hpp"
#include "bench/minicluster.hpp"

using namespace ftmr;
using namespace ftmr::bench;

namespace {

MiniJob pagerank_mini(core::CkptOptions::Granularity gran, double kill_at) {
  MiniJob j;
  j.nranks = 8;
  j.opts.mode = core::FtMode::kCheckpointRestart;
  j.opts.ppn = 2;
  // The load balancer only splits work in detect/resume recovery, which a
  // C/R job never runs; keep it off so granularity is the only variable.
  j.opts.load_balance = false;
  j.opts.ckpt.granularity = gran;
  j.opts.ckpt.records_per_ckpt = 64;
  j.opts.map_cost_per_record = 2e-3;  // pagerank maps are heavier than wc
  j.generate = [](storage::StorageSystem& fs) {
    apps::GraphGenOptions go;
    go.nodes = 1600;
    go.nchunks = 8;  // one big chunk per rank: a partial chunk hurts
    (void)apps::generate_graph(fs, go);
  };
  j.driver = iter_driver([] { return apps::pagerank_spec(2); }, nullptr);
  // Kill rank 2 late in the job, so the restart's cost is dominated by
  // how it treats the partially processed chunks: skipping committed
  // records (record granularity) vs re-mapping them (chunk granularity).
  if (kill_at > 0) j.sim.kills.push_back({2, kill_at, -1});
  return j;
}

}  // namespace

int main() {
  Report rep("Figure 3: recovery time by checkpoint granularity (pagerank)",
             "chunk-granularity recovery is ~38% slower than record-level; the "
             "decomposition shows reprocessing far exceeds record skipping");

  rep.section("model @ 256 procs (restart recovery decomposition, seconds)");
  const auto w = pagerank_workload();
  perf::FtConfig rec_ft, chunk_ft;
  rec_ft.mode = chunk_ft.mode = perf::Mode::kCheckpointRestart;
  rec_ft.two_pass_convert = chunk_ft.two_pass_convert = false;
  chunk_ft.chunk_granularity = true;
  const perf::JobModel rec_m(perf::ClusterModel{}, w, rec_ft, 256);
  const perf::JobModel chunk_m(perf::ClusterModel{}, w, chunk_ft, 256);
  const auto rr = rec_m.restart_recovery(0.5);
  const auto cr = chunk_m.restart_recovery(0.5);
  rep.row("%-8s init=%6.1f state=%6.1f skip=%6.1f reprocess=%6.1f total=%6.1f",
          "record", rr.init, rr.state_read, rr.skip, rr.reprocess, rr.total());
  rep.row("%-8s init=%6.1f state=%6.1f skip=%6.1f reprocess=%6.1f total=%6.1f",
          "chunk", cr.init, cr.state_read, cr.skip, cr.reprocess, cr.total());
  rep.check("chunk recovery slower than record (paper: +38%)",
            cr.total() > rr.total() * 1.15);
  rep.check("reprocessing dominates chunk recovery; skipping is cheap",
            cr.reprocess > 5.0 * rr.reprocess && rr.skip < cr.total());

  rep.section("functional mini-cluster (8 ranks, restart after mid-job kill; "
              "best of 3 — failure-detection lag only ever adds lost work, so "
              "the minimum isolates the granularity effect)");
  // Place the kill mid-stage (stage 3 of 5, at 70% of the failure-free
  // makespan) so failure-detection lag cannot straddle a stage boundary,
  // which would change the resume point instead of the skip/reprocess cost.
  const double ff =
      run_mini(pagerank_mini(core::CkptOptions::Granularity::kRecord, 0))
          .makespan;
  const double kill_at = 0.70 * ff;
  rep.row("failure-free makespan %.4fs; killing at %.4fs", ff, kill_at);
  auto best_of = [&](core::CkptOptions::Granularity g) {
    MiniResult best;
    best.last_submission_time = 1e18;
    for (int i = 0; i < 3; ++i) {
      MiniResult r = run_mini(pagerank_mini(g, kill_at));
      if (r.ok && r.last_submission_time < best.last_submission_time) best = r;
    }
    return best;
  };
  const MiniResult rec = best_of(core::CkptOptions::Granularity::kRecord);
  const MiniResult chunk = best_of(core::CkptOptions::Granularity::kChunk);
  rep.row("record: recovery-run=%.4fs subs=%d skip-bucket=%.5fs",
          rec.last_submission_time, rec.submissions, rec.times.get("skip"));
  rep.row("chunk : recovery-run=%.4fs subs=%d skip-bucket=%.5fs",
          chunk.last_submission_time, chunk.submissions, chunk.times.get("skip"));
  rep.check("functional: both granularities complete after restart",
            rec.ok && chunk.ok && rec.submissions == 2 && chunk.submissions == 2);
  // At toy scale the record-vs-chunk delta (tens of ms) is comparable to
  // the per-file checkpoint overheads and to failure-detection scheduling
  // noise, so the functional layer only asserts the sign robustly: record
  // granularity must never be meaningfully worse. The paper-scale
  // quantitative gap (+38%) is asserted by the model check above, where
  // reprocessing costs hours, not milliseconds.
  rep.check("functional: record granularity not meaningfully worse than chunk",
            rec.last_submission_time <= chunk.last_submission_time * 1.07);
  return rep.finish();
}
