// pagerank_analytics — multi-stage iterative PageRank on a generated web
// graph, surviving continuous failures with in-place (detect/resume)
// recovery, exactly the scenario of the paper's Fig. 11.
//
//   $ ./pagerank_analytics nodes=800 iterations=3 kills=2 nranks=8
#include <algorithm>
#include <cstdio>
#include <memory>

#include "apps/graph.hpp"
#include "common/config.hpp"
#include "core/ftjob.hpp"
#include "core/iterjob.hpp"
#include "simmpi/runtime.hpp"
#include "storage/storage.hpp"

using namespace ftmr;

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const int nranks = static_cast<int>(cfg.get_or("nranks", int64_t{8}));
  const int nodes = static_cast<int>(cfg.get_or("nodes", int64_t{800}));
  const int iterations = static_cast<int>(cfg.get_or("iterations", int64_t{3}));
  const int kills = static_cast<int>(cfg.get_or("kills", int64_t{2}));

  storage::TempDir tmp("ftmr-pagerank");
  storage::StorageOptions so;
  so.root = tmp.path();
  storage::StorageSystem fs(so);

  apps::GraphGenOptions go;
  go.nodes = nodes;
  go.nchunks = 16;
  std::vector<std::vector<int>> adj;
  if (auto s = apps::generate_graph(fs, go, &adj); !s.ok()) {
    std::fprintf(stderr, "graphgen failed: %s\n", s.to_string().c_str());
    return 1;
  }

  core::FtJobOptions opts;
  opts.mode = core::FtMode::kDetectResumeWC;  // work-conserving in-place recovery
  opts.ppn = 2;
  opts.ckpt.records_per_ckpt = 64;
  opts.map_cost_per_record = 2e-4;

  simmpi::JobOptions sim;
  for (int k = 0; k < kills; ++k) {
    sim.kills.push_back({1 + 2 * k, 0.05 + 0.05 * k, -1});
  }

  simmpi::JobResult result = simmpi::Runtime::run(nranks, [&](simmpi::Comm& c) {
    core::FtJob job(c, &fs, opts);
    Status s = job.run(core::IterDriver::as_driver(
        std::make_shared<core::IterDriver>(apps::pagerank_spec(iterations))));
    if (c.rank() == 0) {
      std::printf("rank0: recoveries=%d final-comm=%d status=%s\n",
                  job.recoveries(), job.work_comm().size(),
                  s.ok() ? "OK" : s.to_string().c_str());
    }
  }, sim);
  std::printf("job: %d finished, %d killed, virtual makespan %.4fs\n",
              result.finished_count(), result.killed_count(), result.makespan());

  // Read ranks back, print the top pages, verify against the reference.
  std::vector<std::string> parts;
  (void)fs.list_dir(storage::Tier::kShared, 0, "output", parts);
  std::vector<std::pair<double, int>> ranked;
  for (const auto& name : parts) {
    Bytes data;
    (void)fs.read_file(storage::Tier::kShared, 0, "output/" + name, data);
    ByteReader r(data);
    while (!r.exhausted()) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) break;
      ranked.push_back({apps::pagerank_parse_rank(v), std::stoi(k)});
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  const std::vector<double> ref = apps::pagerank_reference(adj, iterations);
  int mismatches = 0;
  for (const auto& [rank, node] : ranked) {
    if (std::abs(rank - ref[static_cast<size_t>(node)]) > 1e-9) mismatches++;
  }
  std::printf("pages ranked: %zu (mismatches vs reference: %d)\n", ranked.size(),
              mismatches);
  std::printf("top 5 pages:\n");
  for (size_t i = 0; i < ranked.size() && i < 5; ++i) {
    std::printf("  node %-6d rank %.4f\n", ranked[i].second, ranked[i].first);
  }
  return (mismatches == 0 && ranked.size() == static_cast<size_t>(nodes)) ? 0 : 1;
}
