// graph.hpp — graph workloads: BFS, PageRank (paper Sec. 6.1), and the
// iterative family on the cross-iteration-reuse engine: single-source
// shortest paths, connected components, and triangle counting (the MR-MPI
// fork's graph programs, re-hosted on core/iterjob.hpp).
//
// BFS is a single-stage iterative MapReduce job (map visits/colors
// vertices, reduce combines visiting information); PageRank is a
// multi-stage iterative job with two stages per iteration. Input graphs are
// generated deterministically with a skewed degree distribution; weighted
// graphs encode adjacency as "v:w" pairs (unweighted parsers read the
// target and stop at the colon).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "core/ftjob.hpp"
#include "core/iterjob.hpp"
#include "storage/storage.hpp"

namespace ftmr::apps {

struct GraphGenOptions {
  int nodes = 500;
  double avg_degree = 4.0;
  double zipf_exponent = 0.8;  // skewed in-degree (web-graph-like)
  uint64_t seed = 0x6af7;
  int nchunks = 16;
  std::string dir = "input";
};

/// Generate a directed graph; each chunk holds lines "node<TAB>adjcsv".
/// Every node has out-degree >= 1 (self-loop if needed). Optionally returns
/// the adjacency for reference computations.
Status generate_graph(storage::StorageSystem& fs, const GraphGenOptions& opts,
                      std::vector<std::vector<int>>* adjacency = nullptr);

// ---- BFS ----

/// Stage 0: parse node lines, attach dist=0 to `source`, INF elsewhere.
core::StageFns bfs_init_stage(int source);
/// Iteration stage: relax distances one hop.
core::StageFns bfs_iter_stage();
/// Reference BFS for verification: node -> distance (-1 unreachable).
std::vector<int> bfs_reference(const std::vector<std::vector<int>>& adj, int source);
/// Parse a BFS output value "dist|adj" -> dist.
int bfs_parse_dist(std::string_view value);

// ---- PageRank ----

core::StageFns pagerank_init_stage();
core::StageFns pagerank_contrib_stage();  // stage A of each iteration
core::StageFns pagerank_apply_stage();    // stage B of each iteration
/// Reference PageRank (same damping/order-insensitive math), for
/// approximate verification.
std::vector<double> pagerank_reference(const std::vector<std::vector<int>>& adj,
                                       int iterations);
double pagerank_parse_rank(std::string_view value);

// ---- Weighted / hand-built graphs ----

struct WEdge {
  int to = 0;
  int w = 1;
};
/// Directed adjacency with edge weights; index = node id.
using WAdjacency = std::vector<std::vector<WEdge>>;

/// Write an adjacency as input chunks ("node<TAB>v:w,v:w,..."), round-robin
/// like generate_graph. Every node gets a line (empty adjacency field for
/// sinks), so hand-built property-test graphs — disconnected, self-loop,
/// duplicate-edge, single-node — round-trip exactly.
Status write_graph(storage::StorageSystem& fs, const WAdjacency& adj,
                   int nchunks, const std::string& dir = "input");

/// generate_graph's skewed digraph with uniform edge weights in
/// [1, max_weight]; self-loops and duplicate edges are kept (the SSSP/CC
/// parsers must tolerate them).
Status generate_weighted_graph(storage::StorageSystem& fs,
                               const GraphGenOptions& opts, int max_weight,
                               WAdjacency* adjacency = nullptr);

// ---- Single-source shortest paths (Bellman-Ford message rounds) ----
//
// KV state: key = node, value = "dist|v:w,..." (dist = -1 unreached).
// Each round relaxes one hop: messages "D|d", carriers "A|dist|adj".

core::StageFns sssp_init_stage(int source);
core::StageFns sssp_iter_stage();
/// Engine spec: init + `rounds` relaxation rounds.
core::IterSpec sssp_spec(int source, int rounds);
/// Synchronous reference relaxation, matching the engine round-for-round:
/// distance after `rounds` rounds (rounds < 0: run to fixpoint); -1 =
/// unreached.
std::vector<int64_t> sssp_reference(const WAdjacency& adj, int source,
                                    int rounds);
int64_t sssp_parse_dist(std::string_view value);

// ---- Connected components (min-label propagation) ----
//
// Init undirected-izes the graph (each directed edge emits both
// orientations) and labels every node with its own id; each round sends
// the current label to all neighbours and keeps the minimum. State: key =
// node, value = "label|neighcsv".

core::StageFns cc_init_stage();
core::StageFns cc_iter_stage();
core::IterSpec cc_spec(int rounds);
/// Synchronous min-label propagation over the undirected closure, matching
/// the engine round-for-round (rounds < 0: run to fixpoint, i.e. the
/// component minimum).
std::vector<int64_t> cc_reference(const WAdjacency& adj, int rounds);

// ---- Triangle counting (per-edge, MR-MPI tri_find style) ----
//
// Three stages: (1) distinct undirected edges keyed "a,b" with a < b
// (self-loops dropped, duplicates collapsed); (2) each edge posts both
// endpoints' neighbourhoods, and every node emits its neighbour pairs as
// triad candidates "x,y" -> "T" alongside the edge markers "E"; (3) the
// join counts triads landing on a real edge. Output: key = "a,b", value =
// number of triangles through that edge (edges on no triangle are absent).

core::StageFns tri_edge_stage();
core::StageFns tri_triad_stage();
core::StageFns tri_join_stage();
core::IterSpec tri_spec();
/// Reference per-edge triangle counts (only edges with count > 0).
std::map<std::string, int64_t> tri_reference(const WAdjacency& adj);

// ---- Engine specs for the classic apps (their only driver form) ----

core::IterSpec bfs_spec(int source, int iterations);
core::IterSpec pagerank_spec(int iterations);

}  // namespace ftmr::apps
