#include "apps/graph.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <deque>
#include <set>

#include "common/rng.hpp"

namespace ftmr::apps {

namespace {

constexpr int kInf = -1;

int parse_int(std::string_view s) {
  int v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

int64_t parse_i64(std::string_view s) {
  int64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v);
  return v;
}

/// Split "a|b|c" at the first '|'.
std::pair<std::string_view, std::string_view> split1(std::string_view s) {
  const auto bar = s.find('|');
  if (bar == std::string_view::npos) return {s, {}};
  return {s.substr(0, bar), s.substr(bar + 1)};
}

std::vector<int> parse_csv(std::string_view csv) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find(',', pos);
    if (end == std::string_view::npos) end = csv.size();
    if (end > pos) out.push_back(parse_int(csv.substr(pos, end - pos)));
    pos = end + 1;
  }
  return out;
}

std::string to_csv(const std::vector<int>& v) {
  std::string s;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i]);
  }
  return s;
}

/// Parse "v:w,v:w,..."; a piece without ':' gets weight 1, so the weighted
/// parsers also accept unweighted adjacency.
std::vector<WEdge> parse_wcsv(std::string_view csv) {
  std::vector<WEdge> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t end = csv.find(',', pos);
    if (end == std::string_view::npos) end = csv.size();
    if (end > pos) {
      const std::string_view piece = csv.substr(pos, end - pos);
      const auto colon = piece.find(':');
      WEdge e;
      e.to = parse_int(piece.substr(0, colon));
      e.w = colon == std::string_view::npos ? 1
                                            : parse_int(piece.substr(colon + 1));
      out.push_back(e);
    }
    pos = end + 1;
  }
  return out;
}

std::string to_wcsv(const std::vector<WEdge>& v) {
  std::string s;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) s += ',';
    s += std::to_string(v[i].to) + ":" + std::to_string(v[i].w);
  }
  return s;
}

}  // namespace

Status generate_graph(storage::StorageSystem& fs, const GraphGenOptions& opts,
                      std::vector<std::vector<int>>* adjacency) {
  Rng rng(opts.seed);
  const ZipfSampler popularity(static_cast<size_t>(opts.nodes),
                               opts.zipf_exponent);
  std::vector<std::vector<int>> adj(static_cast<size_t>(opts.nodes));
  for (int u = 0; u < opts.nodes; ++u) {
    // Out-degree ~ 1 + Poisson-ish around avg_degree; targets Zipf-skewed
    // so some nodes have very high in-degree (key skew for the shuffle).
    const int deg =
        1 + static_cast<int>(rng.next_below(
                static_cast<uint64_t>(std::max(1.0, 2.0 * opts.avg_degree - 1.0))));
    for (int k = 0; k < deg; ++k) {
      int v = static_cast<int>(popularity.sample(rng));
      if (v == u) v = (u + 1) % opts.nodes;
      adj[static_cast<size_t>(u)].push_back(v);
    }
    std::sort(adj[u].begin(), adj[u].end());
    adj[u].erase(std::unique(adj[u].begin(), adj[u].end()), adj[u].end());
    if (adj[u].empty()) adj[u].push_back((u + 1) % opts.nodes);
  }
  // Write node lines round-robin across chunks.
  std::vector<std::string> chunks(static_cast<size_t>(opts.nchunks));
  for (int u = 0; u < opts.nodes; ++u) {
    chunks[static_cast<size_t>(u % opts.nchunks)] +=
        std::to_string(u) + "\t" + to_csv(adj[static_cast<size_t>(u)]) + "\n";
  }
  for (int c = 0; c < opts.nchunks; ++c) {
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%05d", c);
    if (auto s = fs.write_file(storage::Tier::kShared, 0, opts.dir + "/" + name,
                               as_bytes_view(chunks[static_cast<size_t>(c)]));
        !s.ok()) {
      return s;
    }
  }
  if (adjacency) *adjacency = std::move(adj);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------
//
// KV state after every stage: key = node id, value = "dist|adjcsv" with
// dist = -1 for unvisited. Relaxation messages are "D|dist"; carrier
// messages are "A|dist|adjcsv".

core::StageFns bfs_init_stage(int source) {
  core::StageFns fns;
  fns.map = [source](std::string_view, std::string_view line,
                     mr::KvBuffer& out) -> int32_t {
    const auto tab = line.find('\t');
    if (tab == std::string_view::npos) return 0;
    const std::string_view node = line.substr(0, tab);
    const std::string_view adj = line.substr(tab + 1);
    const bool is_source = parse_int(node) == source;
    std::string state = is_source ? "A|0|" : "A|-1|";
    state += adj;
    out.add(node, state);
    return 1;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    // One carrier per node at init.
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "A") out.add(key, rest);
    }
    return 1;
  };
  return fns;
}

core::StageFns bfs_iter_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view node, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    auto [dist_s, adj_s] = split1(value);
    const int dist = parse_int(dist_s);
    std::string carrier = "A|";
    carrier += value;
    out.add(node, carrier);  // carry state + adjacency forward
    int32_t n = 1;
    if (dist >= 0) {
      for (int v : parse_csv(adj_s)) {
        out.add(std::to_string(v), "D|" + std::to_string(dist + 1));
        ++n;
      }
    }
    return n;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    int best = kInf;
    std::string adj;
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "A") {
        auto [dist_s, adj_s] = split1(rest);
        adj = std::string(adj_s);
        const int d = parse_int(dist_s);
        if (d >= 0 && (best < 0 || d < best)) best = d;
      } else if (tag == "D") {
        const int d = parse_int(rest);
        if (best < 0 || d < best) best = d;
      }
    }
    out.add(key, std::to_string(best) + "|" + adj);
    return 1;
  };
  return fns;
}

std::vector<int> bfs_reference(const std::vector<std::vector<int>>& adj,
                               int source) {
  std::vector<int> dist(adj.size(), kInf);
  std::deque<int> q;
  dist[static_cast<size_t>(source)] = 0;
  q.push_back(source);
  while (!q.empty()) {
    const int u = q.front();
    q.pop_front();
    for (int v : adj[static_cast<size_t>(u)]) {
      if (dist[static_cast<size_t>(v)] < 0) {
        dist[static_cast<size_t>(v)] = dist[static_cast<size_t>(u)] + 1;
        q.push_back(v);
      }
    }
  }
  return dist;
}

int bfs_parse_dist(std::string_view value) {
  return parse_int(split1(value).first);
}

// ---------------------------------------------------------------------------
// PageRank (two stages per iteration, paper Sec. 6.1)
// ---------------------------------------------------------------------------
//
// State value: "rank|adjcsv". Stage A (contrib): each node sends
// rank/outdeg to its neighbours and a carrier with its adjacency; reduce
// sums contributions into "S|sum|adjcsv". Stage B (apply): rank' =
// 0.15 + 0.85 * sum, state back to "rank'|adjcsv".

core::StageFns pagerank_init_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view, std::string_view line,
               mr::KvBuffer& out) -> int32_t {
    const auto tab = line.find('\t');
    if (tab == std::string_view::npos) return 0;
    std::string state = "A|1.0|";
    state += line.substr(tab + 1);
    out.add(line.substr(0, tab), state);
    return 1;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "A") out.add(key, rest);
    }
    return 1;
  };
  return fns;
}

core::StageFns pagerank_contrib_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view node, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    auto [rank_s, adj_s] = split1(value);
    const double rank = core::Codec<double>::decode(rank_s);
    const std::vector<int> adj = parse_csv(adj_s);
    std::string carrier = "A|";
    carrier += adj_s;
    out.add(node, carrier);
    if (!adj.empty()) {
      const std::string contrib = core::Codec<double>::encode(
          rank / static_cast<double>(adj.size()));
      for (int v : adj) out.add(std::to_string(v), "C|" + contrib);
    }
    return static_cast<int32_t>(adj.size() + 1);
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    double sum = 0.0;
    std::string adj;
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "A") {
        adj = std::string(rest);
      } else if (tag == "C") {
        sum += core::Codec<double>::decode(rest);
      }
    }
    out.add(key, "S|" + core::Codec<double>::encode(sum) + "|" + adj);
    return 1;
  };
  return fns;
}

core::StageFns pagerank_apply_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view node, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    out.add(node, value);  // pass-through
    return 1;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag != "S") continue;
      auto [sum_s, adj_s] = split1(rest);
      const double rank = 0.15 + 0.85 * core::Codec<double>::decode(sum_s);
      out.add(key, core::Codec<double>::encode(rank) + "|" + std::string(adj_s));
    }
    return 1;
  };
  return fns;
}

std::vector<double> pagerank_reference(const std::vector<std::vector<int>>& adj,
                                       int iterations) {
  const size_t n = adj.size();
  std::vector<double> rank(n, 1.0);
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> sum(n, 0.0);
    for (size_t u = 0; u < n; ++u) {
      if (adj[u].empty()) continue;
      const double c = rank[u] / static_cast<double>(adj[u].size());
      for (int v : adj[u]) sum[static_cast<size_t>(v)] += c;
    }
    for (size_t u = 0; u < n; ++u) rank[u] = 0.15 + 0.85 * sum[u];
  }
  return rank;
}

double pagerank_parse_rank(std::string_view value) {
  return core::Codec<double>::decode(split1(value).first);
}

// ---------------------------------------------------------------------------
// Weighted / hand-built graphs
// ---------------------------------------------------------------------------

Status write_graph(storage::StorageSystem& fs, const WAdjacency& adj,
                   int nchunks, const std::string& dir) {
  std::vector<std::string> chunks(static_cast<size_t>(nchunks));
  for (size_t u = 0; u < adj.size(); ++u) {
    chunks[u % static_cast<size_t>(nchunks)] +=
        std::to_string(u) + "\t" + to_wcsv(adj[u]) + "\n";
  }
  for (int c = 0; c < nchunks; ++c) {
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%05d", c);
    if (auto s = fs.write_file(storage::Tier::kShared, 0, dir + "/" + name,
                               as_bytes_view(chunks[static_cast<size_t>(c)]));
        !s.ok()) {
      return s;
    }
  }
  return Status::Ok();
}

Status generate_weighted_graph(storage::StorageSystem& fs,
                               const GraphGenOptions& opts, int max_weight,
                               WAdjacency* adjacency) {
  Rng rng(opts.seed);
  const ZipfSampler popularity(static_cast<size_t>(opts.nodes),
                               opts.zipf_exponent);
  WAdjacency adj(static_cast<size_t>(opts.nodes));
  const uint64_t wspan = static_cast<uint64_t>(std::max(1, max_weight));
  for (int u = 0; u < opts.nodes; ++u) {
    const int deg =
        1 + static_cast<int>(rng.next_below(
                static_cast<uint64_t>(std::max(1.0, 2.0 * opts.avg_degree - 1.0))));
    for (int k = 0; k < deg; ++k) {
      // Unlike generate_graph, self-loops and duplicate edges are kept: the
      // SSSP/CC parsers must tolerate both.
      const int v = static_cast<int>(popularity.sample(rng));
      const int w = 1 + static_cast<int>(rng.next_below(wspan));
      adj[static_cast<size_t>(u)].push_back({v, w});
    }
  }
  if (auto s = write_graph(fs, adj, opts.nchunks, opts.dir); !s.ok()) return s;
  if (adjacency) *adjacency = std::move(adj);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Single-source shortest paths (Bellman-Ford message rounds)
// ---------------------------------------------------------------------------

core::StageFns sssp_init_stage(int source) {
  core::StageFns fns;
  fns.map = [source](std::string_view, std::string_view line,
                     mr::KvBuffer& out) -> int32_t {
    const auto tab = line.find('\t');
    if (tab == std::string_view::npos) return 0;
    const std::string_view node = line.substr(0, tab);
    std::string state = parse_int(node) == source ? "A|0|" : "A|-1|";
    state += line.substr(tab + 1);
    out.add(node, state);
    return 1;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "A") out.add(key, rest);
    }
    return 1;
  };
  return fns;
}

core::StageFns sssp_iter_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view node, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    auto [dist_s, adj_s] = split1(value);
    const int64_t dist = parse_i64(dist_s);
    std::string carrier = "A|";
    carrier += value;
    out.add(node, carrier);
    int32_t n = 1;
    if (dist >= 0) {
      for (const WEdge& e : parse_wcsv(adj_s)) {
        out.add(std::to_string(e.to), "D|" + std::to_string(dist + e.w));
        ++n;
      }
    }
    return n;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    int64_t best = kInf;
    std::string adj;
    bool carried = false;
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "A") {
        auto [dist_s, adj_s] = split1(rest);
        adj = std::string(adj_s);
        carried = true;
        const int64_t d = parse_i64(dist_s);
        if (d >= 0 && (best < 0 || d < best)) best = d;
      } else if (tag == "D") {
        const int64_t d = parse_i64(rest);
        if (best < 0 || d < best) best = d;
      }
    }
    (void)carried;  // message-only keys still materialize (empty adjacency)
    out.add(key, std::to_string(best) + "|" + adj);
    return 1;
  };
  return fns;
}

core::IterSpec sssp_spec(int source, int rounds) {
  core::IterSpec spec;
  spec.init = sssp_init_stage(source);
  spec.iter_stages = {sssp_iter_stage()};
  spec.iterations = rounds;
  return spec;
}

std::vector<int64_t> sssp_reference(const WAdjacency& adj, int source,
                                    int rounds) {
  std::vector<int64_t> dist(adj.size(), kInf);
  if (source >= 0 && static_cast<size_t>(source) < adj.size()) {
    dist[static_cast<size_t>(source)] = 0;
  }
  for (int r = 0; rounds < 0 || r < rounds; ++r) {
    std::vector<int64_t> next = dist;
    for (size_t u = 0; u < adj.size(); ++u) {
      if (dist[u] < 0) continue;
      for (const WEdge& e : adj[u]) {
        if (e.to < 0 || static_cast<size_t>(e.to) >= adj.size()) continue;
        const int64_t d = dist[u] + e.w;
        auto& nd = next[static_cast<size_t>(e.to)];
        if (nd < 0 || d < nd) nd = d;
      }
    }
    const bool changed = next != dist;
    dist = std::move(next);
    if (rounds < 0 && !changed) break;
  }
  return dist;
}

int64_t sssp_parse_dist(std::string_view value) {
  return parse_i64(split1(value).first);
}

// ---------------------------------------------------------------------------
// Connected components (min-label propagation)
// ---------------------------------------------------------------------------

core::StageFns cc_init_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view, std::string_view line,
               mr::KvBuffer& out) -> int32_t {
    const auto tab = line.find('\t');
    if (tab == std::string_view::npos) return 0;
    const std::string_view node = line.substr(0, tab);
    out.add(node, "N|");  // presence marker: isolated nodes still get state
    int32_t n = 1;
    for (const WEdge& e : parse_wcsv(line.substr(tab + 1))) {
      // Undirected-ize: every directed edge contributes both orientations.
      out.add(node, "E|" + std::to_string(e.to));
      out.add(std::to_string(e.to), "E|" + std::string(node));
      n += 2;
    }
    return n;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    const int self = parse_int(key);
    std::vector<int> neigh;
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag != "E") continue;
      const int u = parse_int(rest);
      if (u != self) neigh.push_back(u);  // self-loops are CC-irrelevant
    }
    std::sort(neigh.begin(), neigh.end());
    neigh.erase(std::unique(neigh.begin(), neigh.end()), neigh.end());
    out.add(key, std::string(key) + "|" + to_csv(neigh));
    return 1;
  };
  return fns;
}

core::StageFns cc_iter_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view node, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    auto [label_s, adj_s] = split1(value);
    std::string carrier = "A|";
    carrier += value;
    out.add(node, carrier);
    int32_t n = 1;
    for (int v : parse_csv(adj_s)) {
      out.add(std::to_string(v), "L|" + std::string(label_s));
      ++n;
    }
    return n;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    int64_t best = -1;
    std::string adj;
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "A") {
        auto [label_s, adj_s] = split1(rest);
        adj = std::string(adj_s);
        const int64_t l = parse_i64(label_s);
        if (best < 0 || l < best) best = l;
      } else if (tag == "L") {
        const int64_t l = parse_i64(rest);
        if (best < 0 || l < best) best = l;
      }
    }
    out.add(key, std::to_string(best) + "|" + adj);
    return 1;
  };
  return fns;
}

core::IterSpec cc_spec(int rounds) {
  core::IterSpec spec;
  spec.init = cc_init_stage();
  spec.iter_stages = {cc_iter_stage()};
  spec.iterations = rounds;
  return spec;
}

std::vector<int64_t> cc_reference(const WAdjacency& adj, int rounds) {
  const size_t n = adj.size();
  // Undirected closure, self-loops dropped (mirrors cc_init_stage).
  std::vector<std::vector<int>> und(n);
  for (size_t u = 0; u < n; ++u) {
    for (const WEdge& e : adj[u]) {
      if (e.to < 0 || static_cast<size_t>(e.to) >= n) continue;
      if (static_cast<size_t>(e.to) == u) continue;
      und[u].push_back(e.to);
      und[static_cast<size_t>(e.to)].push_back(static_cast<int>(u));
    }
  }
  std::vector<int64_t> label(n);
  for (size_t u = 0; u < n; ++u) label[u] = static_cast<int64_t>(u);
  for (int r = 0; rounds < 0 || r < rounds; ++r) {
    std::vector<int64_t> next = label;
    for (size_t u = 0; u < n; ++u) {
      for (int v : und[u]) {
        next[u] = std::min(next[u], label[static_cast<size_t>(v)]);
      }
    }
    const bool changed = next != label;
    label = std::move(next);
    if (rounds < 0 && !changed) break;
  }
  return label;
}

// ---------------------------------------------------------------------------
// Triangle counting (per-edge, MR-MPI tri_find style)
// ---------------------------------------------------------------------------

namespace {

std::string edge_key(int a, int b) {
  if (a > b) std::swap(a, b);
  return std::to_string(a) + "," + std::to_string(b);
}

/// Split an edge key "a,b".
std::pair<int, int> parse_edge_key(std::string_view key) {
  const auto comma = key.find(',');
  return {parse_int(key.substr(0, comma)), parse_int(key.substr(comma + 1))};
}

}  // namespace

core::StageFns tri_edge_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view, std::string_view line,
               mr::KvBuffer& out) -> int32_t {
    const auto tab = line.find('\t');
    if (tab == std::string_view::npos) return 0;
    const int u = parse_int(line.substr(0, tab));
    int32_t n = 0;
    for (const WEdge& e : parse_wcsv(line.substr(tab + 1))) {
      if (e.to == u) continue;  // self-loops close no triangle
      out.add(edge_key(u, e.to), "1");
      ++n;
    }
    return n;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view>,
                  mr::KvBuffer& out) -> int32_t {
    out.add(key, "E");  // duplicates collapse to one distinct edge
    return 1;
  };
  return fns;
}

core::StageFns tri_triad_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view key, std::string_view,
               mr::KvBuffer& out) -> int32_t {
    // key = "a,b", one record per distinct undirected edge: post each
    // endpoint to the other's neighbourhood and forward the edge marker.
    const auto [a, b] = parse_edge_key(key);
    out.add(std::to_string(a), "N|" + std::to_string(b));
    out.add(std::to_string(b), "N|" + std::to_string(a));
    out.add(key, "E");
    return 3;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    if (key.find(',') != std::string_view::npos) {
      out.add(key, "E");  // edge marker rides through to the join
      return 1;
    }
    std::vector<int> neigh;
    for (std::string_view v : values) {
      auto [tag, rest] = split1(v);
      if (tag == "N") neigh.push_back(parse_int(rest));
    }
    std::sort(neigh.begin(), neigh.end());
    neigh.erase(std::unique(neigh.begin(), neigh.end()), neigh.end());
    int32_t n = 0;
    for (size_t i = 0; i < neigh.size(); ++i) {
      for (size_t j = i + 1; j < neigh.size(); ++j) {
        // Triad candidate: this node closes x-y iff "x,y" is a real edge.
        out.add(edge_key(neigh[i], neigh[j]), "T");
        ++n;
      }
    }
    return n;
  };
  return fns;
}

core::StageFns tri_join_stage() {
  core::StageFns fns;
  fns.map = [](std::string_view key, std::string_view value,
               mr::KvBuffer& out) -> int32_t {
    out.add(key, value);  // pass-through: regroup markers with candidates
    return 1;
  };
  fns.reduce = [](std::string_view key, std::span<const std::string_view> values,
                  mr::KvBuffer& out) -> int32_t {
    int64_t triads = 0;
    bool is_edge = false;
    for (std::string_view v : values) {
      if (v == "E") is_edge = true;
      else if (v == "T") ++triads;
    }
    if (!is_edge || triads == 0) return 0;
    out.add(key, std::to_string(triads));
    return 1;
  };
  return fns;
}

core::IterSpec tri_spec() {
  core::IterSpec spec;
  spec.init = tri_edge_stage();
  spec.iter_stages = {tri_triad_stage(), tri_join_stage()};
  spec.iterations = 1;
  return spec;
}

std::map<std::string, int64_t> tri_reference(const WAdjacency& adj) {
  const size_t n = adj.size();
  std::vector<std::set<int>> und(n);
  for (size_t u = 0; u < n; ++u) {
    for (const WEdge& e : adj[u]) {
      if (e.to < 0 || static_cast<size_t>(e.to) >= n) continue;
      if (static_cast<size_t>(e.to) == u) continue;
      und[u].insert(e.to);
      und[static_cast<size_t>(e.to)].insert(static_cast<int>(u));
    }
  }
  std::map<std::string, int64_t> counts;
  for (size_t a = 0; a < n; ++a) {
    for (int b : und[a]) {
      if (static_cast<size_t>(b) <= a) continue;
      int64_t common = 0;
      for (int c : und[a]) {
        if (c != b && und[static_cast<size_t>(b)].count(c)) ++common;
      }
      if (common > 0) counts[edge_key(static_cast<int>(a), b)] = common;
    }
  }
  return counts;
}

// ---------------------------------------------------------------------------
// Engine specs for the classic apps (their only driver form)
// ---------------------------------------------------------------------------

core::IterSpec bfs_spec(int source, int iterations) {
  core::IterSpec spec;
  spec.init = bfs_init_stage(source);
  spec.iter_stages = {bfs_iter_stage()};
  spec.iterations = iterations;
  return spec;
}

core::IterSpec pagerank_spec(int iterations) {
  core::IterSpec spec;
  spec.init = pagerank_init_stage();
  spec.iter_stages = {pagerank_contrib_stage(), pagerank_apply_stage()};
  spec.iterations = iterations;
  return spec;
}

}  // namespace ftmr::apps
