// Workload tests: generators are deterministic; BFS/PageRank/BLAST produce
// reference-correct results through the FT engine, with and without
// injected failures.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "apps/blast.hpp"
#include "apps/graph.hpp"
#include "apps/textgen.hpp"
#include "apps/wordcount.hpp"
#include "common/crc32.hpp"
#include "simmpi/runtime.hpp"

namespace ftmr::apps {
namespace {

using core::FtJob;
using core::FtJobOptions;
using core::FtMode;
using simmpi::Comm;
using simmpi::Runtime;

struct Cluster {
  Cluster() : tmp("ftmr-apps") {
    storage::StorageOptions so;
    so.root = tmp.path();
    fs = std::make_unique<storage::StorageSystem>(so);
  }
  std::map<std::string, std::string> read_output(const std::string& dir = "output") {
    std::vector<std::string> parts;
    EXPECT_TRUE(fs->list_dir(storage::Tier::kShared, 0, dir, parts).ok());
    std::map<std::string, std::string> out;
    for (const auto& name : parts) {
      Bytes data;
      EXPECT_TRUE(
          fs->read_file(storage::Tier::kShared, 0, dir + "/" + name, data).ok());
      ByteReader r(data);
      while (!r.exhausted()) {
        std::string k, v;
        if (!r.get_string(k).ok() || !r.get_string(v).ok()) {
          ADD_FAILURE() << "corrupt output";
          break;
        }
        out[k] = v;
      }
    }
    return out;
  }
  storage::TempDir tmp;
  std::unique_ptr<storage::StorageSystem> fs;
};

/// The graph apps run on the iterative engine; one IterDriver per rank,
/// shared across the driver replays.
FtJob::Driver engine(core::IterSpec spec) {
  return core::IterDriver::as_driver(
      std::make_shared<core::IterDriver>(std::move(spec)));
}

FtJobOptions dr_opts() {
  FtJobOptions o;
  o.mode = FtMode::kDetectResumeWC;
  o.ckpt.records_per_ckpt = 50;
  o.ppn = 2;
  return o;
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

TEST(TextGen, DeterministicAndCounted) {
  Cluster a, b;
  TextGenOptions o;
  o.nchunks = 4;
  o.lines_per_chunk = 10;
  std::map<std::string, int64_t> expected;
  ASSERT_TRUE(generate_text(*a.fs, o, &expected).ok());
  ASSERT_TRUE(generate_text(*b.fs, o).ok());
  for (int c = 0; c < 4; ++c) {
    char name[32];
    std::snprintf(name, sizeof(name), "input/chunk_%05d", c);
    Bytes da, db;
    ASSERT_TRUE(a.fs->read_file(storage::Tier::kShared, 0, name, da).ok());
    ASSERT_TRUE(b.fs->read_file(storage::Tier::kShared, 0, name, db).ok());
    EXPECT_EQ(da, db);
  }
  int64_t total = 0;
  for (auto& [w, c] : expected) total += c;
  EXPECT_EQ(total, 4 * 10 * o.words_per_line);
}

struct CorpusDigest {
  uint32_t crc = 0;
  size_t words = 0;
  int64_t total = 0;
};

/// CRC-32 over the chunks of corpus `o` in order, plus its ground truth's
/// size and total.
CorpusDigest digest_corpus(const TextGenOptions& o) {
  Cluster cl;
  std::map<std::string, int64_t> expected;
  EXPECT_TRUE(generate_text(*cl.fs, o, &expected).ok());
  CorpusDigest d;
  uint32_t state = crc32_init();
  for (int c = 0; c < o.nchunks; ++c) {
    char name[32];
    std::snprintf(name, sizeof(name), "input/chunk_%05d", c);
    Bytes data;
    EXPECT_TRUE(cl.fs->read_file(storage::Tier::kShared, 0, name, data).ok());
    state = crc32_update(state, data);
  }
  d.crc = crc32_final(state);
  d.words = expected.size();
  for (auto& [w, n] : expected) d.total += n;
  return d;
}

// The corpus and its ground truth are pinned bit for bit: the benchmark's
// golden runs and every recorded virtual time depend on these exact bytes.
TEST(TextGen, CorpusAndCountsArePinned) {
  const CorpusDigest def = digest_corpus(TextGenOptions{});
  EXPECT_EQ(def.crc, 2421961919u);
  EXPECT_EQ(def.words, 870u);
  EXPECT_EQ(def.total, 16 * 64 * 8);

  TextGenOptions big;
  big.nchunks = 64;
  big.lines_per_chunk = 512;
  big.vocabulary = 5000;
  const CorpusDigest d = digest_corpus(big);
  EXPECT_EQ(d.crc, 1512897695u);
  EXPECT_EQ(d.words, 4999u);
  EXPECT_EQ(d.total, 64 * 512 * 8);
}

TEST(TextGen, VocabularyBelowOneIsInvalid) {
  for (int vocabulary : {0, -3}) {
    Cluster cl;
    TextGenOptions o;
    o.vocabulary = vocabulary;
    std::map<std::string, int64_t> expected;
    EXPECT_EQ(generate_text(*cl.fs, o, &expected).code(),
              ErrorCode::kInvalidArgument);
    EXPECT_TRUE(expected.empty());
    std::vector<std::string> names;
    (void)cl.fs->list_dir(storage::Tier::kShared, 0, o.dir, names);
    EXPECT_TRUE(names.empty());
  }
}

TEST(GraphGen, EveryNodeHasOutEdges) {
  Cluster cl;
  GraphGenOptions o;
  o.nodes = 200;
  std::vector<std::vector<int>> adj;
  ASSERT_TRUE(generate_graph(*cl.fs, o, &adj).ok());
  ASSERT_EQ(adj.size(), 200u);
  for (const auto& nbrs : adj) {
    EXPECT_FALSE(nbrs.empty());
    for (int v : nbrs) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 200);
    }
  }
}

TEST(BlastGen, DatabaseAndKernel) {
  BlastGenOptions o;
  auto db = make_database(o);
  ASSERT_EQ(db.size(), static_cast<size_t>(o.db_sequences));
  EXPECT_EQ(db[0].size(), static_cast<size_t>(o.db_seq_len));
  // Identity alignment scores 2*len; disjoint strings score 0.
  EXPECT_EQ(smith_waterman("ACDEF", "ACDEF"), 10);
  EXPECT_EQ(smith_waterman("AAAA", "CCCC"), 0);
  // Local alignment finds embedded fragments.
  EXPECT_GE(smith_waterman("WWWACDEFGWWW", "ACDEFG"), 10);
}

// ---------------------------------------------------------------------------
// BFS
// ---------------------------------------------------------------------------

TEST(Bfs, MatchesReferenceFailureFree) {
  Cluster cl;
  GraphGenOptions go;
  go.nodes = 120;
  go.nchunks = 8;
  std::vector<std::vector<int>> adj;
  ASSERT_TRUE(generate_graph(*cl.fs, go, &adj).ok());
  const std::vector<int> ref = bfs_reference(adj, 0);
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, cl.fs.get(), dr_opts());
    ASSERT_TRUE(job.run(engine(bfs_spec(0, 8))).ok());
  });
  auto out = cl.read_output();
  ASSERT_EQ(out.size(), 120u);
  for (auto& [node, value] : out) {
    EXPECT_EQ(bfs_parse_dist(value), ref[std::stoul(node)]) << "node " << node;
  }
}

TEST(Bfs, MatchesReferenceUnderFailure) {
  Cluster cl;
  GraphGenOptions go;
  go.nodes = 120;
  go.nchunks = 8;
  std::vector<std::vector<int>> adj;
  ASSERT_TRUE(generate_graph(*cl.fs, go, &adj).ok());
  const std::vector<int> ref = bfs_reference(adj, 0);
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 3e-2, -1});  // mid-iterations
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, cl.fs.get(), dr_opts());
    Status s = job.run(engine(bfs_spec(0, 8)));
    if (c.global_rank() != 1) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  auto out = cl.read_output();
  ASSERT_EQ(out.size(), 120u);
  for (auto& [node, value] : out) {
    EXPECT_EQ(bfs_parse_dist(value), ref[std::stoul(node)]) << "node " << node;
  }
}

// ---------------------------------------------------------------------------
// PageRank
// ---------------------------------------------------------------------------

TEST(PageRank, MatchesReferenceFailureFree) {
  Cluster cl;
  GraphGenOptions go;
  go.nodes = 100;
  go.nchunks = 8;
  std::vector<std::vector<int>> adj;
  ASSERT_TRUE(generate_graph(*cl.fs, go, &adj).ok());
  const std::vector<double> ref = pagerank_reference(adj, 4);
  Runtime::run(4, [&](Comm& c) {
    FtJob job(c, cl.fs.get(), dr_opts());
    ASSERT_TRUE(job.run(engine(pagerank_spec(4))).ok());
  });
  auto out = cl.read_output();
  ASSERT_EQ(out.size(), 100u);
  for (auto& [node, value] : out) {
    EXPECT_NEAR(pagerank_parse_rank(value), ref[std::stoul(node)], 1e-9)
        << "node " << node;
  }
}

TEST(PageRank, MatchesReferenceUnderContinuousFailures) {
  Cluster cl;
  GraphGenOptions go;
  go.nodes = 100;
  go.nchunks = 8;
  std::vector<std::vector<int>> adj;
  ASSERT_TRUE(generate_graph(*cl.fs, go, &adj).ok());
  const std::vector<double> ref = pagerank_reference(adj, 4);
  simmpi::JobOptions jo;
  jo.kills.push_back({1, 2e-2, -1});
  jo.kills.push_back({4, 6e-2, -1});
  Runtime::run(6, [&](Comm& c) {
    FtJob job(c, cl.fs.get(), dr_opts());
    Status s = job.run(engine(pagerank_spec(4)));
    if (c.global_rank() != 1 && c.global_rank() != 4) {
      EXPECT_TRUE(s.ok()) << s.to_string();
    }
  }, jo);
  auto out = cl.read_output();
  ASSERT_EQ(out.size(), 100u);
  for (auto& [node, value] : out) {
    EXPECT_NEAR(pagerank_parse_rank(value), ref[std::stoul(node)], 1e-9)
        << "node " << node;
  }
}

// ---------------------------------------------------------------------------
// BLAST
// ---------------------------------------------------------------------------

TEST(Blast, HitsSortedByEvalueAndDeterministic) {
  Cluster cl;
  BlastGenOptions bo;
  bo.nqueries = 60;
  bo.nchunks = 6;
  ASSERT_TRUE(generate_queries(*cl.fs, bo).ok());
  FtJobOptions opts = dr_opts();
  Runtime::run(3, [&](Comm& c) {
    FtJob job(c, cl.fs.get(), opts);
    Status s = job.run([&](FtJob& j) {
      if (auto st = j.run_stage(blast_stage(bo, 1e-4), false, nullptr); !st.ok()) {
        return st;
      }
      return j.write_output();
    });
    ASSERT_TRUE(s.ok()) << s.to_string();
  });
  auto out = cl.read_output();
  EXPECT_GT(out.size(), 10u);  // most queries hit something
  for (auto& [qid, joined] : out) {
    // Hits must be sorted ascending by E-value.
    double last = -1.0;
    size_t pos = 0;
    while (pos < joined.size()) {
      const size_t end = joined.find(';', pos);
      if (end == std::string::npos) break;
      const Hit h = parse_hit(std::string_view(joined).substr(pos, end - pos));
      EXPECT_GE(h.evalue, last) << "unsorted hits for query " << qid;
      last = h.evalue;
      pos = end + 1;
    }
  }
}

TEST(Blast, FailureDoesNotChangeHits) {
  BlastGenOptions bo;
  bo.nqueries = 60;
  bo.nchunks = 6;
  Cluster ok_cl, fail_cl;
  ASSERT_TRUE(generate_queries(*ok_cl.fs, bo).ok());
  ASSERT_TRUE(generate_queries(*fail_cl.fs, bo).ok());
  auto run = [&](Cluster& cl, simmpi::JobOptions jo) {
    Runtime::run(3, [&](Comm& c) {
      FtJob job(c, cl.fs.get(), dr_opts());
      (void)job.run([&](FtJob& j) {
        if (auto st = j.run_stage(blast_stage(bo, 1e-3), false, nullptr); !st.ok()) {
          return st;
        }
        return j.write_output();
      });
    }, jo);
  };
  run(ok_cl, {});
  simmpi::JobOptions jo;
  jo.kills.push_back({2, 2e-2, -1});
  run(fail_cl, jo);
  EXPECT_EQ(ok_cl.read_output(), fail_cl.read_output());
}

}  // namespace
}  // namespace ftmr::apps
