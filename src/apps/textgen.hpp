// textgen.hpp — deterministic Zipf-distributed text corpus generator.
//
// Substitutes the paper's 128 GB/250 GB document collections: word
// frequencies follow a Zipf law (real-text-like skew, which is what the
// load balancer and the shuffle care about), scaled down to simulator size.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/status.hpp"
#include "storage/storage.hpp"

namespace ftmr::apps {

struct TextGenOptions {
  int nchunks = 16;
  int lines_per_chunk = 64;
  int words_per_line = 8;
  int vocabulary = 1000;
  double zipf_exponent = 1.0;
  uint64_t seed = 0x7157;
  std::string dir = "input";
};

/// Write the corpus chunks under shared:`dir` and (optionally) accumulate
/// the ground-truth word counts for verification.
///
/// Chunk c is `lines_per_chunk` lines of `words_per_line` space-separated
/// words `word<id>`, id drawn from Zipf(`zipf_exponent`) over
/// [0, `vocabulary`) by an Rng seeded from `seed` and c. Counts are kept by
/// word id while generating; `expected_counts` gets one `+=` per word that
/// occurred, after the last chunk, so a map passed in accumulates (several
/// corpora can share it) and words that never occurred get no entry.
/// Returns kInvalidArgument when `vocabulary` < 1, and the first failed
/// write's status otherwise (counts are then not added).
Status generate_text(storage::StorageSystem& fs, const TextGenOptions& opts,
                     std::map<std::string, int64_t>* expected_counts = nullptr);

}  // namespace ftmr::apps
