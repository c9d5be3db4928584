#include "apps/textgen.hpp"

#include <charconv>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"

namespace ftmr::apps {

Status generate_text(storage::StorageSystem& fs, const TextGenOptions& opts,
                     std::map<std::string, int64_t>* expected_counts) {
  if (opts.vocabulary < 1) {
    return {ErrorCode::kInvalidArgument,
            "text vocabulary must be >= 1, got " + std::to_string(opts.vocabulary)};
  }
  const size_t vocab = static_cast<size_t>(opts.vocabulary);
  const ZipfSampler zipf(vocab, opts.zipf_exponent);
  // Ground truth is counted by word id and turned into words once, at the end.
  std::vector<int64_t> counts(expected_counts ? vocab : 0);
  std::string text;
  text.reserve(static_cast<size_t>(opts.lines_per_chunk) *
               static_cast<size_t>(opts.words_per_line) * 8);
  // "word<id>" is spelled into this buffer after its fixed prefix.
  char word[4 + 20] = {'w', 'o', 'r', 'd'};
  for (int c = 0; c < opts.nchunks; ++c) {
    // Chunk-local RNG: chunks are reproducible independently of each other.
    Rng rng(opts.seed ^ mix64(static_cast<uint64_t>(c)));
    text.clear();
    for (int l = 0; l < opts.lines_per_chunk; ++l) {
      for (int w = 0; w < opts.words_per_line; ++w) {
        const size_t id = zipf.sample(rng);
        if (expected_counts) counts[id]++;
        const auto end = std::to_chars(word + 4, word + sizeof(word), id).ptr;
        if (w) text += ' ';
        text.append(word, end);
      }
      text += '\n';
    }
    char name[32];
    std::snprintf(name, sizeof(name), "chunk_%05d", c);
    if (auto s = fs.write_file(storage::Tier::kShared, 0,
                               opts.dir + "/" + name, as_bytes_view(text));
        !s.ok()) {
      return s;
    }
  }
  for (size_t id = 0; id < counts.size(); ++id) {
    if (counts[id] != 0) (*expected_counts)["word" + std::to_string(id)] += counts[id];
  }
  return Status::Ok();
}

}  // namespace ftmr::apps
