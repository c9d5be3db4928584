// convert.hpp — KV→KMV conversion algorithms.
//
// The conversion groups a rank's post-shuffle key-value pairs by key. It is
// the dominant disk-bound step of the shuffle stage because the
// intermediate data generally exceeds memory and lives on local disk.
//
// Two algorithms are provided:
//   * convert_4pass — the original MR-MPI algorithm, which "reads and
//     writes the intermediate data four times" (paper Sec. 5.2): a key-
//     census pass, a hash-partitioning pass, a within-partition grouping
//     pass, and a final KMV emission pass.
//   * convert_2pass — FT-MRMPI's refinement (also in src/mr so the two can
//     be compared head-to-head): a log-structured first pass appends values
//     into fixed-size per-key segment chains, and a second pass merges each
//     key's segment chain into one contiguous KMV entry. Besides halving
//     the I/O it makes progress tracking trivial (one committed segment
//     list per pass), which is what the FT layer needs.
//
// Both return identical KMV content (keys in first-appearance order of the
// grouping structure; values in arrival order) — a property test asserts
// equivalence. The ConvertStats expose modeled data movement: Fig. 16 comes
// from charging these volumes to the local-disk tier.
#pragma once

#include <cstdint>

#include "mr/kv.hpp"
#include "mr/spill.hpp"

namespace ftmr::mr {

/// Data-movement accounting of one conversion. `bytes_moved` counts every
/// byte read from or written to the intermediate store across all passes —
/// the quantity that turns into disk time.
struct ConvertStats {
  size_t bytes_moved = 0;
  int passes = 0;
  size_t segments = 0;       // 2-pass only: log segments allocated
  size_t distinct_keys = 0;
  size_t buckets = 0;        // spill variant: hash buckets (sorted runs)
  /// Modeled local-disk seconds the spill variant spent on page I/O for
  /// the input and bucket scratch buffers (the caller charges it to its
  /// virtual clock alongside the out-buffer's take_io_seconds()).
  double spill_io_seconds = 0.0;
};

/// Original MR-MPI 4-pass conversion.
KmvBuffer convert_4pass(const KvBuffer& in, ConvertStats* stats = nullptr);

/// FT-MRMPI two-pass log-structured conversion (paper Sec. 5.2).
/// `segment_bytes` is the fixed size of a log segment (values of one key
/// spill across a chain of segments; pass 2 merges each chain).
KmvBuffer convert_2pass(const KvBuffer& in, ConvertStats* stats = nullptr,
                        size_t segment_bytes = 4096);

/// Spill-aware conversion. `in` is consumed page by page into hash
/// buckets sized to roughly a quarter of the budget (a decorrelated second
/// hash, so per-partition inputs — whose keys already share one fnv1a
/// residue — still split evenly); each bucket then converts in-core
/// (convert_2pass, or convert_4pass when `two_pass` is false) and its
/// key-sorted run lands in `out`. Bucket key sets are disjoint, so
/// out.for_each_entry's k-way merge streams entries in exactly the global
/// key order the in-core algorithm produces on the undivided data — same
/// entries, same value order. Peak residency is O(memory_budget), never
/// O(dataset); with `cfg` disabled (or data under a quarter budget) the
/// whole input converts as a single in-core run.
Status convert_spill(SpillableKvBuffer& in, SpillableKmvBuffer& out,
                     const SpillConfig& cfg, ConvertStats* stats = nullptr,
                     size_t segment_bytes = 4096, bool two_pass = true);

/// convert_spill with the two-pass algorithm.
inline Status convert_2pass_spill(SpillableKvBuffer& in, SpillableKmvBuffer& out,
                                  const SpillConfig& cfg,
                                  ConvertStats* stats = nullptr,
                                  size_t segment_bytes = 4096) {
  return convert_spill(in, out, cfg, stats, segment_bytes, /*two_pass=*/true);
}

}  // namespace ftmr::mr
