// Extension — arena KV-path microbenchmark. The flat arena layout in
// mr/kv.hpp replaced the seed's one-std::string-pair-per-record storage;
// this bench retains that original design as an in-binary reference
// implementation and races the two through the same emit → partition →
// exchange → convert pipeline on three workloads (many small records, few
// large records, skewed keys). It verifies byte-accounting and grouped-
// output equivalence, requires the flat path to be >= 2x faster on the
// small-record workload (the ISSUE acceptance bar), and writes the
// machine-readable series to BENCH_kvpath.json for the CI artifact.
// Every timed run happens in a fresh process (the bench re-executes
// itself per run) and the two paths alternate, so a ratio does not depend
// on what ran before it.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "bench/common.hpp"
#include "common/bytes.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "mr/convert.hpp"
#include "mr/kv.hpp"
#include "mr/shuffle.hpp"

using namespace ftmr;
using namespace ftmr::bench;

namespace {

// ---------------------------------------------------------------------------
// Legacy reference implementation — the seed's record storage, verbatim in
// spirit: one heap-allocated string pair per record, per-pair framing on
// serialize, per-pair parsing on deserialize, per-pair copies everywhere.
// ---------------------------------------------------------------------------

struct LegacyKvBuffer {
  struct Pair {
    std::string key;
    std::string value;
  };
  static constexpr size_t kPairOverhead = 8;  // two u32 length prefixes

  std::vector<Pair> pairs;
  size_t bytes = 0;

  void add(std::string key, std::string value) {
    bytes += key.size() + value.size() + kPairOverhead;
    pairs.push_back({std::move(key), std::move(value)});
  }
  [[nodiscard]] Bytes serialize() const {
    ByteWriter w;
    w.put<uint64_t>(pairs.size());
    for (const Pair& p : pairs) {
      w.put_string(p.key);
      w.put_string(p.value);
    }
    return std::move(w).take();
  }
  static bool deserialize(const Bytes& data, LegacyKvBuffer& out) {
    ByteReader r(data);
    uint64_t n = 0;
    if (!r.get(n).ok()) return false;
    out.pairs.reserve(out.pairs.size() + n);
    for (uint64_t i = 0; i < n; ++i) {
      std::string k, v;
      if (!r.get_string(k).ok() || !r.get_string(v).ok()) return false;
      out.add(std::move(k), std::move(v));
    }
    return true;
  }
};

struct LegacyKmvBuffer {
  struct Entry {
    std::string key;
    std::vector<std::string> values;
  };
  std::vector<Entry> entries;
};

std::vector<LegacyKvBuffer> legacy_partition(const LegacyKvBuffer& in,
                                             int nparts) {
  std::vector<LegacyKvBuffer> parts(static_cast<size_t>(nparts));
  for (const auto& p : in.pairs) {
    parts[static_cast<size_t>(partition_of_key(p.key, nparts))].add(p.key,
                                                                    p.value);
  }
  return parts;
}

/// Group by key preserving first-seen value order — the semantics both
/// convert variants implement.
LegacyKmvBuffer legacy_convert(const LegacyKvBuffer& in) {
  std::map<std::string, std::vector<std::string>> groups;
  for (const auto& p : in.pairs) groups[p.key].push_back(p.value);
  LegacyKmvBuffer out;
  out.entries.reserve(groups.size());
  for (auto& [k, vs] : groups) out.entries.push_back({k, std::move(vs)});
  return out;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<std::pair<std::string, std::string>> records;
  size_t payload_bytes = 0;
};

Workload make_workload(const std::string& name, size_t nrecords, size_t nkeys,
                       size_t value_bytes, double zipf_s, uint64_t seed) {
  Workload w;
  w.name = name;
  w.records.reserve(nrecords);
  Rng rng(seed);
  ZipfSampler zipf(nkeys, zipf_s > 0 ? zipf_s : 1.0);
  for (size_t i = 0; i < nrecords; ++i) {
    const uint64_t kid = zipf_s > 0 ? zipf.sample(rng) : rng.next_below(nkeys);
    std::string key = "key" + std::to_string(kid);
    std::string value(value_bytes, static_cast<char>('a' + (i % 26)));
    w.payload_bytes += key.size() + value.size();
    w.records.emplace_back(std::move(key), std::move(value));
  }
  return w;
}

constexpr size_t kWorkloads = 3;

Workload workload_at(size_t i) {
  switch (i) {
    case 0:
      // The acceptance-bar workload: shuffle-dominated, tiny records.
      return make_workload("small_records", 200000, 20000, 6, 0.0, 1001);
    case 1:
      // Few large values: both sides memcpy-bound. Jumbo-aware arena
      // growth (8x size class above kJumboPayloadBytes) keeps the flat
      // path at or ahead of legacy's exact-size string allocations.
      return make_workload("large_records", 2000, 500, 32768, 0.0, 1002);
    default:
      // Zipf keys: stresses grouping (long chains, few distinct keys).
      return make_workload("skewed_keys", 150000, 5000, 12, 1.1, 1003);
  }
}

// ---------------------------------------------------------------------------
// The two pipelines. Both run the same logical job on one simulated rank:
// emit all records, partition by key hash, "exchange" every partition
// through its wire encoding (what MPI_Alltoallv would carry), then group
// into KMV. Returns grouped (key -> value count) for equivalence checking.
// ---------------------------------------------------------------------------

constexpr int kParts = 8;
constexpr int kReps = 5;  // timed runs per path and workload

struct RunResult {
  double seconds = 0.0;
  size_t kv_bytes = 0;      // byte accounting after emit
  size_t groups = 0;        // distinct keys after convert
  uint64_t check_hash = 0;  // order-insensitive digest of grouped output
};

uint64_t digest(std::string_view key, std::string_view value) {
  return fnv1a(key) * 1315423911ULL ^ fnv1a(value);
}

RunResult run_legacy(const Workload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  LegacyKvBuffer kv;
  for (const auto& [k, v] : w.records) kv.add(k, v);
  const size_t kv_bytes = kv.bytes;

  std::vector<LegacyKvBuffer> parts = legacy_partition(kv, kParts);
  LegacyKvBuffer received;
  for (auto& part : parts) {
    const Bytes wire = part.serialize();
    if (!LegacyKvBuffer::deserialize(wire, received)) return {};
  }
  const LegacyKmvBuffer kmv = legacy_convert(received);

  RunResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
  r.kv_bytes = kv_bytes;
  r.groups = kmv.entries.size();
  for (const auto& e : kmv.entries) {
    for (const auto& v : e.values) r.check_hash += digest(e.key, v);
  }
  return r;
}

RunResult run_flat(const Workload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  mr::KvBuffer kv;
  for (const auto& [k, v] : w.records) kv.add(k, v);
  const size_t kv_bytes = kv.bytes();

  std::vector<mr::KvBuffer> parts = mr::partition_by_key(kv, kParts);
  // An in-process stand-in for the exchange (no framing, no alltoall):
  // every wire image is adopted zero-copy, the totals reserve the merge
  // target once.
  mr::KvBuffer received;
  std::vector<mr::KvBuffer> got(parts.size());
  size_t total_pairs = 0;
  size_t total_bytes = 0;
  for (size_t j = 0; j < parts.size(); ++j) {
    Bytes wire = std::move(parts[j]).take_wire();
    if (!got[j].adopt(std::move(wire)).ok()) return {};
    total_pairs += got[j].size();
    total_bytes += got[j].bytes();
  }
  for (size_t j = 0; j < got.size(); ++j) {
    received.absorb(std::move(got[j]));
    if (j == 0) {
      received.reserve_records(total_pairs - received.size(),
                               total_bytes - received.bytes());
    }
  }
  mr::ConvertStats st;
  const mr::KmvBuffer kmv = mr::convert_2pass(received, &st);

  RunResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                  .count();
  r.kv_bytes = kv_bytes;
  r.groups = kmv.size();
  std::vector<std::string_view> scratch;
  for (size_t i = 0; i < kmv.size(); ++i) {
    kmv.values_of(i, scratch);
    for (std::string_view v : scratch) r.check_hash += digest(kmv.entry(i).key(), v);
  }
  return r;
}

struct Series {
  std::string name;
  size_t records;
  size_t payload_bytes;
  RunResult legacy;
  RunResult flat;
  [[nodiscard]] double speedup() const {
    return flat.seconds > 0 ? legacy.seconds / flat.seconds : 0.0;
  }
  [[nodiscard]] double mbps(const RunResult& r) const {
    return r.seconds > 0
               ? static_cast<double>(payload_bytes) / r.seconds / (1 << 20)
               : 0.0;
  }
};

/// Child mode (`--run <workload> <legacy|flat>`): build one workload, time
/// one run of one path, and print the result on stdout.
int run_child(size_t wi, const std::string& path) {
  const Workload w = workload_at(wi);
  const RunResult r = path == "flat" ? run_flat(w) : run_legacy(w);
  std::printf("%s %.9f %zu %zu %llu %zu %zu\n", w.name.c_str(), r.seconds,
              r.kv_bytes, r.groups,
              static_cast<unsigned long long>(r.check_hash), w.records.size(),
              w.payload_bytes);
  return r.seconds > 0 ? 0 : 1;
}

/// Time one run of one path in a fresh process, whose heap holds only the
/// workload it just built, whatever ran before it. In one long-lived process
/// the legacy path's many small strings run warm or cold depending on what
/// earlier runs left in the heap (and on the mmap threshold they moved),
/// while the flat path's large arenas are always fresh mmaps, so the ratio
/// would measure the allocator's history, not the two designs.
bool run_fresh(const std::string& self, size_t wi, const char* path,
               RunResult& r, Series& s) {
  const std::string cmd =
      "'" + self + "' --run " + std::to_string(wi) + " " + path;
  std::FILE* p = popen(cmd.c_str(), "r");
  if (!p) return false;
  char name[64] = {};
  unsigned long long hash = 0;
  const int n = std::fscanf(p, "%63s %lf %zu %zu %llu %zu %zu", name,
                            &r.seconds, &r.kv_bytes, &r.groups, &hash,
                            &s.records, &s.payload_bytes);
  s.name = name;
  r.check_hash = hash;
  return pclose(p) == 0 && n == 7;
}

/// Time both paths on one workload, best of `reps` runs each (minimum is
/// the standard noise-robust estimator for microbenchmarks; the non-timing
/// fields are the same in every run). The paths alternate, so both see
/// the same host load.
bool race(const std::string& self, int reps, size_t wi, Series& s) {
  for (int i = 0; i < reps; ++i) {
    RunResult legacy, flat;
    if (!run_fresh(self, wi, "legacy", legacy, s) ||
        !run_fresh(self, wi, "flat", flat, s)) {
      return false;
    }
    if (i == 0 || legacy.seconds < s.legacy.seconds) s.legacy = legacy;
    if (i == 0 || flat.seconds < s.flat.seconds) s.flat = flat;
  }
  return true;
}

void write_json(const std::vector<Series>& series, bool all_pass) {
  std::FILE* f = std::fopen("BENCH_kvpath.json", "w");
  if (!f) return;
  std::fprintf(f, "{\n  \"bench\": \"ext04_kvpath_microbench\",\n");
  std::fprintf(f, "  \"pipeline\": \"emit+partition+exchange+convert\",\n");
  std::fprintf(f, "  \"nparts\": %d,\n  \"workloads\": [\n", kParts);
  for (size_t i = 0; i < series.size(); ++i) {
    const Series& s = series[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"records\": %zu, "
                 "\"payload_bytes\": %zu, \"groups\": %zu,\n"
                 "     \"legacy_ms\": %.3f, \"flat_ms\": %.3f, "
                 "\"legacy_mib_s\": %.1f, \"flat_mib_s\": %.1f, "
                 "\"speedup\": %.2f}%s\n",
                 s.name.c_str(), s.records, s.payload_bytes, s.flat.groups,
                 s.legacy.seconds * 1e3, s.flat.seconds * 1e3, s.mbps(s.legacy),
                 s.mbps(s.flat), s.speedup(),
                 i + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"all_checks_passed\": %s\n}\n",
               all_pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--run") == 0) {
    return run_child(std::stoul(argv[2]), argv[3]);
  }
  Report rep("ext04: arena KV path vs string-pair reference (microbench)",
             "flat wire-format arenas make emit/shuffle/convert memcpy-bound; "
             "the string-pair design pays two allocations + a copy per record "
             "per stage");

  char self[4096] = {};
  const ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  std::vector<Series> series;
  bool spawned = len > 0;
  for (size_t wi = 0; wi < kWorkloads && spawned; ++wi) {
    Series s;
    spawned = race(self, kReps, wi, s);
    series.push_back(s);
  }
  rep.check("every timed run completed in its own process", spawned);
  if (!spawned) return rep.finish();

  rep.section("emit+partition+exchange+convert, best of " +
              std::to_string(kReps));
  rep.row("%-14s %10s %12s %12s %12s %8s", "workload", "records", "legacy ms",
          "flat ms", "flat MiB/s", "speedup");
  for (const Series& s : series) {
    rep.row("%-14s %10zu %12.2f %12.2f %12.1f %7.2fx", s.name.c_str(),
            s.records, s.legacy.seconds * 1e3, s.flat.seconds * 1e3,
            s.mbps(s.flat), s.speedup());
  }

  rep.section("shape checks");
  bool equivalent = true;
  for (const Series& s : series) {
    const bool same = s.legacy.groups == s.flat.groups &&
                      s.legacy.check_hash == s.flat.check_hash &&
                      s.legacy.kv_bytes == s.flat.kv_bytes;
    equivalent = equivalent && same;
    rep.check("equivalent output + byte accounting: " + s.name, same);
  }
  rep.check("small-record pipeline speedup >= 2x",
            series[0].speedup() >= 2.0,
            "measured " + std::to_string(series[0].speedup()) + "x");
  rep.check("large-record pipeline at least parity (>= 1.0x)",
            series[1].speedup() >= 1.0,
            "measured " + std::to_string(series[1].speedup()) + "x");
  rep.check("skewed-key pipeline faster", series[2].speedup() >= 1.0,
            "measured " + std::to_string(series[2].speedup()) + "x");

  const int failed = rep.finish();
  write_json(series, failed == 0);
  return failed;
}
