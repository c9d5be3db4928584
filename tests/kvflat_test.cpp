// kvflat_test.cpp — flat arena KV/KMV buffers: equivalence against a plain
// reference model on randomized workloads (empty keys/values, values larger
// than a convert segment, >64KiB records) and adversarial deserialize inputs
// (every corruption must come back as kCorrupt/kOutOfRange, never UB).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "mr/convert.hpp"
#include "mr/kv.hpp"
#include "tests/test_seed.hpp"

namespace {

using ftmr::Bytes;
using ftmr::ErrorCode;
using ftmr::Rng;
using ftmr::Status;
using ftmr::tests::test_seed;
using ftmr::mr::KmvBuffer;
using ftmr::mr::KvBuffer;
using ftmr::mr::KvView;

using RefPairs = std::vector<std::pair<std::string, std::string>>;

std::string random_blob(Rng& rng, size_t len) {
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>('a' + rng.next_below(26));
  return s;
}

/// Randomized workload that deliberately hits the edge cases the flat
/// layout must survive: empty keys, empty values, values larger than a
/// convert segment (4 KiB default), and records beyond 64 KiB.
RefPairs random_workload(uint64_t seed, size_t n) {
  Rng rng(seed);
  RefPairs ref;
  ref.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t klen, vlen;
    switch (rng.next_below(8)) {
      case 0: klen = 0; vlen = rng.next_below(12); break;         // empty key
      case 1: klen = rng.next_below(12); vlen = 0; break;         // empty value
      case 2: klen = 3; vlen = 5000 + rng.next_below(3000); break;  // > segment
      case 3: klen = 8; vlen = 70000 + rng.next_below(9000); break; // > 64 KiB
      default: klen = 1 + rng.next_below(10); vlen = rng.next_below(24); break;
    }
    ref.emplace_back(random_blob(rng, klen), random_blob(rng, vlen));
  }
  return ref;
}

KvBuffer build(const RefPairs& ref) {
  KvBuffer kv;
  for (const auto& [k, v] : ref) kv.add(k, v);
  return kv;
}

void expect_matches(const KvBuffer& kv, const RefPairs& ref) {
  ASSERT_EQ(kv.size(), ref.size());
  size_t bytes = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    const KvView p = kv.view(i);
    EXPECT_EQ(p.key, ref[i].first) << "pair " << i;
    EXPECT_EQ(p.value, ref[i].second) << "pair " << i;
    bytes += ref[i].first.size() + ref[i].second.size() + KvBuffer::kPairOverhead;
  }
  EXPECT_EQ(kv.bytes(), bytes);
}

TEST(KvFlat, RandomizedEquivalence) {
  for (uint64_t salt : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const RefPairs ref = random_workload(test_seed(salt), 200);
    const KvBuffer kv = build(ref);
    expect_matches(kv, ref);

    // Round trip through the owned-copy path...
    KvBuffer back;
    ASSERT_TRUE(KvBuffer::deserialize(kv.serialize(), back).ok());
    EXPECT_EQ(back, kv);
    expect_matches(back, ref);

    // ...and the zero-copy adopt path (what shuffle receives use).
    KvBuffer adopted;
    KvBuffer moved = build(ref);
    ASSERT_TRUE(adopted.adopt(std::move(moved).take_wire()).ok());
    EXPECT_EQ(adopted, kv);
    expect_matches(adopted, ref);
  }
}

TEST(KvFlat, MergeAbsorbAppendEquivalence) {
  const RefPairs a = random_workload(test_seed(0x10), 120);
  const RefPairs b = random_workload(test_seed(0x11), 80);

  RefPairs both = a;
  both.insert(both.end(), b.begin(), b.end());

  KvBuffer merged = build(a);
  merged.merge_from(build(b));
  expect_matches(merged, both);

  KvBuffer absorbed = build(a);
  KvBuffer src = build(b);
  absorbed.absorb(std::move(src));
  expect_matches(absorbed, both);
  EXPECT_TRUE(src.empty());

  // absorb into an empty buffer is an arena move, not a copy.
  KvBuffer into_empty;
  KvBuffer src2 = build(both);
  into_empty.absorb(std::move(src2));
  expect_matches(into_empty, both);

  // Record-wise forwarding (the shuffle/partition hot path) reproduces the
  // source byte-for-byte.
  KvBuffer fwd;
  const KvBuffer whole = build(both);
  for (size_t i = 0; i < whole.size(); ++i) fwd.append_record_from(whole, i);
  EXPECT_EQ(fwd, whole);
}

TEST(KvFlat, EmptyBufferWireIsCanonical) {
  const KvBuffer empty;
  EXPECT_EQ(empty.bytes(), 0u);
  const auto w = empty.wire_view();
  ASSERT_EQ(w.size(), ftmr::mr::kCountHeaderBytes);
  for (std::byte b : w) EXPECT_EQ(b, std::byte{0});

  // A count==0 wire image deserializes to a buffer equal to a fresh one.
  KvBuffer back;
  ASSERT_TRUE(KvBuffer::deserialize(empty.serialize(), back).ok());
  EXPECT_EQ(back, empty);
  KvBuffer adopted;
  KvBuffer moved;
  ASSERT_TRUE(adopted.adopt(std::move(moved).take_wire()).ok());
  EXPECT_EQ(adopted, empty);
}

TEST(KvFlat, ConvertGroupingMatchesReferenceModel) {
  Rng rng(test_seed(0x42));
  RefPairs ref;
  for (size_t i = 0; i < 400; ++i) {
    // Skewed keys so chains span several segments; value sizes straddle the
    // segment size now and then.
    std::string key = "k" + std::to_string(rng.next_below(17));
    size_t vlen = rng.next_below(10) == 0 ? 5000 : rng.next_below(40);
    ref.emplace_back(std::move(key), random_blob(rng, vlen));
  }
  const KvBuffer kv = build(ref);

  std::map<std::string, std::vector<std::string>> model;
  for (const auto& [k, v] : ref) model[k].push_back(v);

  for (bool two_pass : {false, true}) {
    ftmr::mr::ConvertStats st;
    KmvBuffer kmv = two_pass ? ftmr::mr::convert_2pass(kv, &st, 4096)
                             : ftmr::mr::convert_4pass(kv, &st);
    ASSERT_EQ(kmv.size(), model.size());
    size_t i = 0;
    std::vector<std::string_view> scratch;
    for (const auto& [key, values] : model) {  // kmv is sorted by key
      EXPECT_EQ(kmv.entry(i).key(), key);
      kmv.values_of(i, scratch);
      ASSERT_EQ(scratch.size(), values.size()) << "key " << key;
      // Both converts preserve first-seen value order within a key.
      for (size_t v = 0; v < values.size(); ++v) {
        EXPECT_EQ(scratch[v], values[v]) << "key " << key << " value " << v;
      }
      ++i;
    }
  }
}

TEST(KmvFlat, StreamingBuilderAndSort) {
  KmvBuffer kmv;
  kmv.begin_entry("zeta");
  kmv.append_value("1");
  kmv.append_value("");
  kmv.begin_entry("");  // empty key is a legal group
  kmv.append_value("solo");
  kmv.begin_entry("alpha");
  const std::string big(70000, 'x');  // value > 64 KiB
  kmv.append_value(big);

  kmv.sort_by_key();
  ASSERT_EQ(kmv.size(), 3u);
  EXPECT_EQ(kmv.entry(0).key(), "");
  EXPECT_EQ(kmv.entry(1).key(), "alpha");
  EXPECT_EQ(kmv.entry(2).key(), "zeta");
  EXPECT_EQ(kmv.entry(0).value(0), "solo");
  EXPECT_EQ(kmv.entry(1).value(0), big);
  ASSERT_EQ(kmv.entry(2).size(), 2u);
  EXPECT_EQ(kmv.entry(2).value(0), "1");
  EXPECT_EQ(kmv.entry(2).value(1), "");

  const size_t expected = ("zeta" + big + "1solo").size()  // payload
                          + 3 * KmvBuffer::kKeyOverhead + 5  // "alpha" key
                          + 4 * KmvBuffer::kValueOverhead;
  EXPECT_EQ(kmv.bytes(), expected);
}

// ---------------------------------------------------------------------------
// Compact 32-bit index: offsets, entry and value references stay exact for
// large values, across merges, and through a many-entry KMV sort. (The 16 B
// EntryMeta / 8 B ValueRef sizes are static_asserts in mr/kv.hpp.)
// ---------------------------------------------------------------------------

TEST(KvFlat, JumboValuesRoundTripThroughWire) {
  // Values at, just under and far over the 2 KiB jumbo threshold, between
  // small records, so the index spans both arena growth classes.
  RefPairs ref;
  for (size_t vlen : {KvBuffer::kJumboPayloadBytes - 1, KvBuffer::kJumboPayloadBytes,
                      size_t{5000}, size_t{3}, size_t{200000}, size_t{0}}) {
    ref.emplace_back("k" + std::to_string(vlen), std::string(vlen, 'j'));
    ref.emplace_back("s", "v");
  }
  const KvBuffer kv = build(ref);
  expect_matches(kv, ref);

  KvBuffer copied;
  ASSERT_TRUE(KvBuffer::deserialize(kv.wire_view(), copied).ok());
  expect_matches(copied, ref);
  KvBuffer adopted;
  ASSERT_TRUE(adopted.adopt(kv.serialize()).ok());
  expect_matches(adopted, ref);
  EXPECT_EQ(adopted, kv);
}

TEST(KvFlat, MergeRebasesOffsetsAcrossBuffers) {
  // Several sources of different sizes (one empty, one with a jumbo value)
  // merged onto a non-empty base: every merged offset must be rebased from
  // its source arena into the destination's.
  RefPairs all = random_workload(test_seed(0x20), 40);
  KvBuffer merged = build(all);
  for (uint64_t part = 0; part < 6; ++part) {
    RefPairs piece = part == 2 ? RefPairs{}
                               : random_workload(test_seed(0x21 + part), 5 + 9 * part);
    if (part == 4) piece.emplace_back("jumbo", std::string(9000, 'z'));
    merged.merge_from(build(piece));
    all.insert(all.end(), piece.begin(), piece.end());
    expect_matches(merged, all);
  }
  // The merged index forwards record by record into a byte-identical copy,
  // and survives a sealing shrink untouched.
  KvBuffer fwd;
  for (size_t i = 0; i < merged.size(); ++i) fwd.append_record_from(merged, i);
  EXPECT_EQ(fwd, merged);
  merged.shrink_to_fit();
  expect_matches(merged, all);
}

TEST(KmvFlat, SortAndValuesOfOverManyEntries) {
  // Thousands of entries built in scrambled key order with varying value
  // counts (zero, jumbo and empty values included); after the sort every
  // entry's values_of must still address its own value range.
  Rng rng(test_seed(0x30));
  std::map<std::string, std::vector<std::string>> ref;
  std::vector<std::string> keys;
  for (int i = 0; i < 4000; ++i) keys.push_back("key" + std::to_string(i * 7919 % 4001));
  KmvBuffer kmv;
  for (const std::string& k : keys) {
    kmv.begin_entry(k);
    std::vector<std::string>& vals = ref[k];
    const uint64_t n = rng.next_below(5);
    for (uint64_t v = 0; v < n; ++v) {
      const size_t len = rng.next_below(50) == 0 ? 2048 + rng.next_below(4096)
                                                 : rng.next_below(6);
      vals.push_back(random_blob(rng, len));
      kmv.append_value(vals.back());
    }
  }
  kmv.sort_by_key();
  ASSERT_EQ(kmv.size(), ref.size());
  std::vector<std::string_view> scratch;
  size_t i = 0;
  for (const auto& [k, vals] : ref) {  // std::map iterates in key order
    ASSERT_EQ(kmv.entry(i).key(), k) << "entry " << i;
    kmv.values_of(i, scratch);
    ASSERT_EQ(scratch.size(), vals.size()) << k;
    ASSERT_EQ(kmv.entry(i).size(), vals.size()) << k;
    for (size_t v = 0; v < vals.size(); ++v) {
      EXPECT_EQ(scratch[v], vals[v]) << k << " value " << v;
      EXPECT_EQ(kmv.entry(i).value(v), vals[v]) << k << " value " << v;
    }
    ++i;
  }
}

TEST(KvFlat, ArenaBoundIsAHardFailure) {
  // The 32-bit index is sound because no arena may pass the u32 length the
  // wire carries. Every append path narrows through checked_u32, so the
  // guard is exercised directly here instead of by allocating 4 GiB.
  using ftmr::mr::checked_u32;
  using ftmr::mr::kMaxArenaBytes;
  static_assert(kMaxArenaBytes == (size_t{1} << 32) - 1);
  EXPECT_EQ(checked_u32(0), 0u);
  EXPECT_EQ(checked_u32(kMaxArenaBytes), 0xFFFFFFFFu);
  EXPECT_THROW((void)checked_u32(kMaxArenaBytes + 1), std::length_error);
  EXPECT_THROW((void)checked_u32(size_t{1} << 40), std::length_error);
}

// ---------------------------------------------------------------------------
// Adversarial wire images. Each must be rejected with a precise error code;
// run under ASan/UBSan (FTMR_SANITIZE) these also prove "never UB".
// ---------------------------------------------------------------------------

Bytes wire_of(const RefPairs& ref) { return build(ref).serialize(); }

void expect_rejects(Bytes wire, ErrorCode want) {
  KvBuffer out;
  const Status s = KvBuffer::deserialize(wire, out);
  EXPECT_EQ(s.code(), want) << s.message();
  EXPECT_TRUE(out.empty());

  KvBuffer adopted;
  const Status sa = adopted.adopt(std::move(wire));
  EXPECT_EQ(sa.code(), want) << sa.message();
  EXPECT_TRUE(adopted.empty());
}

TEST(KvFlatAdversarial, TruncatedCountHeader) {
  Bytes wire = wire_of({{"k", "v"}});
  wire.resize(ftmr::mr::kCountHeaderBytes - 1);
  expect_rejects(std::move(wire), ErrorCode::kOutOfRange);
}

TEST(KvFlatAdversarial, TruncatedLengthPrefix) {
  Bytes wire = wire_of({{"key", "value"}, {"k2", "v2"}});
  // Cut into the second record's value length prefix.
  wire.resize(wire.size() - 2 - ftmr::mr::kLenPrefixBytes + 1);
  expect_rejects(std::move(wire), ErrorCode::kOutOfRange);
}

TEST(KvFlatAdversarial, RecordOverrunsArena) {
  Bytes wire = wire_of({{"key", "value"}});
  // Inflate the value length so the record runs past the end.
  const size_t vlen_off = ftmr::mr::kCountHeaderBytes + ftmr::mr::kLenPrefixBytes + 3;
  const uint32_t huge = 0x7fffffff;
  std::memcpy(wire.data() + vlen_off, &huge, sizeof(huge));
  expect_rejects(std::move(wire), ErrorCode::kOutOfRange);
}

TEST(KvFlatAdversarial, CountExceedsPayload) {
  Bytes wire = wire_of({{"key", "value"}});
  const uint64_t absurd = ~0ULL;  // also exercises the overflow guard
  std::memcpy(wire.data(), &absurd, sizeof(absurd));
  expect_rejects(std::move(wire), ErrorCode::kCorrupt);
}

TEST(KvFlatAdversarial, TrailingBytesAfterLastRecord) {
  Bytes wire = wire_of({{"key", "value"}});
  wire.push_back(std::byte{0xAB});
  expect_rejects(std::move(wire), ErrorCode::kCorrupt);
}

TEST(KvFlatAdversarial, UnderCountedWire) {
  // Count says 1 but two records are present: the walk stops after one
  // record and flags the leftovers.
  Bytes wire = wire_of({{"a", "1"}, {"b", "2"}});
  const uint64_t one = 1;
  std::memcpy(wire.data(), &one, sizeof(one));
  expect_rejects(std::move(wire), ErrorCode::kCorrupt);
}

TEST(KvFlatAdversarial, RandomCorruptionNeverAccepted) {
  const RefPairs ref = random_workload(test_seed(0x77), 60);
  const Bytes clean = wire_of(ref);
  Rng rng(test_seed(0x78));
  int rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    Bytes wire = clean;
    // Flip 1-4 random bytes, or truncate, or extend.
    switch (rng.next_below(4)) {
      case 0:
        wire.resize(rng.next_below(wire.size()));
        break;
      case 1:
        wire.push_back(static_cast<std::byte>(rng.next_below(256)));
        break;
      default:
        for (uint64_t f = 0, n = 1 + rng.next_below(4); f < n; ++f) {
          wire[rng.next_below(wire.size())] =
              static_cast<std::byte>(rng.next_below(256));
        }
        break;
    }
    KvBuffer out;
    const Status s = KvBuffer::deserialize(wire, out);
    if (!s.ok()) {
      ++rejected;
      EXPECT_TRUE(s.code() == ErrorCode::kCorrupt ||
                  s.code() == ErrorCode::kOutOfRange)
          << s.message();
      EXPECT_TRUE(out.empty());
    } else {
      // Payload-byte flips are legitimately undetectable at this layer (the
      // checkpoint CRC frame above catches them) — but the structure must
      // still be fully indexable without faulting.
      for (const KvView p : out) {
        (void)p.key.size();
        (void)p.value.size();
      }
    }
  }
  EXPECT_GT(rejected, 0);  // the sweep must actually exercise rejection
}

}  // namespace
