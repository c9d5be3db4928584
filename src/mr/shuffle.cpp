#include "mr/shuffle.hpp"

#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "common/hash.hpp"
#include "mr/accounting.hpp"

namespace ftmr::mr {

namespace {

// Trace names and categories, interned once (metrics::TraceName).
const metrics::TraceCat kCatShuffle{"shuffle"};
const metrics::TraceName kShuffleAdopt{"shuffle.adopt"};
const metrics::TraceName kShuffleAlltoall{"shuffle.alltoall"};
const metrics::TraceName kShuffleCensus{"shuffle.census"};

}  // namespace

std::vector<KvBuffer> partition_by_key(const KvBuffer& in, int nparts) {
  std::vector<KvBuffer> parts(static_cast<size_t>(nparts));
  // Census sweep: hash every key once, remember the destination, and size
  // each partition exactly so the copy sweep below allocates once per
  // destination arena.
  const size_t n = in.size();
  std::vector<int> dest(n);
  std::vector<size_t> counts(static_cast<size_t>(nparts), 0);
  std::vector<size_t> bytes(static_cast<size_t>(nparts), 0);
  for (size_t i = 0; i < n; ++i) {
    const KvView p = in.view(i);
    const int d = partition_of_key(p.key, nparts);
    dest[i] = d;
    counts[static_cast<size_t>(d)]++;
    bytes[static_cast<size_t>(d)] +=
        p.key.size() + p.value.size() + KvBuffer::kPairOverhead;
  }
  for (int j = 0; j < nparts; ++j) {
    parts[static_cast<size_t>(j)].reserve_records(counts[static_cast<size_t>(j)],
                                                  bytes[static_cast<size_t>(j)]);
  }
  // Copy sweep: records are already wire-encoded in the arena; routing is
  // one memcpy of the record into the (pre-sized) destination arena.
  for (size_t i = 0; i < n; ++i) {
    parts[static_cast<size_t>(dest[i])].append_record_from(in, i);
  }
  return parts;
}

uint64_t ExchangeBlock::records() const noexcept {
  uint64_t n = 0;
  if (wire.size() >= kCountHeaderBytes) std::memcpy(&n, wire.data(), kCountHeaderBytes);
  return n;
}

Bytes frame_row(const ExchangeRow& row) {
  size_t size = sizeof(uint32_t);
  for (const ExchangeBlock& b : row) {
    size += sizeof(int32_t) + sizeof(uint32_t) + b.wire.size();
  }
  Bytes buf;
  buf.reserve(size);
  ByteWriter w(std::move(buf));
  w.put<uint32_t>(static_cast<uint32_t>(row.size()));
  for (const ExchangeBlock& b : row) {
    w.put<int32_t>(b.partition);
    w.put_blob(b.wire);
  }
  return std::move(w).take();
}

Status deliver_row(int sender, const Bytes& row, const ExchangeDeliver& deliver,
                   ShuffleStats* stats) {
  // Every block is validated and copied out before the first delivery, so
  // a damaged row leaves the receiver untouched.
  ByteReader r(row);
  uint32_t n = 0;
  if (auto s = r.get(n); !s.ok()) return s;
  std::vector<std::pair<int, KvBuffer>> blocks;
  for (uint32_t i = 0; i < n; ++i) {
    int32_t p = 0;
    uint32_t len = 0;
    std::span<const std::byte> wire;
    if (auto s = r.get(p); !s.ok()) return s;
    if (auto s = r.get(len); !s.ok()) return s;
    if (auto s = r.get_view(len, wire); !s.ok()) return s;
    KvBuffer kv;
    if (auto s = KvBuffer::deserialize(wire, kv); !s.ok()) return s;
    if (!kv.empty()) blocks.emplace_back(p, std::move(kv));
  }
  if (!r.exhausted()) {
    return {ErrorCode::kCorrupt, "exchange: trailing bytes after the row's blocks"};
  }
  for (auto& [p, kv] : blocks) {
    if (stats) stats->pairs_received += kv.size();
    if (auto s = deliver(sender, p, std::move(kv)); !s.ok()) return s;
  }
  return Status::Ok();
}

Status exchange(simmpi::Comm& comm, bool bounded, const ExchangeFill& fill,
                const ExchangeDeliver& deliver, ShuffleStats* stats,
                metrics::TraceRecorder* trace) {
  const size_t nranks = static_cast<size_t>(comm.size());
  for (;;) {
    const double c0 = comm.now();
    bool more = false;
    std::vector<Bytes> send(nranks);
    {
      std::vector<ExchangeRow> rows(nranks);
      if (auto s = fill(rows, more); !s.ok()) return s;
      for (size_t d = 0; d < nranks; ++d) {
        send[d] = frame_row(rows[d]);
        for (const ExchangeBlock& b : rows[d]) {
          if (stats) stats->pairs_sent += b.records();
        }
      }
    }  // the blocks are framed: owned images are freed before the alltoall
    if (trace) trace->span(kShuffleCensus, kCatShuffle, c0, comm.now());

    const double a0 = comm.now();
    std::vector<Bytes> recv;
    if (auto s = comm.alltoall(std::move(send), recv); !s.ok()) return s;
    if (trace) trace->span(kShuffleAlltoall, kCatShuffle, a0, comm.now());
    const double d0 = comm.now();
    for (size_t j = 0; j < recv.size(); ++j) {
      const Bytes row = std::move(recv[j]);  // freed once delivered
      if (auto s = deliver_row(static_cast<int>(j), row, deliver, stats);
          !s.ok()) {
        return s;
      }
    }
    if (trace) trace->span(kShuffleAdopt, kCatShuffle, d0, comm.now());
    if (!bounded) return Status::Ok();

    // Collective termination: rounds continue while any rank holds data.
    int64_t any_more = 0;
    if (auto s = comm.allreduce_one(simmpi::ReduceOp::kMax,
                                    static_cast<int64_t>(more ? 1 : 0), any_more);
        !s.ok()) {
      return s;
    }
    if (any_more == 0) return Status::Ok();
  }
}

Status shuffle_spill(simmpi::Comm& comm, SpillableKvBuffer& in,
                     SpillableKvBuffer& out, const SpillConfig& cfg,
                     ShuffleStats* stats, metrics::TraceRecorder* trace) {
  const int nranks = comm.size();
  ShuffleStats st;
  // Per-sender accumulators keep every received page grouped by source
  // rank; the final merge is then sender-rank-major regardless of round
  // interleaving.
  std::vector<SpillableKvBuffer> per_sender;
  per_sender.reserve(static_cast<size_t>(nranks));
  const SpillConfig recv_cfg =
      cfg.sub("recv").share(static_cast<size_t>(nranks));
  for (int j = 0; j < nranks; ++j) {
    per_sender.emplace_back(recv_cfg.sub("s" + std::to_string(j)));
  }
  const size_t round_budget =
      cfg.enabled() ? std::max(cfg.page_bytes, cfg.memory_budget / 2)
                    : std::numeric_limits<size_t>::max();
  // This round's per-destination blocks; destination d's block is
  // partition d.
  std::vector<KvBuffer> sends;
  const auto fill = [&](std::vector<ExchangeRow>& rows, bool& more) -> Status {
    sends.assign(static_cast<size_t>(nranks), KvBuffer{});
    size_t buffered = 0;
    KvBuffer page;
    bool have = false;
    while (buffered < round_budget) {
      if (auto s = in.pop_front_page(page, have); !s.ok()) return s;
      if (!have) break;
      for (size_t i = 0; i < page.size(); ++i) {
        const KvView p = page.view(i);
        sends[static_cast<size_t>(partition_of_key(p.key, nranks))]
            .append_record_from(page, i);
      }
      buffered += page.bytes();
    }
    st.spill_io_seconds += in.take_io_seconds();
    for (int d = 0; d < nranks; ++d) {
      const KvBuffer& block = sends[static_cast<size_t>(d)];
      if (!block.empty()) rows[static_cast<size_t>(d)].push_back({d, &block});
    }
    more = !in.empty();
    return Status::Ok();
  };
  const auto deliver = [&](int sender, int, KvBuffer&& block) -> Status {
    SpillableKvBuffer& acc = per_sender[static_cast<size_t>(sender)];
    if (auto s = acc.append_page(std::move(block)); !s.ok()) return s;
    st.spill_io_seconds += acc.take_io_seconds();
    return Status::Ok();
  };
  if (auto s = exchange(comm, cfg.enabled(), fill, deliver, &st, trace); !s.ok()) {
    return s;
  }
  for (int j = 0; j < nranks; ++j) {
    if (auto s = out.absorb_pages(std::move(per_sender[static_cast<size_t>(j)]));
        !s.ok()) {
      return s;
    }
  }
  tap_records(kTapShuffleSent, comm.global_rank(), st.pairs_sent);
  tap_records(kTapShuffleReceived, comm.global_rank(), st.pairs_received);
  if (stats) *stats = st;
  return Status::Ok();
}

}  // namespace ftmr::mr
