#include "mr/shuffle.hpp"

#include <limits>
#include <string>

#include "common/hash.hpp"
#include "mr/accounting.hpp"

namespace ftmr::mr {

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

Status shuffle(simmpi::Comm& comm, const KvBuffer& in, KvBuffer& out,
               ShuffleStats* stats, metrics::TraceRecorder* trace) {
  const double c0 = comm.now();
  std::vector<KvBuffer> parts = partition_by_key(in, comm.size());
  if (trace) trace->span("shuffle.census", "shuffle", c0, comm.now());
  return shuffle_partitions(comm, std::move(parts), out, stats, trace);
}

Status shuffle_partitions(simmpi::Comm& comm, std::vector<KvBuffer> parts,
                          KvBuffer& out, ShuffleStats* stats,
                          metrics::TraceRecorder* trace) {
  std::vector<Bytes> send(parts.size());
  ShuffleStats st;
  for (size_t j = 0; j < parts.size(); ++j) {
    st.pairs_sent += parts[j].size();
    // The partition arena IS the wire image: move it out, no re-encoding.
    send[j] = std::move(parts[j]).take_wire();
    st.bytes_sent += send[j].size();
  }
  const double a0 = comm.now();
  std::vector<Bytes> recv;
  if (auto s = comm.alltoall(std::move(send), recv); !s.ok()) return s;
  if (trace) trace->span("shuffle.alltoall", "shuffle", a0, comm.now());
  const double d0 = comm.now();
  out.clear();
  // Validating adoption of every received block first: zero-copy, and it
  // yields exact totals so the merge below reserves once.
  std::vector<KvBuffer> got(recv.size());
  size_t total_pairs = 0;
  size_t total_bytes = 0;
  for (size_t j = 0; j < recv.size(); ++j) {
    st.bytes_received += recv[j].size();
    if (auto s = got[j].adopt(std::move(recv[j])); !s.ok()) return s;
    st.pairs_received += got[j].size();
    total_pairs += got[j].size();
    total_bytes += got[j].bytes();
  }
  for (size_t j = 0; j < got.size(); ++j) {
    out.absorb(std::move(got[j]));
    if (j == 0) {
      // First block moved in wholesale; grow the arena once for the
      // remaining merges (rank order is preserved for determinism).
      out.reserve_records(total_pairs - out.size(), total_bytes - out.bytes());
    }
  }
  if (trace) trace->span("shuffle.adopt", "shuffle", d0, comm.now());
  tap_records(kTapShuffleSent, comm.global_rank(), st.pairs_sent);
  tap_records(kTapShuffleReceived, comm.global_rank(), st.pairs_received);
  if (stats) *stats = st;
  return Status::Ok();
}

Status shuffle_spill(simmpi::Comm& comm, SpillableKvBuffer& in,
                     SpillableKvBuffer& out, const SpillConfig& cfg,
                     ShuffleStats* stats, metrics::TraceRecorder* trace) {
  const int nranks = comm.size();
  ShuffleStats st;
  // Per-sender accumulators keep every received page grouped by source
  // rank; the final merge is then sender-rank-major — the same pair order
  // the single-shot shuffle produces, regardless of round interleaving.
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
  while (true) {
    // Fill this round's send arenas one consumed page at a time.
    const double c0 = comm.now();
    std::vector<KvBuffer> sends(static_cast<size_t>(nranks));
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
      st.pairs_sent += page.size();
    }
    st.spill_io_seconds += in.take_io_seconds();
    if (trace) trace->span("shuffle.census", "shuffle", c0, comm.now());
    std::vector<Bytes> send_wire(sends.size());
    for (size_t j = 0; j < sends.size(); ++j) {
      send_wire[j] = std::move(sends[j]).take_wire();
      st.bytes_sent += send_wire[j].size();
    }
    const double a0 = comm.now();
    std::vector<Bytes> recv;
    if (auto s = comm.alltoall(std::move(send_wire), recv); !s.ok()) return s;
    if (trace) trace->span("shuffle.alltoall", "shuffle", a0, comm.now());
    const double d0 = comm.now();
    for (size_t j = 0; j < recv.size(); ++j) {
      st.bytes_received += recv[j].size();
      KvBuffer block;
      if (auto s = block.adopt(std::move(recv[j])); !s.ok()) return s;
      if (block.empty()) continue;
      st.pairs_received += block.size();
      if (auto s = per_sender[j].append_page(std::move(block)); !s.ok()) {
        return s;
      }
      st.spill_io_seconds += per_sender[j].take_io_seconds();
    }
    if (trace) trace->span("shuffle.adopt", "shuffle", d0, comm.now());
    // Collective termination: rounds continue while any rank holds data.
    int64_t more = 0;
    if (auto s = comm.allreduce_one(simmpi::ReduceOp::kMax,
                                    static_cast<int64_t>(in.empty() ? 0 : 1),
                                    more);
        !s.ok()) {
      return s;
    }
    if (more == 0) break;
  }
  for (int j = 0; j < nranks; ++j) {
    if (auto s = out.absorb_pages(std::move(per_sender[j])); !s.ok()) return s;
  }
  tap_records(kTapShuffleSent, comm.global_rank(), st.pairs_sent);
  tap_records(kTapShuffleReceived, comm.global_rank(), st.pairs_received);
  if (stats) *stats = st;
  return Status::Ok();
}

}  // namespace ftmr::mr
