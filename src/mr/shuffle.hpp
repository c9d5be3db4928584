// shuffle.hpp — the all-to-all key exchange.
//
// MapReduce jobs on MPI exchange intermediate data with MPI_Alltoallv
// (paper Sec. 3.3): each rank partitions its KV pairs by key hash, sends
// partition j to its owner, and receives its own partitions from everyone.
// exchange() is the one implementation of that protocol: the engine's
// shuffle, its orphan-partition rebuild and the key-routed shuffle_spill
// all run it.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/status.hpp"
#include "mr/kv.hpp"
#include "mr/spill.hpp"
#include "simmpi/comm.hpp"

namespace ftmr::mr {

struct ShuffleStats {
  size_t pairs_sent = 0;
  size_t pairs_received = 0;
  /// Modeled local-disk seconds shuffle_spill spent consuming `in` and
  /// staging receive pages (the caller charges it to its virtual clock).
  double spill_io_seconds = 0.0;
};

/// Partition `in` by fnv1a(key) % comm.size().
std::vector<KvBuffer> partition_by_key(const KvBuffer& in, int nparts);

/// One block of a row: partition `partition`'s records as a KV wire image
/// ([u64 count][records], kv.hpp). The image is borrowed (a KvBuffer's
/// arena or a caller's bytes, which must stay unchanged until the row is
/// framed), kept alive by `keep` (a buffer several blocks may share, freed
/// with the last of them), or owned (handed over with the block: held by
/// `keep` too). exchange() reads a block only while it frames the row, and
/// drops the blocks, with what they keep, before the alltoall.
struct ExchangeBlock {
  ExchangeBlock(int p, std::span<const std::byte> image,
                std::shared_ptr<const void> keep = nullptr)
      : partition(p), wire(image), keep(std::move(keep)) {}
  ExchangeBlock(int p, const KvBuffer* kv) : ExchangeBlock(p, kv->wire_view()) {}
  ExchangeBlock(int p, Bytes&& image)
      : ExchangeBlock(p, std::make_shared<const Bytes>(std::move(image))) {}

  /// Records in the block: the image's count header.
  [[nodiscard]] uint64_t records() const noexcept;

  int partition;
  std::span<const std::byte> wire;
  std::shared_ptr<const void> keep;

 private:
  ExchangeBlock(int p, std::shared_ptr<const Bytes> owned)
      : ExchangeBlock(p, *owned, owned) {}
};
/// One round's blocks for one destination rank, in delivery order.
using ExchangeRow = std::vector<ExchangeBlock>;
/// Place one round's blocks into `rows` (comm.size() empty rows) and set
/// `more` while this rank still holds unsent data.
using ExchangeFill =
    std::function<Status(std::vector<ExchangeRow>& rows, bool& more)>;
/// Take one received non-empty block from comm-relative rank `sender`.
using ExchangeDeliver =
    std::function<Status(int sender, int partition, KvBuffer&& block)>;

/// The wire image of a row, in one exact-size allocation:
/// [u32 n] then n x ([i32 partition][u32 len][KvBuffer wire image]).
Bytes frame_row(const ExchangeRow& row);

/// Validate a received row whole, then deliver its non-empty blocks in
/// order. A damaged row returns kOutOfRange/kCorrupt and delivers nothing.
Status deliver_row(int sender, const Bytes& row, const ExchangeDeliver& deliver,
                   ShuffleStats* stats = nullptr);

/// The shuffle exchange, collective over `comm`. Each round fills and
/// frames the rows, releases the fill's blocks, alltoalls the frames and
/// delivers in sender order. Unbounded: one
/// round, no other op (`more` is ignored). Bounded: rounds run until a
/// max-allreduce vote on `more` is 0, so unequal round counts end
/// together. `stats` accumulates pairs placed and delivered; `trace`
/// gets shuffle.census (fill + framing) / .alltoall / .adopt spans.
Status exchange(simmpi::Comm& comm, bool bounded, const ExchangeFill& fill,
                const ExchangeDeliver& deliver, ShuffleStats* stats = nullptr,
                metrics::TraceRecorder* trace = nullptr);

/// Key-routed out-of-core exchange: `in` is consumed page by page and
/// routed by partition_of_key, about `cfg.memory_budget / 2` bytes per
/// round. Receives accumulate per sender and move into `out` (opened on
/// its own SpillConfig) sender-rank-major: receiver r holds, for each
/// sender s in rank order, s's records that route to r in s's input
/// order. Peak residency is O(page_bytes x ranks + round budget). With
/// `cfg` disabled this is one unbounded round into resident buffers.
Status shuffle_spill(simmpi::Comm& comm, SpillableKvBuffer& in,
                     SpillableKvBuffer& out, const SpillConfig& cfg,
                     ShuffleStats* stats = nullptr,
                     metrics::TraceRecorder* trace = nullptr);

}  // namespace ftmr::mr
