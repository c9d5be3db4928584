// map_stores.hpp — one rank's map output for one stage, by partition.
//
// A store is resident (a SpillableKvBuffer) until a detect/resume rank
// parks it at the map boundary. A parked store is a KV wire image in the
// segment store and its heap arena is gone: survivors keep their map
// outputs only for the rare orphan rebuild (paper Sec. 4.2), so they live
// outside the working set (see DESIGN.md "Parked map stores"). Every access
// goes through this class, so a parked store is loaded back, record order
// kept, before anything appends to it or reads its pages.
#pragma once

#include <functional>
#include <map>

#include "common/status.hpp"
#include "mr/shuffle.hpp"
#include "mr/spill.hpp"
#include "storage/segment_store.hpp"

namespace ftmr::core {

class MapStores {
 public:
  /// Makes the empty store for partition p on first use.
  using Make = std::function<mr::SpillableKvBuffer(int p)>;
  /// Takes one block of the unbounded shuffle round.
  using Emit = std::function<Status(mr::ExchangeBlock&& block)>;

  /// Store p to append to: made on first use, loaded back if parked.
  Status open(int p, const Make& make, mr::SpillableKvBuffer*& out);
  /// Store p to read, loaded back if parked; null when this rank has none.
  Status find(int p, const Make& make, mr::SpillableKvBuffer*& out);
  /// Every store, parked ones loaded back first (the paged shuffle rounds:
  /// nothing parks under a memory budget, so there this loads nothing).
  Status all(const Make& make, std::map<int, mr::SpillableKvBuffer>*& out);

  /// Park the sealed in-core stores in `segments`, back to back in one run:
  /// one host write, and one hole punched when the last of them leaves.
  /// Host I/O only: no virtual time, TierStats, fault draw or MPI op. The
  /// modeled rank still holds the bytes in RAM, so they stay booked on
  /// `meter`. What cannot park (paged stores, or all of them when the
  /// write fails) stays resident and gives back its spare capacity.
  void park(storage::SegmentStore& segments, mr::ResidencyMeter* meter);
  /// Give back every resident store's spare capacity.
  void shrink_to_fit();

  /// Every non-empty store whole, in partition order: the unbounded
  /// shuffle round's blocks. Parked images are spans of their run, read
  /// once per run into a buffer their blocks keep. A resident store is
  /// borrowed from its arena or, with `release`, handed over with its
  /// block and dropped.
  Status whole_blocks(bool release, const Emit& emit);

  /// Spill I/O seconds the stores accrued since the last call, added in
  /// partition order onto `io`.
  double take_io_seconds(double io = 0.0);
  /// Drop every store, parked ones included.
  void clear() {
    resident_.clear();
    parked_.clear();
  }
  /// Stores held, resident and parked.
  [[nodiscard]] size_t size() const noexcept {
    return resident_.size() + parked_.size();
  }
  [[nodiscard]] size_t parked() const noexcept { return parked_.size(); }

 private:
  /// A parked store's image: bytes [at, at + len) of the run it was
  /// parked in with the rank's other stores of the stage.
  struct Parked {
    storage::SegmentStore::Extent run;
    uint64_t at = 0;
    uint64_t len = 0;
    mr::MeterBooking booking;
  };

  /// Load parked store p back into a resident one; a no-op when p is not
  /// parked.
  Status unpark(int p, const Make& make);

  std::map<int, mr::SpillableKvBuffer> resident_;
  std::map<int, Parked> parked_;  // a partition is in at most one of the two
  storage::SegmentStore* segments_ = nullptr;  // where parked_ lives
};

}  // namespace ftmr::core
