// spill.hpp — out-of-core paged key-value / key-multivalue storage.
//
// MR-MPI's defining capability is processing intermediate data larger than
// memory: KV data lives in fixed-size pages, and pages beyond a memory
// budget spill to the node-local disk and stream back on iteration (the
// keyvalue.h paging design of the original library). The convert/merge
// costs the paper measures come from exactly these disk-resident pages, so
// the paging machinery is implemented and tested for real: pages genuinely
// round-trip through the storage layer, and the shuffle/convert hot paths
// (the exchange's fills, convert_spill) stream them page by page instead of
// re-materializing the dataset.
//
// Page model. A buffer is an ordered list of closed pages — each either
// resident (an in-memory KvBuffer) or on disk (a spill file whose header
// info, pair/byte counts, stays in memory) — plus one open page being
// filled. Pair order is the page order; spilling never reorders. The
// memory budget counts every resident byte *including the open page*;
// when (resident closed pages + open page) exceed the budget, the oldest
// resident page spills. Residency can exceed the budget only while a
// single page is itself larger than the budget (it spills as soon as it
// closes). A buffer that cannot spill (no storage) never closes a page:
// everything it holds is one ever-growing open page, which in_core()
// exposes as a plain KvBuffer.
//
// Failure-path guarantees (see DESIGN.md "Out-of-core KV"):
//   * spill writes retain the page until the write has succeeded; a
//     transient write error is retried on the storage layer's RetryPolicy
//     ladder and, if it still fails (or the error is not transient), the
//     page stays resident (over budget, never lost) and the error surfaces
//     to the caller;
//   * drain_to clears `out` on a mid-stream read failure and leaves every
//     page — including the already-copied ones — intact and re-readable
//     (spill files are only deleted by clear(), pop_front_page, or the
//     destructor), so the caller can retry or fall back;
//   * clear() removes every spill file and reports the first removal error
//     after clearing all in-memory state.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "mr/kv.hpp"
#include "storage/storage.hpp"

namespace ftmr::mr {

struct SpillStats {
  int pages_spilled = 0;
  int pages_loaded = 0;
  size_t bytes_spilled = 0;
  double sim_io_seconds = 0.0;  // modeled local-disk time
  int write_retries = 0;        // spill-write retries on the backoff ladder
  int read_retries = 0;         // page-load retries (transient read faults)
  int write_failures = 0;       // spills that failed after the full ladder
};

/// Cross-buffer residency accounting. Every spill-backed buffer opened on
/// the same meter books its resident bytes here, and `peak` records the
/// high-water mark of the sum — the per-rank "RSS" the out-of-core pipeline
/// promises to bound. The hook sits *before* budget enforcement spills, so
/// the peak includes the transient over-budget moment a single oversized
/// page can cause (ext07 and CI validate peak <= 1.5x budget against it).
/// Single-rank state: buffers on different ranks use different meters.
/// Buffers book through a MeterBooking, never by calling rebook directly.
struct ResidencyMeter {
  size_t current = 0;
  size_t peak = 0;
  /// One buffer's booking moves from `from` to `to` resident bytes.
  void rebook(size_t from, size_t to) noexcept {
    current = current - (from < current ? from : current) + to;
    if (current > peak) peak = current;
  }
};

/// One holder's bytes on a ResidencyMeter (null meter = no accounting). A
/// move hands the booking over with the pages it counts; destruction
/// releases it.
class MeterBooking {
 public:
  MeterBooking() = default;
  explicit MeterBooking(ResidencyMeter* meter) noexcept : meter_(meter) {}
  ~MeterBooking() { set(0); }
  MeterBooking(MeterBooking&& other) noexcept
      : meter_(std::exchange(other.meter_, nullptr)),
        booked_(std::exchange(other.booked_, 0)) {}
  MeterBooking& operator=(MeterBooking&&) = delete;

  /// Re-book this holder at `bytes` resident bytes.
  void set(size_t bytes) noexcept {
    if (meter_ == nullptr) return;
    meter_->rebook(booked_, bytes);
    booked_ = bytes;
  }
  /// A separate booking on the same meter (transient holders).
  [[nodiscard]] MeterBooking another() const noexcept {
    return MeterBooking(meter_);
  }

 private:
  ResidencyMeter* meter_ = nullptr;
  size_t booked_ = 0;
};

/// Everything a component needs to open spill-backed buffers: the storage
/// system, the node whose local disk receives the pages, a scratch
/// directory namespace, and the page/budget sizing. `memory_budget == 0`
/// (or a null fs) disables spilling — buffers are purely in-memory and the
/// streamed algorithms degrade to their in-core behaviour.
struct SpillConfig {
  storage::StorageSystem* fs = nullptr;
  int node = 0;
  std::string dir;             // scratch root on the local tier
  size_t page_bytes = 1 << 20;
  size_t memory_budget = 0;    // per-buffer byte budget; 0 = in-core
  /// Optional shared residency accounting (one meter per rank, shared by
  /// every buffer the rank opens); null = no accounting.
  ResidencyMeter* meter = nullptr;

  [[nodiscard]] bool enabled() const noexcept {
    return fs != nullptr && memory_budget > 0;
  }
  /// The same config one namespace deeper (dir + "/" + name).
  [[nodiscard]] SpillConfig sub(std::string_view name) const {
    SpillConfig c = *this;
    c.dir = dir.empty() ? std::string(name) : dir + "/" + std::string(name);
    return c;
  }
  /// The same config with the budget divided across `n` cooperating
  /// buffers (never below one page — a buffer must be able to fill the
  /// page it is about to spill).
  [[nodiscard]] SpillConfig share(size_t n) const {
    SpillConfig c = *this;
    if (n > 1) c.memory_budget = std::max(page_bytes, memory_budget / n);
    return c;
  }
};

namespace detail {

/// The spill pager both stores page through. It owns everything the two
/// stores share: the storage handle, node, scratch directory, the
/// SpillStats and pending I/O seconds, the page-file ids, the running
/// totals of the store's pages and the residency booking. Every
/// spill page is written by write_page, loaded by load_page and removed by
/// remove_file or drop_pages, so each storage call has one site. The page
/// lists (and what is paged: KV arenas, KMV entries) stay with the stores.
class SpillPager {
 public:
  /// Running totals of the store's pages.
  struct Totals {
    size_t items = 0;     // pairs (KV) or grouped entries (KMV)
    size_t bytes = 0;     // the store's bytes() unit
    size_t resident = 0;  // bytes of the closed pages held in memory
  };

  SpillPager() = default;
  /// `fs` null = no spilling; `meter` null = no residency accounting.
  SpillPager(storage::StorageSystem* fs, int node, std::string dir,
             ResidencyMeter* meter)
      : fs_(fs), node_(node), dir_(std::move(dir)), booking_(meter) {}
  /// The pages' files, totals, stats and booking move with the pager; the
  /// source keeps only its storage handle.
  SpillPager(SpillPager&& other) noexcept;
  SpillPager& operator=(SpillPager&&) = delete;

  [[nodiscard]] bool can_spill() const noexcept { return fs_ != nullptr; }
  [[nodiscard]] const SpillStats& stats() const noexcept { return stats_; }
  [[nodiscard]] double take_io_seconds() noexcept {
    return std::exchange(pending_io_seconds_, 0.0);
  }
  /// Book `bytes` resident bytes with the residency meter.
  void book(size_t bytes) noexcept { booking_.set(bytes); }
  /// A separate booking on the same meter (pages loaded for a while).
  [[nodiscard]] MeterBooking transient_booking() const noexcept {
    return booking_.another();
  }

  /// Write `wire` as the next page file `<dir>/<prefix>NNNNNN`: seal it
  /// with a CRC trailer, retry failed and torn writes on the RetryPolicy
  /// ladder, and on success set `path`. After a failed ladder the file is
  /// removed and `wire` is handed back unsealed, so the caller can keep
  /// the page resident.
  Status write_page(const char* prefix, Bytes& wire, std::string& path);
  /// Read page file `path` back: retry failed reads, check the CRC and
  /// hand the body to `decode`; a CRC or decode failure retries too.
  Status load_page(const std::string& path,
                   const std::function<Status(Bytes&&)>& decode);
  Status remove_file(const std::string& path) {
    return fs_->remove(storage::Tier::kLocal, node_, path);
  }
  /// Remove the file of every on-disk page in `pages`, then empty the
  /// list, zero the totals and release the booking. Reports the first
  /// removal error after clearing everything.
  template <typename Pages>
  Status drop_pages(Pages& pages) {
    Status first;
    for (const auto& p : pages) {
      if (!p.on_disk || fs_ == nullptr) continue;
      if (auto s = remove_file(p.path); !s.ok() && first.ok()) first = s;
    }
    pages.clear();
    totals = {};
    booking_.set(0);
    return first;
  }
  /// Take over `donor`'s totals, stats and pending I/O seconds (its pages
  /// were moved here), and its storage if this pager has none, so the
  /// moved files can still be removed. The donor's booking drops to zero.
  void absorb(SpillPager& donor) noexcept;

  Totals totals;

 private:
  void charge_io(double cost) noexcept {
    stats_.sim_io_seconds += cost;
    pending_io_seconds_ += cost;
  }

  storage::StorageSystem* fs_ = nullptr;
  int node_ = 0;
  std::string dir_;
  SpillStats stats_;
  double pending_io_seconds_ = 0.0;
  int next_page_id_ = 0;
  MeterBooking booking_;
};

/// Move-assign a spill store: destroying the old contents removes its
/// spill files and releases its booking, then the defaulted move
/// constructor takes `other` over and leaves it empty.
template <typename Store>
Store& replace_store(Store& self, Store&& other) noexcept {
  if (&self != &other) {
    std::destroy_at(&self);
    std::construct_at(&self, std::move(other));
  }
  return self;
}

}  // namespace detail

/// Append-only KV store that keeps at most `memory_budget` bytes of pairs
/// in memory; older full pages spill to local disk under `spill_dir`.
/// Iteration (for_each / for_each_page / drain_to) streams spilled pages
/// back in order.
class SpillableKvBuffer {
 public:
  /// Per-page header: the census the streamed shuffle/convert passes read
  /// without touching page data.
  struct PageInfo {
    size_t pairs = 0;
    size_t bytes = 0;   // KvBuffer::bytes() unit (payload + pair prefixes)
    bool on_disk = false;
  };

  /// Purely in-memory buffer (no spilling, one ever-growing open page).
  SpillableKvBuffer() = default;
  /// `storage` may be null for a purely in-memory buffer (no spilling).
  SpillableKvBuffer(storage::StorageSystem* storage, int node,
                    std::string spill_dir, size_t page_bytes = 1 << 20,
                    size_t memory_budget = 4 << 20);
  explicit SpillableKvBuffer(const SpillConfig& cfg);
  ~SpillableKvBuffer();

  SpillableKvBuffer(const SpillableKvBuffer&) = delete;
  SpillableKvBuffer& operator=(const SpillableKvBuffer&) = delete;
  SpillableKvBuffer(SpillableKvBuffer&& other) noexcept = default;
  SpillableKvBuffer& operator=(SpillableKvBuffer&& other) noexcept {
    return detail::replace_store(*this, std::move(other));
  }

  Status add(std::string_view key, std::string_view value);

  /// Merge a whole KvBuffer into the open page (single memcpy), then close
  /// and spill as the page/budget sizes demand. Order-preserving.
  Status absorb_kv(KvBuffer&& kv);

  /// Close the open page and append `page` as a closed page of its own
  /// (the paged-shuffle receive path: one adopted wire image per call).
  /// Without storage it is absorb_kv: the buffer stays one page.
  Status append_page(KvBuffer&& page);

  /// Steal every page of `other` (closed and open, resident and on-disk)
  /// and append them after this buffer's pages, order preserved, moving
  /// spill-file ownership — no data is read or copied. `other` is left
  /// empty. The two buffers must not share a spill directory namespace.
  Status absorb_pages(SpillableKvBuffer&& other);

  /// Pairs added so far (in memory + spilled).
  [[nodiscard]] size_t size() const noexcept { return pager_.totals.items; }
  [[nodiscard]] size_t bytes() const noexcept { return pager_.totals.bytes; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const SpillStats& stats() const noexcept {
    return pager_.stats();
  }

  /// Closed pages plus the open page (if non-empty).
  [[nodiscard]] size_t page_count() const noexcept {
    return pages_.size() + (open_page_.empty() ? 0 : 1);
  }
  [[nodiscard]] size_t spilled_page_count() const noexcept;
  /// Header of closed page `i` (in order); the open page is not listed.
  [[nodiscard]] PageInfo page_info(size_t i) const noexcept;
  /// Bytes currently resident in memory, open page included — the quantity
  /// the budget bounds.
  [[nodiscard]] size_t resident_bytes() const noexcept {
    return pager_.totals.resident + open_page_.bytes();
  }
  [[nodiscard]] size_t memory_budget() const noexcept { return memory_budget_; }
  /// The whole contents as one resident KvBuffer when the buffer cannot
  /// spill (no storage, no closed pages), else null.
  [[nodiscard]] const KvBuffer* in_core() const noexcept {
    return can_spill() || !pages_.empty() ? nullptr : &open_page_;
  }

  /// Visit every pair in insertion order, streaming spilled pages back.
  /// The views passed to `fn` alias a page arena and are only valid for
  /// the duration of the call.
  Status for_each(const std::function<void(KvView)>& fn);

  /// Visit every page in order (open page last), loading spilled pages one
  /// at a time; stops and propagates the first non-OK status `fn` returns.
  /// Pages stay intact (on-disk pages are re-readable afterwards).
  Status for_each_page(const std::function<Status(const KvBuffer&)>& fn);

  /// Non-destructive random page access for streamed senders: closed page
  /// `i` is copied (resident) or loaded back (spilled; the file is kept),
  /// and index page_count()-1 addresses the open page when it is non-empty.
  /// kOutOfRange past the last page.
  Status read_page(size_t i, KvBuffer& out);

  /// Consume the oldest page: `out` receives it (loaded if spilled, the
  /// spill file is removed), `have` is false when the buffer is empty.
  /// Streaming consumers use this so freed pages stop counting against
  /// the budget the moment they are handed off.
  Status pop_front_page(KvBuffer& out, bool& have);

  /// Move everything into a plain in-memory KvBuffer (insertion order):
  /// spilled pages are adopted wholesale from their wire image, resident
  /// and open pages are moved — no per-pair copies. On success the buffer
  /// is cleared (spill files removed). On a mid-stream failure `out` is
  /// cleared and every page of this buffer — including the already-copied
  /// prefix — remains intact and re-readable.
  Status drain_to(KvBuffer& out);

  /// Drop all contents, including spilled pages.
  Status clear();

  /// Seal the store: release the spare capacity of every resident page,
  /// open page included, so it holds exactly its records. Appending later
  /// is still allowed (it regrows).
  void shrink_to_fit();

  /// Simulated spill I/O seconds accumulated since the last take (workers
  /// charge this to their virtual clock at phase boundaries).
  [[nodiscard]] double take_io_seconds() noexcept {
    return pager_.take_io_seconds();
  }

 private:
  struct Page {
    KvBuffer mem;        // meaningful when !on_disk
    std::string path;    // meaningful when on_disk
    size_t pairs = 0;
    size_t bytes = 0;
    bool on_disk = false;
  };

  [[nodiscard]] bool can_spill() const noexcept { return pager_.can_spill(); }
  void close_open_page();
  /// Spill the oldest resident closed page; no-op if none.
  Status spill_oldest_resident();
  /// Spill until (closed resident + open page) fits the budget.
  Status enforce_budget();
  Status load_page(const Page& p, KvBuffer& out);
  /// Re-book this buffer's resident bytes with the shared meter.
  void sync_meter() noexcept { pager_.book(resident_bytes()); }

  detail::SpillPager pager_;
  size_t page_bytes_ = 1 << 20;
  size_t memory_budget_ = 0;
  std::deque<Page> pages_;        // closed pages, oldest first
  KvBuffer open_page_;            // the page being filled
};

// ---------------------------------------------------------------------------
// Spillable KMV output (the convert result, streamed into reduce)
// ---------------------------------------------------------------------------

/// KMV page wire encoding ([u64 nentries][entry: u32 klen, key, u64
/// nvalues, (u32 vlen, value)*]), used for KMV spill pages and validated on
/// the way back in (kCorrupt / kOutOfRange on damage, never UB).
[[nodiscard]] Bytes encode_kmv(const KmvBuffer& kmv);
Status decode_kmv(std::span<const std::byte> wire, KmvBuffer& out);

/// Out-of-core KMV store: sorted *runs* of grouped entries (one run per
/// convert bucket), paged under the same budget model as SpillableKvBuffer.
/// for_each_entry streams entries back in global key order by k-way-merging
/// the runs, holding one page per run in memory — peak residency is
/// O(page_bytes x runs), never O(dataset).
class SpillableKmvBuffer {
 public:
  SpillableKmvBuffer() = default;
  explicit SpillableKmvBuffer(const SpillConfig& cfg);
  ~SpillableKmvBuffer();

  SpillableKmvBuffer(const SpillableKmvBuffer&) = delete;
  SpillableKmvBuffer& operator=(const SpillableKmvBuffer&) = delete;
  SpillableKmvBuffer(SpillableKmvBuffer&& other) noexcept = default;
  SpillableKmvBuffer& operator=(SpillableKmvBuffer&& other) noexcept {
    return detail::replace_store(*this, std::move(other));
  }

  /// Append one run. The run must be sorted by key with unique keys (what
  /// convert_2pass produces); it is split into whole-entry pages of about
  /// page_bytes each, spilled as the budget demands. A buffer that cannot
  /// spill keeps the run whole as one page (moved, not copied).
  Status add_run(KmvBuffer&& run);

  /// Re-page future runs at `n` bytes. The k-way merge in for_each_entry
  /// holds one page per run, so a producer expecting many runs shrinks the
  /// pages to keep runs x page_bytes within its budget (convert_2pass_spill
  /// sets its per-bucket slice here). Pages already added keep their size.
  void set_run_page_bytes(size_t n) noexcept { page_bytes_ = n ? n : 1; }

  /// Total grouped entries across all runs. Keys may repeat *across* runs
  /// (for_each_entry merges their value lists in run order).
  [[nodiscard]] size_t size() const noexcept { return pager_.totals.items; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] size_t bytes() const noexcept { return pager_.totals.bytes; }
  [[nodiscard]] size_t runs() const noexcept { return runs_.size(); }
  [[nodiscard]] const SpillStats& stats() const noexcept {
    return pager_.stats();
  }
  [[nodiscard]] size_t resident_bytes() const noexcept {
    return pager_.totals.resident;
  }

  /// Stream every entry in ascending key order (ties across runs merge
  /// their values in run order), skipping the first `skip` merged entries
  /// — the reduce-recovery cursor. Stops on the first non-OK status from
  /// `fn`. Views alias per-run page buffers and are valid only for the
  /// duration of the call. Pages stay intact (re-streamable).
  Status for_each_entry(
      size_t skip,
      const std::function<Status(std::string_view key,
                                 std::span<const std::string_view> values)>& fn);

  Status clear();

  [[nodiscard]] double take_io_seconds() noexcept {
    return pager_.take_io_seconds();
  }

 private:
  struct Page {
    KmvBuffer mem;       // meaningful when !on_disk
    std::string path;    // meaningful when on_disk
    size_t entries = 0;
    size_t bytes = 0;    // serialized size (what residency/spill accounting uses)
    bool on_disk = false;
  };
  struct Run {
    size_t first_page = 0;
    size_t npages = 0;
  };

  Status append_page(KmvBuffer&& chunk);
  Status enforce_budget();
  Status load_page(const Page& p, KmvBuffer& out);
  void sync_meter() noexcept { pager_.book(resident_bytes()); }

  detail::SpillPager pager_;
  size_t page_bytes_ = 1 << 20;
  size_t memory_budget_ = 0;
  std::vector<Page> pages_;   // run pages, grouped: runs_[r] indexes into this
  std::vector<Run> runs_;
};

}  // namespace ftmr::mr
