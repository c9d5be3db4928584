#include "mr/spill.hpp"

#include <algorithm>
#include <cstdio>

#include "common/crc32.hpp"

namespace ftmr::mr {

namespace {

// Every spilled page carries a CRC-32 trailer. Structural validation on the
// way back in (KvBuffer::adopt / decode_kmv) catches truncation and length
// corruption, but a bit flip inside key/value payload bytes would pass it
// silently and surface as wrong *data*. The trailer turns payload corruption
// into a detectable — and for transient read corruption, retryable — error.
constexpr size_t kPageCrcBytes = 4;

void seal_page(Bytes& wire) {
  const uint32_t crc = crc32(std::span<const std::byte>(wire));
  for (int i = 0; i < 4; ++i) {
    wire.push_back(static_cast<std::byte>((crc >> (8 * i)) & 0xFFu));
  }
}

Status unseal_page(Bytes& wire) {
  if (wire.size() < kPageCrcBytes) {
    return {ErrorCode::kCorrupt, "spill page shorter than its CRC trailer"};
  }
  const size_t body = wire.size() - kPageCrcBytes;
  uint32_t stored = 0;
  for (size_t i = 0; i < kPageCrcBytes; ++i) {
    stored |= static_cast<uint32_t>(static_cast<uint8_t>(wire[body + i]))
              << (8 * i);
  }
  const uint32_t crc = crc32(std::span<const std::byte>(wire.data(), body));
  if (crc != stored) {
    return {ErrorCode::kCorrupt, "spill page CRC mismatch"};
  }
  wire.resize(body);
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// SpillPager
// ---------------------------------------------------------------------------

namespace detail {

SpillPager::SpillPager(SpillPager&& other) noexcept
    : totals(std::exchange(other.totals, {})), fs_(other.fs_),
      node_(other.node_), dir_(std::move(other.dir_)),
      stats_(std::exchange(other.stats_, {})),
      pending_io_seconds_(std::exchange(other.pending_io_seconds_, 0.0)),
      next_page_id_(other.next_page_id_),
      booking_(std::move(other.booking_)) {}

Status SpillPager::write_page(const char* prefix, Bytes& wire,
                              std::string& path) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%06d", prefix, next_page_id_++);
  std::string file = dir_ + "/" + name;
  seal_page(wire);
  const size_t sealed = wire.size();
  const Status last = storage::RetryPolicy::run(
      [&](int) -> Status {
        double cost = 0.0;
        Status s = fs_->write_file(storage::Tier::kLocal, node_, file, wire, &cost);
        if (!s.ok()) return s;
        // A torn write reports success but persists a strict prefix; the
        // size probe is metadata-only and catches it before the page leaves
        // memory.
        if (fs_->file_size(storage::Tier::kLocal, node_, file) !=
            static_cast<int64_t>(sealed)) {
          return {ErrorCode::kIo, "torn spill write detected"};
        }
        charge_io(cost);
        return Status::Ok();
      },
      [&](double backoff) {
        charge_io(backoff);
        stats_.write_retries++;
      });
  if (!last.ok()) {
    stats_.write_failures++;
    (void)remove_file(file);
    wire.resize(sealed - kPageCrcBytes);
    return last;
  }
  stats_.pages_spilled++;
  stats_.bytes_spilled += sealed;
  path = std::move(file);
  return Status::Ok();
}

Status SpillPager::load_page(const std::string& path,
                             const std::function<Status(Bytes&&)>& decode) {
  return storage::RetryPolicy::run(
      [&](int) -> Status {
        Bytes wire;
        double cost = 0.0;
        Status s = fs_->read_file(storage::Tier::kLocal, node_, path, wire, &cost);
        if (!s.ok()) return s;
        // The CRC trailer plus the decoder's structural validation catch any
        // bit flip on the way back in (file intact on disk), so corruption
        // retries rather than surfacing garbage — or, worse, silently
        // altered payloads.
        s = unseal_page(wire);
        if (s.ok()) s = decode(std::move(wire));
        if (!s.ok()) return s;
        charge_io(cost);
        stats_.pages_loaded++;
        return Status::Ok();
      },
      [&](double backoff) {
        charge_io(backoff);
        stats_.read_retries++;
      });
}

void SpillPager::absorb(SpillPager& donor) noexcept {
  if (fs_ == nullptr && donor.fs_ != nullptr) {
    fs_ = donor.fs_;
    node_ = donor.node_;
  }
  const Totals t = std::exchange(donor.totals, {});
  totals.items += t.items;
  totals.bytes += t.bytes;
  totals.resident += t.resident;
  const SpillStats d = std::exchange(donor.stats_, {});
  stats_.pages_spilled += d.pages_spilled;
  stats_.pages_loaded += d.pages_loaded;
  stats_.bytes_spilled += d.bytes_spilled;
  stats_.sim_io_seconds += d.sim_io_seconds;
  stats_.write_retries += d.write_retries;
  stats_.read_retries += d.read_retries;
  stats_.write_failures += d.write_failures;
  pending_io_seconds_ += donor.take_io_seconds();
  donor.book(0);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// SpillableKvBuffer
// ---------------------------------------------------------------------------

SpillableKvBuffer::SpillableKvBuffer(storage::StorageSystem* storage, int node,
                                     std::string spill_dir, size_t page_bytes,
                                     size_t memory_budget)
    : pager_(storage, node, std::move(spill_dir), nullptr),
      page_bytes_(page_bytes ? page_bytes : 1),
      memory_budget_(memory_budget) {}

SpillableKvBuffer::SpillableKvBuffer(const SpillConfig& cfg)
    : pager_(cfg.enabled() ? cfg.fs : nullptr, cfg.node, cfg.dir, cfg.meter),
      page_bytes_(cfg.page_bytes ? cfg.page_bytes : 1),
      memory_budget_(cfg.memory_budget ? cfg.memory_budget : size_t{4} << 20) {}

SpillableKvBuffer::~SpillableKvBuffer() { (void)clear(); }

Status SpillableKvBuffer::add(std::string_view key, std::string_view value) {
  open_page_.add(key, value);
  pager_.totals.items++;
  pager_.totals.bytes += key.size() + value.size() + KvBuffer::kPairOverhead;
  if (can_spill() && open_page_.bytes() >= page_bytes_) close_open_page();
  Status s = enforce_budget();
  sync_meter();
  return s;
}

Status SpillableKvBuffer::absorb_kv(KvBuffer&& kv) {
  if (kv.empty()) return Status::Ok();
  pager_.totals.items += kv.size();
  pager_.totals.bytes += kv.bytes();
  open_page_.absorb(std::move(kv));
  if (can_spill() && open_page_.bytes() >= page_bytes_) close_open_page();
  Status s = enforce_budget();
  sync_meter();
  return s;
}

Status SpillableKvBuffer::append_page(KvBuffer&& page) {
  if (!can_spill()) return absorb_kv(std::move(page));
  if (page.empty()) return Status::Ok();
  close_open_page();
  Page p;
  p.pairs = page.size();
  p.bytes = page.bytes();
  p.mem = std::move(page);
  pager_.totals.resident += p.bytes;
  pager_.totals.items += p.pairs;
  pager_.totals.bytes += p.bytes;
  pages_.push_back(std::move(p));
  Status s = enforce_budget();
  sync_meter();
  return s;
}

Status SpillableKvBuffer::absorb_pages(SpillableKvBuffer&& other) {
  close_open_page();
  other.close_open_page();
  for (Page& p : other.pages_) pages_.push_back(std::move(p));
  other.pages_.clear();
  pager_.absorb(other.pager_);
  Status s = enforce_budget();
  sync_meter();
  return s;
}

void SpillableKvBuffer::shrink_to_fit() {
  for (Page& p : pages_) {
    if (!p.on_disk) p.mem.shrink_to_fit();
  }
  open_page_.shrink_to_fit();
}

size_t SpillableKvBuffer::spilled_page_count() const noexcept {
  size_t n = 0;
  for (const Page& p : pages_) n += p.on_disk ? 1 : 0;
  return n;
}

SpillableKvBuffer::PageInfo SpillableKvBuffer::page_info(
    size_t i) const noexcept {
  const Page& p = pages_[i];
  return {p.pairs, p.bytes, p.on_disk};
}

void SpillableKvBuffer::close_open_page() {
  if (open_page_.empty()) return;
  Page p;
  p.pairs = open_page_.size();
  p.bytes = open_page_.bytes();
  p.mem = std::move(open_page_);
  open_page_ = KvBuffer{};
  pager_.totals.resident += p.bytes;
  pages_.push_back(std::move(p));
}

Status SpillableKvBuffer::spill_oldest_resident() {
  auto it = std::find_if(pages_.begin(), pages_.end(),
                         [](const Page& p) { return !p.on_disk; });
  if (it == pages_.end()) return Status::Ok();
  Page& p = *it;
  // The wire image stays owned here until a write is verified complete: a
  // failed (or torn) spill re-adopts it, so no page is ever lost to the
  // storage layer.
  Bytes wire = std::move(p.mem).take_wire();
  if (auto s = pager_.write_page("page_", wire, p.path); !s.ok()) {
    (void)p.mem.adopt(std::move(wire));  // our own bytes; cannot fail
    return s;
  }
  p.on_disk = true;
  p.mem = KvBuffer{};
  pager_.totals.resident -= p.bytes;
  return Status::Ok();
}

Status SpillableKvBuffer::enforce_budget() {
  // Book the pre-spill residency: the meter's peak must see the transient
  // over-budget moment the budget is about to spill away.
  sync_meter();
  if (!can_spill() || memory_budget_ == 0) return Status::Ok();
  while (resident_bytes() > memory_budget_) {
    const bool have_resident =
        std::any_of(pages_.begin(), pages_.end(),
                    [](const Page& p) { return !p.on_disk; });
    // Only closed pages spill; an open page larger than the budget closes
    // (and then spills) as soon as it reaches page_bytes.
    if (!have_resident) break;
    if (auto s = spill_oldest_resident(); !s.ok()) return s;
  }
  return Status::Ok();
}

Status SpillableKvBuffer::load_page(const Page& p, KvBuffer& out) {
  return pager_.load_page(
      p.path, [&out](Bytes&& wire) { return out.adopt(std::move(wire)); });
}

Status SpillableKvBuffer::for_each(const std::function<void(KvView)>& fn) {
  return for_each_page([&fn](const KvBuffer& page) {
    for (KvView p : page) fn(p);
    return Status::Ok();
  });
}

Status SpillableKvBuffer::for_each_page(
    const std::function<Status(const KvBuffer&)>& fn) {
  for (const Page& p : pages_) {
    if (p.on_disk) {
      KvBuffer page;
      if (auto s = load_page(p, page); !s.ok()) return s;
      if (auto s = fn(page); !s.ok()) return s;
    } else {
      if (auto s = fn(p.mem); !s.ok()) return s;
    }
  }
  if (!open_page_.empty()) return fn(open_page_);
  return Status::Ok();
}

Status SpillableKvBuffer::read_page(size_t i, KvBuffer& out) {
  out.clear();
  if (i < pages_.size()) {
    const Page& p = pages_[i];
    if (p.on_disk) return load_page(p, out);
    out.reserve_records(p.pairs, p.bytes);
    out.merge_from(p.mem);
    return Status::Ok();
  }
  if (i == pages_.size() && !open_page_.empty()) {
    out.reserve_records(open_page_.size(), open_page_.bytes());
    out.merge_from(open_page_);
    return Status::Ok();
  }
  return {ErrorCode::kOutOfRange, "read_page: no such page"};
}

Status SpillableKvBuffer::pop_front_page(KvBuffer& out, bool& have) {
  out.clear();
  have = false;
  if (!pages_.empty()) {
    Page& p = pages_.front();
    if (p.on_disk) {
      if (auto s = load_page(p, out); !s.ok()) return s;  // page stays intact
      (void)pager_.remove_file(p.path);
    } else {
      out = std::move(p.mem);
      pager_.totals.resident -= p.bytes;
    }
    pager_.totals.items -= p.pairs;
    pager_.totals.bytes -= p.bytes;
    pages_.pop_front();
    have = true;
    sync_meter();
    return Status::Ok();
  }
  if (!open_page_.empty()) {
    pager_.totals.items -= open_page_.size();
    pager_.totals.bytes -= open_page_.bytes();
    out = std::move(open_page_);
    open_page_ = KvBuffer{};
    have = true;
    sync_meter();
  }
  return Status::Ok();
}

Status SpillableKvBuffer::drain_to(KvBuffer& out) {
  out.clear();
  const bool any_disk = std::any_of(pages_.begin(), pages_.end(),
                                    [](const Page& p) { return p.on_disk; });
  if (!any_disk) {
    // Nothing can fail: move every page (and splice the rest) wholesale.
    for (Page& p : pages_) out.absorb(std::move(p.mem));
    out.absorb(std::move(open_page_));
    pages_.clear();
    pager_.totals = {};
    sync_meter();
    return Status::Ok();
  }
  // Disk reads can fail mid-stream, so nothing is moved out of this buffer
  // until every page has been copied: on failure `out` is cleared and every
  // page — including the already-copied prefix — stays intact and
  // re-readable (spill files are only deleted by the success path below).
  out.reserve_records(size(), bytes());
  for (const Page& p : pages_) {
    if (p.on_disk) {
      KvBuffer page;
      if (auto s = load_page(p, page); !s.ok()) {
        out.clear();
        return s;
      }
      out.absorb(std::move(page));
    } else {
      out.merge_from(p.mem);
    }
  }
  out.merge_from(open_page_);
  return clear();
}

Status SpillableKvBuffer::clear() {
  open_page_.clear();
  return pager_.drop_pages(pages_);
}

// ---------------------------------------------------------------------------
// KMV page codec
// ---------------------------------------------------------------------------

Bytes encode_kmv(const KmvBuffer& kmv) {
  ByteWriter w;
  w.put<uint64_t>(kmv.size());
  for (size_t i = 0; i < kmv.size(); ++i) {
    const KmvView e = kmv.entry(i);
    w.put_string(e.key());
    w.put<uint64_t>(e.size());
    for (size_t v = 0; v < e.size(); ++v) w.put_string(e.value(v));
  }
  return std::move(w).take();
}

namespace {

std::string_view sv_of(std::span<const std::byte> b) noexcept {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

}  // namespace

Status decode_kmv(std::span<const std::byte> wire, KmvBuffer& out) {
  out.clear();
  ByteReader r(wire);
  uint64_t nentries = 0;
  if (auto s = r.get(nentries); !s.ok()) return s;
  // An entry is at least its two count fields; a header claiming more than
  // the payload could hold is structural corruption, caught before any
  // per-entry work.
  if (nentries > r.remaining() / (kLenPrefixBytes + sizeof(uint64_t))) {
    return {ErrorCode::kCorrupt, "kmv wire: entry count exceeds payload"};
  }
  for (uint64_t i = 0; i < nentries; ++i) {
    uint32_t klen = 0;
    std::span<const std::byte> key;
    if (auto s = r.get(klen); !s.ok()) { out.clear(); return s; }
    if (auto s = r.get_view(klen, key); !s.ok()) { out.clear(); return s; }
    uint64_t nvalues = 0;
    if (auto s = r.get(nvalues); !s.ok()) { out.clear(); return s; }
    if (nvalues > r.remaining() / kLenPrefixBytes) {
      out.clear();
      return {ErrorCode::kCorrupt, "kmv wire: value count exceeds payload"};
    }
    out.begin_entry(sv_of(key));
    for (uint64_t v = 0; v < nvalues; ++v) {
      uint32_t vlen = 0;
      std::span<const std::byte> val;
      if (auto s = r.get(vlen); !s.ok()) { out.clear(); return s; }
      if (auto s = r.get_view(vlen, val); !s.ok()) { out.clear(); return s; }
      out.append_value(sv_of(val));
    }
  }
  if (!r.exhausted()) {
    out.clear();
    return {ErrorCode::kCorrupt, "kmv wire: trailing bytes after last entry"};
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// SpillableKmvBuffer
// ---------------------------------------------------------------------------

// No meter is passed: KMV pages and the merge cursors are not booked yet
// (ROADMAP, "KMV residency is unmetered").
SpillableKmvBuffer::SpillableKmvBuffer(const SpillConfig& cfg)
    : pager_(cfg.enabled() ? cfg.fs : nullptr, cfg.node, cfg.dir, nullptr),
      page_bytes_(cfg.page_bytes ? cfg.page_bytes : 1),
      memory_budget_(cfg.memory_budget) {}

SpillableKmvBuffer::~SpillableKmvBuffer() { (void)clear(); }

Status SpillableKmvBuffer::add_run(KmvBuffer&& run) {
  if (run.empty()) return Status::Ok();
  Run r;
  r.first_page = pages_.size();
  pager_.totals.items += run.size();
  pager_.totals.bytes += run.bytes();
  // A spill failure retains the page resident (over budget, never lost), so
  // the run is always registered whole; the first error is surfaced after.
  Status first;
  auto flush = [&](KmvBuffer&& chunk) {
    if (auto s = append_page(std::move(chunk)); !s.ok() && first.ok()) first = s;
  };
  if (!pager_.can_spill() || run.bytes() <= page_bytes_) {
    // One page: it fits, or it could never spill (splitting would only
    // copy it).
    flush(std::move(run));
  } else {
    // Split into whole-entry pages of about page_bytes each.
    KmvBuffer chunk;
    for (size_t i = 0; i < run.size(); ++i) {
      const KmvView e = run.entry(i);
      chunk.begin_entry(e.key());
      for (size_t v = 0; v < e.size(); ++v) chunk.append_value(e.value(v));
      if (chunk.bytes() >= page_bytes_ && i + 1 < run.size()) {
        flush(std::move(chunk));
        chunk = KmvBuffer{};
      }
    }
    if (!chunk.empty()) flush(std::move(chunk));
  }
  r.npages = pages_.size() - r.first_page;
  runs_.push_back(r);
  return first;
}

Status SpillableKmvBuffer::append_page(KmvBuffer&& chunk) {
  Page p;
  p.entries = chunk.size();
  p.bytes = chunk.bytes();
  p.mem = std::move(chunk);
  pager_.totals.resident += p.bytes;
  pages_.push_back(std::move(p));
  Status s = enforce_budget();
  sync_meter();
  return s;
}

Status SpillableKmvBuffer::enforce_budget() {
  sync_meter();  // book the pre-spill residency (see SpillableKvBuffer)
  if (!pager_.can_spill() || memory_budget_ == 0) return Status::Ok();
  while (resident_bytes() > memory_budget_) {
    auto it = std::find_if(pages_.begin(), pages_.end(),
                           [](const Page& p) { return !p.on_disk; });
    if (it == pages_.end()) break;
    Page& p = *it;
    Bytes wire = encode_kmv(p.mem);
    // A failed write leaves the page resident; nothing is lost.
    if (auto s = pager_.write_page("kmv_", wire, p.path); !s.ok()) return s;
    p.on_disk = true;
    p.mem = KmvBuffer{};
    pager_.totals.resident -= p.bytes;
  }
  return Status::Ok();
}

Status SpillableKmvBuffer::load_page(const Page& p, KmvBuffer& out) {
  return pager_.load_page(
      p.path, [&out](Bytes&& wire) { return decode_kmv(wire, out); });
}

Status SpillableKmvBuffer::for_each_entry(
    size_t skip,
    const std::function<Status(std::string_view key,
                               std::span<const std::string_view> values)>& fn) {
  // One cursor per run; each holds exactly one page (resident pages are
  // referenced in place, spilled pages are loaded on arrival), so peak
  // residency of the merge is O(page_bytes x runs).
  // Cursors are stored (and moved) in a vector, so a cursor never holds a
  // pointer to its own `loaded` buffer: `resident` selects between the page
  // in place in pages_ and the cursor-owned loaded copy. Key/value views
  // stay valid across cursor moves because the KmvBuffer arena is heap
  // storage that moves by pointer.
  struct Cursor {
    size_t page = 0;      // global index into pages_
    size_t end_page = 0;  // first page past this run
    size_t entry = 0;     // within the current page
    KmvBuffer loaded;
    bool resident = false;  // current page is pages_[page].mem, not `loaded`
    bool done = false;
    std::string_view key;  // current entry's key
  };
  std::vector<Cursor> curs;
  curs.reserve(runs_.size());
  auto buf = [&](const Cursor& c) -> const KmvBuffer& {
    return c.resident ? pages_[c.page].mem : c.loaded;
  };
  // Cursor-loaded pages are real residency beyond resident_bytes() — book
  // them with the shared meter for the duration of the merge (released on
  // every exit path).
  MeterBooking booking = pager_.transient_booking();
  auto rebook_cursors = [&] {
    size_t n = 0;
    for (const Cursor& c : curs) {
      if (!c.done && !c.resident) n += pages_[c.page].bytes;
    }
    booking.set(n);
  };
  auto open_page = [&](Cursor& c) -> Status {
    const Page& p = pages_[c.page];
    if (p.on_disk) {
      c.loaded = KmvBuffer{};
      if (auto s = load_page(p, c.loaded); !s.ok()) return s;
      c.resident = false;
    } else {
      c.loaded = KmvBuffer{};
      c.resident = true;
    }
    c.entry = 0;
    return Status::Ok();
  };
  auto advance = [&](Cursor& c) -> Status {
    c.entry++;
    while (c.entry >= buf(c).size()) {
      c.page++;
      if (c.page >= c.end_page) {
        c.done = true;
        c.loaded = KmvBuffer{};
        return Status::Ok();
      }
      if (auto s = open_page(c); !s.ok()) return s;
    }
    c.key = buf(c).entry(c.entry).key();
    return Status::Ok();
  };
  for (const Run& r : runs_) {
    if (r.npages == 0) continue;
    Cursor c;
    c.page = r.first_page;
    c.end_page = r.first_page + r.npages;
    if (auto s = open_page(c); !s.ok()) return s;
    while (c.entry >= buf(c).size()) {  // tolerate empty leading pages
      c.page++;
      if (c.page >= c.end_page) {
        c.done = true;
        break;
      }
      if (auto s = open_page(c); !s.ok()) return s;
    }
    if (c.done) continue;
    c.key = buf(c).entry(c.entry).key();
    curs.push_back(std::move(c));
  }
  rebook_cursors();
  size_t live = curs.size();
  std::vector<size_t> winners;
  std::vector<std::string_view> values;
  while (live > 0) {
    // Min key across live cursors; ties merge their value lists in run
    // order (runs are registered in bucket order, so this is stable).
    std::string_view min_key;
    bool found = false;
    for (const Cursor& c : curs) {
      if (c.done) continue;
      if (!found || c.key < min_key) {
        min_key = c.key;
        found = true;
      }
    }
    winners.clear();
    for (size_t i = 0; i < curs.size(); ++i) {
      if (!curs[i].done && curs[i].key == min_key) winners.push_back(i);
    }
    if (skip > 0) {
      skip--;
    } else {
      values.clear();
      for (size_t w : winners) {
        const Cursor& c = curs[w];
        const KmvView e = buf(c).entry(c.entry);
        for (size_t v = 0; v < e.size(); ++v) values.push_back(e.value(v));
      }
      if (auto s = fn(min_key, values); !s.ok()) return s;
    }
    // Advance only after fn returned: the views above alias winner pages.
    for (size_t w : winners) {
      if (auto s = advance(curs[w]); !s.ok()) return s;
      if (curs[w].done) live--;
    }
    rebook_cursors();
  }
  return Status::Ok();
}

Status SpillableKmvBuffer::clear() {
  runs_.clear();
  return pager_.drop_pages(pages_);
}

}  // namespace ftmr::mr
