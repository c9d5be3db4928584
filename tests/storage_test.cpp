// Tests for the simulated storage hierarchy, the retry ladder, the copier
// agent, and the recovery prefetcher.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <filesystem>
#include <string>
#include <vector>

#include "storage/copier.hpp"
#include "storage/segment_store.hpp"
#include "storage/storage.hpp"

namespace ftmr::storage {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  StorageTest() : tmp_("ftmr-storage-test") {
    StorageOptions opts;
    opts.root = tmp_.path();
    fs_ = std::make_unique<StorageSystem>(opts);
  }
  TempDir tmp_;
  std::unique_ptr<StorageSystem> fs_;
};

TEST_F(StorageTest, WriteReadRoundTripShared) {
  double wcost = 0, rcost = 0;
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "dir/a.bin",
                              as_bytes_view("hello storage"), &wcost).ok());
  Bytes out;
  ASSERT_TRUE(fs_->read_file(Tier::kShared, 0, "dir/a.bin", out, &rcost).ok());
  EXPECT_EQ(to_string_copy(out), "hello storage");
  EXPECT_GT(wcost, 0.0);
  EXPECT_GT(rcost, 0.0);
}

TEST_F(StorageTest, LocalTierIsPerNode) {
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 1, "f", as_bytes_view("n1")).ok());
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 2, "f", as_bytes_view("n2")).ok());
  Bytes out;
  ASSERT_TRUE(fs_->read_file(Tier::kLocal, 1, "f", out).ok());
  EXPECT_EQ(to_string_copy(out), "n1");
  ASSERT_TRUE(fs_->read_file(Tier::kLocal, 2, "f", out).ok());
  EXPECT_EQ(to_string_copy(out), "n2");
  EXPECT_FALSE(fs_->exists(Tier::kLocal, 3, "f"));
}

TEST_F(StorageTest, AppendAccumulates) {
  ASSERT_TRUE(fs_->append_file(Tier::kShared, 0, "log", as_bytes_view("ab")).ok());
  ASSERT_TRUE(fs_->append_file(Tier::kShared, 0, "log", as_bytes_view("cd")).ok());
  // Each append books one write op and its bytes, like write_file.
  EXPECT_EQ(fs_->stats(Tier::kShared).write_ops, 2);
  EXPECT_EQ(fs_->stats(Tier::kShared).bytes_written, 4u);
  Bytes out;
  ASSERT_TRUE(fs_->read_file(Tier::kShared, 0, "log", out).ok());
  EXPECT_EQ(to_string_copy(out), "abcd");
  EXPECT_EQ(fs_->file_size(Tier::kShared, 0, "log"), 4);
}

TEST_F(StorageTest, ReadMissingFileIsNotFound) {
  Bytes out;
  EXPECT_EQ(fs_->read_file(Tier::kShared, 0, "nope", out).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(fs_->file_size(Tier::kShared, 0, "nope"), -1);
}

TEST_F(StorageTest, ListDirRecursesAndSorts) {
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "ck/b/2", as_bytes_view("x")).ok());
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "ck/a/1", as_bytes_view("x")).ok());
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "other/z", as_bytes_view("x")).ok());
  std::vector<std::string> names;
  ASSERT_TRUE(fs_->list_dir(Tier::kShared, 0, "ck", names).ok());
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a/1");
  EXPECT_EQ(names[1], "b/2");
  ASSERT_TRUE(fs_->list_dir(Tier::kShared, 0, "does-not-exist", names).ok());
  EXPECT_TRUE(names.empty());
}

TEST(ListDir, NamesAreRelativeUnderASymlinkedRoot) {
  TempDir tmp("ftmr-storage-symlink");
  std::filesystem::create_directories(tmp.path() / "real");
  std::filesystem::create_directory_symlink(tmp.path() / "real", tmp.path() / "link");
  StorageOptions opts;
  opts.root = tmp.path() / "link";
  StorageSystem fs(opts);
  for (const char* p : {"ck/r1/z", "ck/r0/b/2", "ck/r0/a", "ck/r0/b/1", "out/x"}) {
    ASSERT_TRUE(fs.write_file(Tier::kShared, 0, p, as_bytes_view("x")).ok());
  }
  std::vector<std::string> names;
  ASSERT_TRUE(fs.list_dir(Tier::kShared, 0, "ck", names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"r0/a", "r0/b/1", "r0/b/2", "r1/z"}));
}

TEST_F(StorageTest, RemoveDeletes) {
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "f", as_bytes_view("x")).ok());
  ASSERT_TRUE(fs_->remove(Tier::kShared, 0, "f").ok());
  EXPECT_FALSE(fs_->exists(Tier::kShared, 0, "f"));
}

TEST_F(StorageTest, CopyAcrossTiers) {
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "src", as_bytes_view("move me")).ok());
  double cost = 0;
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "src", Tier::kShared, 0, "dst", &cost).ok());
  Bytes out;
  ASSERT_TRUE(fs_->read_file(Tier::kShared, 0, "dst", out).ok());
  EXPECT_EQ(to_string_copy(out), "move me");
  EXPECT_GT(cost, 0.0);
}

// A clean copy within one directory shares its source's bytes on the host.
// Each tier must still behave as an independent copy, and a copy must draw
// and book exactly what read_file + write_file do.

Bytes read_back(StorageSystem& fs, Tier tier, int node, std::string_view path) {
  Bytes out;
  EXPECT_TRUE(fs.read_file(tier, node, path, out).ok()) << path;
  return out;
}

TEST_F(StorageTest, CopyKeepsOldBytesWhenSourceIsRewritten) {
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "ck/a", as_bytes_view("old")).ok());
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "ck/a", Tier::kShared, 0, "ck/a").ok());
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "ck/a", as_bytes_view("new!")).ok());
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kShared, 0, "ck/a")), "old");
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0, "ck/a")), "new!");
}

TEST_F(StorageTest, AppendToCopyLeavesSourceUnchanged) {
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "src", as_bytes_view("ab")).ok());
  ASSERT_TRUE(fs_->copy(Tier::kShared, 0, "src", Tier::kLocal, 1, "dst").ok());
  ASSERT_TRUE(fs_->append_file(Tier::kLocal, 1, "dst", as_bytes_view("cd")).ok());
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 1, "dst")), "abcd");
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kShared, 0, "src")), "ab");
}

TEST_F(StorageTest, SharedCopySurvivesNodeWipe) {
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 3, "ck/r6/f", as_bytes_view("ckpt")).ok());
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 3, "ck/r6/f", Tier::kShared, 3, "ck/r6/f").ok());
  fs_->wipe_node_local(3);
  EXPECT_FALSE(fs_->exists(Tier::kLocal, 3, "ck/r6/f"));
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kShared, 3, "ck/r6/f")), "ckpt");
}

TEST_F(StorageTest, CopyReplacesExistingDestination) {
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "src", as_bytes_view("fresh")).ok());
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "dst", as_bytes_view("stale bytes")).ok());
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "src", Tier::kShared, 0, "dst").ok());
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kShared, 0, "dst")), "fresh");
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0, "src")), "fresh");
}

TEST_F(StorageTest, CopyOntoItselfLeavesFileIntact) {
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "f", as_bytes_view("keep me")).ok());
  ASSERT_TRUE(fs_->copy(Tier::kShared, 0, "f", Tier::kShared, 0, "f").ok());
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kShared, 0, "f")), "keep me");
}

TEST_F(StorageTest, CorruptReadCopyHoldsFlippedBytesAndSourceStaysClean) {
  const std::string clean = "sixteen bytes!!!";
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "src", as_bytes_view(clean)).ok());
  FaultInjectorConfig fc;
  fc.local.p_corrupt_read = 1.0;
  fs_->set_fault_injector(fc);
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "src", Tier::kShared, 0, "dst").ok());
  fs_->clear_fault_injector();
  const std::string copied = to_string_copy(read_back(*fs_, Tier::kShared, 0, "dst"));
  ASSERT_EQ(copied.size(), clean.size());
  int flipped_bits = 0;
  for (size_t i = 0; i < clean.size(); ++i) {
    flipped_bits += std::popcount(static_cast<unsigned char>(copied[i] ^ clean[i]));
  }
  EXPECT_EQ(flipped_bits, 1);
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0, "src")), clean);
  EXPECT_EQ(fs_->fault_stats().corrupt_reads, 1);
}

TEST_F(StorageTest, TornWriteCopyHoldsStrictPrefix) {
  const std::string whole = "a checkpoint that tears";
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "src", as_bytes_view(whole)).ok());
  FaultInjectorConfig fc;
  fc.shared.p_torn_write = 1.0;
  fs_->set_fault_injector(fc);
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "src", Tier::kShared, 0, "dst").ok());
  fs_->clear_fault_injector();
  const std::string copied = to_string_copy(read_back(*fs_, Tier::kShared, 0, "dst"));
  EXPECT_LT(copied.size(), whole.size());
  EXPECT_EQ(copied, whole.substr(0, copied.size()));
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0, "src")), whole);
  EXPECT_EQ(fs_->fault_stats().torn_writes, 1);
}

TEST(CopyParity, CopyDrawsAndBooksLikeReadThenWrite) {
  // Two systems armed alike: one copies, the other reads and writes. Every
  // cost, counter, fault and resulting file must agree.
  TempDir tmp("ftmr-storage-copy-parity");
  FaultInjectorConfig fc;
  fc.seed = 77;
  for (TierFaults* f : {&fc.local, &fc.shared}) {
    f->p_write_fail = 0.15;
    f->p_torn_write = 0.15;
    f->p_read_fail = 0.15;
    f->p_corrupt_read = 0.15;
  }
  StorageOptions a_opts, b_opts;
  a_opts.root = tmp.path() / "a";
  b_opts.root = tmp.path() / "b";
  StorageSystem a(a_opts), b(b_opts);
  for (StorageSystem* fs : {&a, &b}) {
    for (int i = 0; i < 24; ++i) {
      const std::string body(static_cast<size_t>(40 + i), static_cast<char>('a' + i));
      ASSERT_TRUE(fs->write_file(Tier::kLocal, 0, "f" + std::to_string(i),
                                 as_bytes_view(body)).ok());
    }
    fs->set_fault_injector(fc);
  }
  int faulted = 0;
  std::vector<std::pair<Tier, std::string>> copied;
  for (int i = 0; i < 24; ++i) {
    const std::string src = "f" + std::to_string(i);
    const std::string dst = "d" + std::to_string(i);
    const Tier to = i % 2 ? Tier::kShared : Tier::kLocal;
    double copy_cost = -1.0;
    const Status cs = a.copy(Tier::kLocal, 0, src, to, 0, dst, &copy_cost, 8);
    double read_cost = 0.0, write_cost = 0.0;
    Bytes data;
    Status rw = b.read_file(Tier::kLocal, 0, src, data, &read_cost, 8);
    if (rw.ok()) rw = b.write_file(to, 0, dst, data, &write_cost, 8);
    SCOPED_TRACE(i);
    EXPECT_EQ(cs.code(), rw.code());
    if (!cs.ok()) {
      faulted++;
      continue;
    }
    EXPECT_EQ(copy_cost, read_cost + write_cost);
    copied.emplace_back(to, dst);
  }
  EXPECT_GT(faulted, 0);
  EXPECT_GT(copied.size(), 0u);
  const FaultStats fa = a.fault_stats(), fb = b.fault_stats();
  EXPECT_EQ(fa.write_failures, fb.write_failures);
  EXPECT_EQ(fa.torn_writes, fb.torn_writes);
  EXPECT_EQ(fa.read_failures, fb.read_failures);
  EXPECT_EQ(fa.corrupt_reads, fb.corrupt_reads);
  EXPECT_GT(fa.torn_writes, 0);
  EXPECT_GT(fa.corrupt_reads, 0);
  for (Tier t : {Tier::kLocal, Tier::kShared}) {
    const TierStats sa = a.stats(t), sb = b.stats(t);
    EXPECT_EQ(sa.bytes_written, sb.bytes_written);
    EXPECT_EQ(sa.bytes_read, sb.bytes_read);
    EXPECT_EQ(sa.write_ops, sb.write_ops);
    EXPECT_EQ(sa.read_ops, sb.read_ops);
  }
  a.clear_fault_injector();
  b.clear_fault_injector();
  for (const auto& [tier, path] : copied) {
    EXPECT_EQ(read_back(a, tier, 0, path), read_back(b, tier, 0, path)) << path;
  }
}

// The host footprint of the segment store: one host file per store, whose
// allocated bytes (st_blocks, not its size: a freed run is a hole) are the
// live logical bytes plus at most one block per live extent.

/// The regular files under `root`, their block size and the bytes the file
/// system has allocated to them.
struct HostUsage {
  size_t files = 0;
  uint64_t block = 0;
  uint64_t allocated = 0;
};

HostUsage host_usage(const std::filesystem::path& root) {
  HostUsage u;
  for (const auto& e : std::filesystem::recursive_directory_iterator(root)) {
    struct stat st {};
    if (!e.is_regular_file() || ::stat(e.path().c_str(), &st) != 0) continue;
    u.files++;
    u.block = static_cast<uint64_t>(st.st_blksize);
    u.allocated += static_cast<uint64_t>(st.st_blocks) * 512;
  }
  return u;
}

/// The descriptors this process holds open.
size_t open_descriptors() {
  const std::filesystem::directory_iterator fds("/proc/self/fd");
  return static_cast<size_t>(std::distance(begin(fds), end(fds)));
}

TEST_F(StorageTest, StoreKeepsOneHostFileOfLiveBytes) {
  // Files on three nodes' disks and the shared tier, in seven directories.
  uint64_t live = 0;
  for (int i = 0; i < 100; ++i) {
    const std::string body = "frame " + std::to_string(i) + std::string(i * 97, 'f');
    const Tier tier = i % 2 == 0 ? Tier::kShared : Tier::kLocal;
    const std::string path = "ck/r" + std::to_string(i % 7) + "/f" + std::to_string(i);
    ASSERT_TRUE(fs_->write_file(tier, i % 3, path, as_bytes_view(body)).ok());
    live += body.size();
  }
  HostUsage u = host_usage(tmp_.path());
  EXPECT_EQ(u.files, 1u);
  EXPECT_LE(u.allocated, live + 100 * u.block);
  std::vector<std::string> names;
  ASSERT_TRUE(fs_->list_dir(Tier::kShared, 0, "ck", names).ok());
  EXPECT_EQ(names.size(), 50u);
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0, "ck/r3/f45")),
            "frame 45" + std::string(45 * 97, 'f'));
  // Removing every file punches every run out of the host file.
  ASSERT_TRUE(fs_->remove(Tier::kShared, 0, "ck").ok());
  for (int node = 0; node < 3; ++node) {
    ASSERT_TRUE(fs_->remove(Tier::kLocal, node, "ck").ok());
  }
  u = host_usage(tmp_.path());
  EXPECT_EQ(u.files, 1u);
  EXPECT_LE(u.allocated, u.block);
}

TEST_F(StorageTest, StreamedFilesKeepOnlyTheirOwnBlocks) {
  // A producer writes files while a consumer removes the oldest, three
  // live at a time: a run's blocks go as soon as its file does.
  constexpr int kFiles = 2000;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "spill/page_" + std::to_string(i),
                                as_bytes_view("page " + std::to_string(i))).ok());
    if (i >= 3) {
      ASSERT_TRUE(
          fs_->remove(Tier::kLocal, 0, "spill/page_" + std::to_string(i - 3)).ok());
    }
    const HostUsage u = host_usage(tmp_.path());
    ASSERT_EQ(u.files, 1u);
    ASSERT_LE(u.allocated, 3 * u.block) << "after " << i + 1 << " files";
  }
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0,
                                     "spill/page_" + std::to_string(kFiles - 1))),
            "page " + std::to_string(kFiles - 1));
  ASSERT_TRUE(fs_->remove(Tier::kLocal, 0, "spill").ok());
  const HostUsage u = host_usage(tmp_.path());
  EXPECT_LE(u.allocated, u.block);
}

TEST_F(StorageTest, CleanCopiesAddNoAllocatedBytes) {
  // Within a directory and to another node's disk: the copies share the
  // source's run, which outlives the source.
  const std::string body(10000, 'c');
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "ck/r0/probe", as_bytes_view(body)).ok());
  const uint64_t before = host_usage(tmp_.path()).allocated;
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "ck/r0/probe", Tier::kLocal, 0,
                        "ck/r0/stamped").ok());
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "ck/r0/probe", Tier::kLocal, 1,
                        "ck/r0/probe").ok());
  EXPECT_EQ(host_usage(tmp_.path()).allocated, before);
  ASSERT_TRUE(fs_->remove(Tier::kLocal, 0, "ck/r0/probe").ok());
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0, "ck/r0/stamped")), body);
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 1, "ck/r0/probe")), body);
  EXPECT_EQ(host_usage(tmp_.path()).allocated, before) << "the copies keep the run";
}

TEST_F(StorageTest, CleanLocalToSharedCopyAddsNoAllocatedBytes) {
  // A drained delta log: five appended extents on node 3's disk.
  std::string body;
  for (int i = 0; i < 5; ++i) {
    const std::string piece(3000 + static_cast<size_t>(i), static_cast<char>('a' + i));
    ASSERT_TRUE(fs_->append_file(Tier::kLocal, 3, "ck/r6/delta", as_bytes_view(piece)).ok());
    body += piece;
  }
  const uint64_t before = host_usage(tmp_.path()).allocated;
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 3, "ck/r6/delta", Tier::kShared, 0,
                        "ck_shared/r6/delta").ok());
  EXPECT_EQ(host_usage(tmp_.path()).allocated, before);
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kShared, 0, "ck_shared/r6/delta")), body);
  // The copy is still booked as a write of every byte.
  EXPECT_EQ(fs_->stats(Tier::kShared).bytes_written, body.size());
}

TEST_F(StorageTest, SharedCopySurvivesWipeOfItsSourceNode) {
  std::string body(20000, '\0');
  for (size_t i = 0; i < body.size(); ++i) body[i] = static_cast<char>(i * 131 + 7);
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 2, "ck/r4/f0", as_bytes_view(body)).ok());
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 2, "ck/r4/f0", Tier::kShared, 0, "ck/r4/f0").ok());
  fs_->wipe_node_local(2);
  EXPECT_FALSE(fs_->exists(Tier::kLocal, 2, "ck/r4/f0"));
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kShared, 0, "ck/r4/f0")), body);
  // The shared copy held the last reference to the run.
  ASSERT_TRUE(fs_->remove(Tier::kShared, 0, "ck").ok());
  const HostUsage u = host_usage(tmp_.path());
  EXPECT_LE(u.allocated, u.block);
}

TEST_F(StorageTest, TornCopySharesExactlyThePrefix) {
  std::string body;
  for (int i = 0; i < 4; ++i) {
    const std::string piece(2500, static_cast<char>('p' + i));
    ASSERT_TRUE(fs_->append_file(Tier::kLocal, 0, "ck/r0/stream", as_bytes_view(piece)).ok());
    body += piece;
  }
  const uint64_t before = host_usage(tmp_.path()).allocated;
  FaultInjectorConfig fc;
  fc.shared.p_torn_write = 1.0;
  fs_->set_fault_injector(fc);
  ASSERT_TRUE(fs_->copy(Tier::kLocal, 0, "ck/r0/stream", Tier::kShared, 0,
                        "ck/r0/stream").ok());
  fs_->clear_fault_injector();
  EXPECT_EQ(fs_->fault_stats().torn_writes, 1);
  const std::string torn = to_string_copy(read_back(*fs_, Tier::kShared, 0, "ck/r0/stream"));
  EXPECT_LT(torn.size(), body.size());
  EXPECT_EQ(torn, body.substr(0, torn.size()));
  EXPECT_EQ(fs_->stats(Tier::kShared).bytes_written, torn.size());
  EXPECT_EQ(host_usage(tmp_.path()).allocated, before);
  EXPECT_EQ(to_string_copy(read_back(*fs_, Tier::kLocal, 0, "ck/r0/stream")), body);
}

TEST_F(StorageTest, StashedExtentIsOneRunPunchedByItsLastHolder) {
  std::string body(10000, '\0');
  for (size_t i = 0; i < body.size(); ++i) body[i] = static_cast<char>(i * 13 + 1);
  SegmentStore::Extent a;
  ASSERT_TRUE(fs_->segments().stash(as_bytes_view(body), a).ok());
  EXPECT_EQ(a.len, body.size());
  HostUsage u = host_usage(tmp_.path());
  EXPECT_EQ(u.files, 1u);
  EXPECT_GE(u.allocated, body.size());
  EXPECT_LE(u.allocated, body.size() + u.block);
  SegmentStore::Extent b = a;  // a copy shares the run
  a = {};
  Bytes out;
  ASSERT_TRUE(fs_->segments().load(b, out).ok());
  EXPECT_EQ(to_string_copy(out), body);
  EXPECT_EQ(host_usage(tmp_.path()).allocated, u.allocated);
  b = {};
  u = host_usage(tmp_.path());
  EXPECT_LE(u.allocated, u.block);
}

// Pieces stashed together are one run and one host write; each is a byte
// range of the extent, read back on its own. A range past the extent's
// end is refused, and so is any read through a released extent, which
// holds no run: its bytes were punched with the last holder.
TEST_F(StorageTest, StashedPiecesShareOneRunReadBackByRange) {
  const std::string a(5000, 'a'), b = "bb", c(7000, 'c');
  const std::vector<std::span<const std::byte>> pieces = {
      as_bytes_view(a), {}, as_bytes_view(b), as_bytes_view(c)};
  SegmentStore::Extent run;
  ASSERT_TRUE(fs_->segments().stash(pieces, run).ok());
  EXPECT_EQ(run.len, a.size() + b.size() + c.size());
  HostUsage u = host_usage(tmp_.path());
  EXPECT_EQ(u.files, 1u);
  EXPECT_LE(u.allocated, run.len + u.block);
  Bytes out(b.size());
  ASSERT_TRUE(fs_->segments().load(run, a.size(), out).ok());
  EXPECT_EQ(to_string_copy(out), b);
  out.resize(c.size());
  ASSERT_TRUE(fs_->segments().load(run, a.size() + b.size(), out).ok());
  EXPECT_EQ(to_string_copy(out), c);
  ASSERT_TRUE(fs_->segments().load(run, run.len, std::span<std::byte>()).ok());
  Bytes two(2);
  EXPECT_EQ(fs_->segments().load(run, run.len - 1, two).code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(fs_->segments().load(run, run.len + 1, std::span<std::byte>()).code(),
            ErrorCode::kOutOfRange);

  SegmentStore::Extent none;  // nothing to stash: no run
  ASSERT_TRUE(fs_->segments().stash(std::vector<std::span<const std::byte>>(2), none).ok());
  EXPECT_EQ(none.run, nullptr);
  EXPECT_EQ(none.len, 0u);

  run = {};
  u = host_usage(tmp_.path());
  EXPECT_LE(u.allocated, u.block);
  EXPECT_EQ(fs_->segments().load(run, 0, two).code(), ErrorCode::kOutOfRange);
  Bytes whole;
  ASSERT_TRUE(fs_->segments().load(run, whole).ok());
  EXPECT_TRUE(whole.empty());
}

TEST_F(StorageTest, ExtentOfSharesAWholeFileOnly) {
  const std::string body(6000, 'w');
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 1, "ck/r2/f", as_bytes_view(body)).ok());
  const uint64_t before = host_usage(tmp_.path()).allocated;
  SegmentStore::Extent e;
  ASSERT_TRUE(fs_->segments().extent_of(Tier::kLocal, 1, "ck/r2/f", e));
  EXPECT_EQ(e.len, body.size());
  EXPECT_FALSE(fs_->segments().extent_of(Tier::kLocal, 0, "ck/r2/f", e));
  ASSERT_TRUE(fs_->append_file(Tier::kShared, 0, "log", as_bytes_view("ab")).ok());
  ASSERT_TRUE(fs_->append_file(Tier::kShared, 0, "log", as_bytes_view("cd")).ok());
  SegmentStore::Extent appended;
  EXPECT_FALSE(fs_->segments().extent_of(Tier::kShared, 0, "log", appended));
  // The extent outlives its file and the file's node.
  ASSERT_TRUE(fs_->remove(Tier::kLocal, 1, "ck").ok());
  fs_->wipe_node_local(1);
  Bytes out;
  ASSERT_TRUE(fs_->segments().load(e, out).ok());
  EXPECT_EQ(to_string_copy(out), body);
  EXPECT_GE(host_usage(tmp_.path()).allocated, before);
}

TEST_F(StorageTest, OneHostFileAndOneDescriptorPerStore) {
  const size_t fds = open_descriptors();
  TempDir tmp("ftmr-storage-fds");
  {
    StorageOptions opts;
    opts.root = tmp.path() / "fs";
    StorageSystem fs(opts);
    EXPECT_EQ(open_descriptors(), fds + 1);
    for (int i = 0; i < 50; ++i) {
      const std::string path = "d" + std::to_string(i % 5) + "/f" + std::to_string(i);
      ASSERT_TRUE(fs.write_file(Tier::kLocal, i % 4, path, as_bytes_view(path)).ok());
      ASSERT_TRUE(fs.append_file(Tier::kLocal, i % 4, path, as_bytes_view("+")).ok());
      ASSERT_TRUE(fs.copy(Tier::kLocal, i % 4, path, Tier::kShared, 0, path).ok());
      EXPECT_EQ(to_string_copy(read_back(fs, Tier::kShared, 0, path)), path + "+");
      if (i % 3 == 0) {
        ASSERT_TRUE(fs.remove(Tier::kLocal, i % 4, path).ok());
      }
    }
    EXPECT_EQ(open_descriptors(), fds + 1);
    EXPECT_EQ(host_usage(tmp.path()).files, 1u);
  }
  EXPECT_EQ(open_descriptors(), fds);
  EXPECT_EQ(host_usage(tmp.path()).files, 0u);
}

TEST_F(StorageTest, PathSpellingsNameOneFile) {
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "a//b/./c", as_bytes_view("x")).ok());
  EXPECT_EQ(fs_->file_size(Tier::kShared, 0, "a/b/c"), 1);
  EXPECT_TRUE(fs_->exists(Tier::kShared, 0, "a/b/"));
  EXPECT_FALSE(fs_->exists(Tier::kShared, 0, "a/b/c/d"));
  // A sibling that sorts between "a" and "a/..." is not under "a".
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "a-z", as_bytes_view("y")).ok());
  std::vector<std::string> names;
  ASSERT_TRUE(fs_->list_dir(Tier::kShared, 0, "a/", names).ok());
  EXPECT_EQ(names, (std::vector<std::string>{"b/c"}));
  ASSERT_TRUE(fs_->remove(Tier::kShared, 0, "a").ok());
  EXPECT_TRUE(fs_->exists(Tier::kShared, 0, "a-z"));
  EXPECT_FALSE(fs_->exists(Tier::kShared, 0, "a"));
}

TEST_F(StorageTest, WipeNodeLocalModelsNodeCrash) {
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 5, "ck", as_bytes_view("x")).ok());
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 5, "ck", as_bytes_view("x")).ok());
  fs_->wipe_node_local(5);
  EXPECT_FALSE(fs_->exists(Tier::kLocal, 5, "ck"));
  EXPECT_TRUE(fs_->exists(Tier::kShared, 5, "ck"));  // shared tier survives
}

TEST_F(StorageTest, StatsAreCounted) {
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "s", as_bytes_view("abcd")).ok());
  Bytes out;
  ASSERT_TRUE(fs_->read_file(Tier::kShared, 0, "s", out).ok());
  const TierStats st = fs_->stats(Tier::kShared);
  EXPECT_EQ(st.bytes_written, 4u);
  EXPECT_EQ(st.bytes_read, 4u);
  EXPECT_EQ(st.write_ops, 1);
  EXPECT_EQ(st.read_ops, 1);
}

TEST(TierModel, ContentionScalesCost) {
  TierModel shared{1e-3, 4.0e8, 2.0e10};
  // Below saturation (<= 50 writers at 400 MB/s vs 20 GB/s aggregate),
  // per-process bandwidth is unaffected.
  EXPECT_DOUBLE_EQ(shared.cost(4ull << 20, 1, 1), shared.cost(4ull << 20, 1, 50));
  // Beyond saturation cost grows ~linearly with writers.
  const double c256 = shared.cost(100 << 20, 1, 256);
  const double c512 = shared.cost(100 << 20, 1, 512);
  EXPECT_GT(c512, c256 * 1.8);
}

TEST(TierModel, OpLatencyDominatesSmallIo) {
  TierModel shared{2e-3, 4.0e8, 0.0};
  // 100 bytes: ~entirely op latency. This is the paper's "small I/O kills
  // GPFS" premise that motivates the local+copier design.
  const double c = shared.cost(100, 1, 1);
  EXPECT_GT(2e-3 / c, 0.99);
}

// The one retry ladder: a body that succeeds on attempt k makes k calls,
// the retries wait 1, 4 and 16 ms, a non-transient error stops at once and
// a transient one is retried up to max_attempts.
TEST(RetryLadder, RetriesTransientErrorsOnlyWithExponentialBackoff) {
  struct Run {
    int calls = 0;
    std::vector<double> backoffs;
    Status result;
  };
  auto climb = [](int succeed_on, ErrorCode fail_with) {
    Run r;
    r.result = RetryPolicy::run(
        [&](int attempt) {
          EXPECT_EQ(attempt, ++r.calls);
          return attempt == succeed_on ? Status::Ok() : Status{fail_with, "x"};
        },
        [&](double backoff) { r.backoffs.push_back(backoff); });
    return r;
  };
  for (int k = 1; k <= RetryPolicy::max_attempts; ++k) {
    SCOPED_TRACE("succeeds on attempt " + std::to_string(k));
    const Run r = climb(k, ErrorCode::kIo);
    EXPECT_TRUE(r.result.ok());
    EXPECT_EQ(r.calls, k);
    EXPECT_EQ(r.backoffs.size(), static_cast<size_t>(k - 1));
  }
  EXPECT_EQ(climb(0, ErrorCode::kIo).backoffs,
            (std::vector<double>{1e-3, 4e-3, 16e-3}));
  for (const ErrorCode code : {ErrorCode::kNotFound, ErrorCode::kFailedPrecondition,
                               ErrorCode::kInvalidArgument}) {
    SCOPED_TRACE(std::string(to_string(code)));
    const Run r = climb(0, code);
    EXPECT_EQ(r.result.code(), code);
    EXPECT_EQ(r.calls, 1);
    EXPECT_TRUE(r.backoffs.empty());
  }
  for (const ErrorCode code : {ErrorCode::kIo, ErrorCode::kCorrupt}) {
    SCOPED_TRACE(std::string(to_string(code)));
    const Run r = climb(0, code);
    EXPECT_EQ(r.result.code(), code);
    EXPECT_EQ(r.calls, RetryPolicy::max_attempts);
    EXPECT_EQ(r.backoffs.size(), static_cast<size_t>(RetryPolicy::max_attempts - 1));
  }
}

TEST(NoLocalDisk, LocalOpsFail) {
  TempDir tmp("ftmr-nolocal");
  StorageOptions opts;
  opts.root = tmp.path();
  opts.has_local_disk = false;
  StorageSystem fs(opts);
  // Distinct from kIo: a missing tier is a configuration error, so retry
  // layers fail fast instead of spinning on it.
  EXPECT_EQ(fs.write_file(Tier::kLocal, 0, "f", as_bytes_view("x")).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(fs.write_file(Tier::kShared, 0, "f", as_bytes_view("x")).ok());
}

class CopierTest : public StorageTest {};

TEST_F(CopierTest, CopiesArriveOnSharedTier) {
  CopierAgent copier(fs_.get(), 0, 1);
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "ck/1", as_bytes_view("one")).ok());
  double done = 0;
  ASSERT_TRUE(copier.enqueue("ck/1", "job/ck/1", 10.0, &done).ok());
  EXPECT_GT(done, 10.0);
  Bytes out;
  ASSERT_TRUE(fs_->read_file(Tier::kShared, 0, "job/ck/1", out).ok());
  EXPECT_EQ(to_string_copy(out), "one");
  EXPECT_EQ(copier.copies(), 1);
  EXPECT_EQ(copier.bytes_copied(), 3u);
}

TEST_F(CopierTest, QueueingSerializesOnCopierTimeline) {
  CopierAgent copier(fs_.get(), 0, 1);
  Bytes big(10 << 20);  // 10 MB
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "a", big).ok());
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "b", big).ok());
  double done_a = 0, done_b = 0;
  ASSERT_TRUE(copier.enqueue("a", "a", 0.0, &done_a).ok());
  ASSERT_TRUE(copier.enqueue("b", "b", 0.0, &done_b).ok());
  EXPECT_GT(done_b, done_a);  // b waits for a on the copier's timeline
  EXPECT_NEAR(done_b, 2 * done_a, 1e-9);
}

TEST_F(CopierTest, DrainWaitIsZeroWhenCaughtUp) {
  CopierAgent copier(fs_.get(), 0, 1);
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "x", as_bytes_view("x")).ok());
  double done = 0;
  ASSERT_TRUE(copier.enqueue("x", "x", 0.0, &done).ok());
  EXPECT_NEAR(copier.drain_wait(done + 1.0), 0.0, 1e-12);
  EXPECT_GT(copier.drain_wait(0.0), 0.0);
}

TEST_F(CopierTest, CpuCostIsSmallFractionOfIo) {
  CopierAgent copier(fs_.get(), 0, 1);
  Bytes big(4 << 20);
  ASSERT_TRUE(fs_->write_file(Tier::kLocal, 0, "big", big).ok());
  ASSERT_TRUE(copier.enqueue("big", "big", 0.0).ok());
  // Fig. 7: copier CPU ~3% of job; at minimum CPU << IO for the copier.
  EXPECT_LT(copier.cpu_seconds(), 0.2 * copier.io_seconds());
}

class PrefetcherTest : public StorageTest {};

TEST_F(PrefetcherTest, StagesFilesInOrder) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "ck/f" + std::to_string(i),
                                as_bytes_view("data" + std::to_string(i))).ok());
  }
  Prefetcher pf(fs_.get(), 0, 1);
  std::vector<std::string> paths{"ck/f0", "ck/f1", "ck/f2", "ck/f3"};
  ASSERT_TRUE(pf.start(paths, "stage", 100.0).ok());
  ASSERT_EQ(pf.count(), 4u);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_GT(pf.available_at(i), pf.available_at(i - 1));
  }
  EXPECT_GT(pf.available_at(0), 100.0);
  Bytes out;
  double cost = 0;
  ASSERT_TRUE(pf.read(2, /*now=*/pf.available_at(3) + 1.0, out, &cost).ok());
  EXPECT_EQ(to_string_copy(out), "data2");
}

TEST_F(PrefetcherTest, ReaderStallsOnlyUntilAvailable) {
  Bytes big(4 << 20);
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "ck/big0", big).ok());
  ASSERT_TRUE(fs_->write_file(Tier::kShared, 0, "ck/big1", big).ok());
  Prefetcher pf(fs_.get(), 0, 1);
  std::vector<std::string> paths{"ck/big0", "ck/big1"};
  ASSERT_TRUE(pf.start(paths, "stage", 0.0).ok());
  Bytes out;
  double early = 0, late = 0;
  ASSERT_TRUE(pf.read(1, 0.0, out, &early).ok());          // reader ahead: stalls
  ASSERT_TRUE(pf.read(1, pf.available_at(1), out, &late).ok());  // caught up
  EXPECT_GT(early, late);
  const double local_read = fs_->cost_of(Tier::kLocal, big.size(), 1);
  EXPECT_NEAR(late, local_read, 1e-9);
}

TEST_F(PrefetcherTest, MissingSharedFileReportedPerFile) {
  // A file that cannot be staged no longer aborts the whole pipeline: start()
  // succeeds, the file is marked unstaged, and its read() reports the error
  // so the reader can fall back to the shared tier directly.
  Prefetcher pf(fs_.get(), 0, 1);
  std::vector<std::string> paths{"ck/missing"};
  EXPECT_TRUE(pf.start(paths, "stage", 0.0).ok());
  ASSERT_EQ(pf.count(), 1u);
  EXPECT_FALSE(pf.staged_ok(0));
  Bytes out;
  double c;
  EXPECT_EQ(pf.read(0, 0.0, out, &c).code(), ErrorCode::kNotFound);
  EXPECT_EQ(pf.read(7, 0.0, out, &c).code(), ErrorCode::kOutOfRange);
}

}  // namespace
}  // namespace ftmr::storage
