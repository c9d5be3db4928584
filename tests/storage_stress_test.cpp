// Concurrency stress for the segment store behind StorageSystem (run under
// TSan in CI). Threads write, append, copy, remove and list at once, in
// directories they share (output/, as every rank's output does) and in
// their own (ck/r<t>/, as a rank's checkpoints do), while others wipe
// nodes and remove drained copies. Every file's bytes are a function of
// its name, so any read that succeeds can be checked: it must return
// exactly what the writer wrote, even while the file, and with it
// possibly the last reference to its run, is being removed.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "storage/storage.hpp"

namespace ftmr::storage {
namespace {

/// The bytes of the file named `name`: `base` to `base` + 99 bytes derived
/// from it.
std::string body_of(const std::string& name, size_t base = 40) {
  std::string body;
  const size_t len = base + std::hash<std::string>{}(name) % 100;
  while (body.size() < len) body += name + ";";
  body.resize(len);
  return body;
}

std::string shared_name(int t, int i) {
  return "output/part_t" + std::to_string(t) + "_" + std::to_string(i);
}

TEST(StorageStress, ConcurrentReadsSeeTheirWritersBytes) {
  TempDir tmp("ftmr-storage-stress");
  StorageOptions so;
  so.root = tmp.path();
  StorageSystem fs(so);
  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string& fail = failures[static_cast<size_t>(t)];
      const auto check = [&](bool ok, const std::string& what) {
        if (!ok && fail.empty()) fail = what;
      };
      const int node = t / 2;
      const std::string dir = "ck/r" + std::to_string(t);
      std::string log;
      Bytes out;
      std::vector<std::string> names;
      for (int i = 0; i < kIters && fail.empty(); ++i) {
        // Own directory: a frame, a shared-extent copy of it, an append.
        const std::string frame = dir + "/f" + std::to_string(i);
        const std::string stamped = dir + "/g" + std::to_string(i);
        check(fs.write_file(Tier::kLocal, node, frame, as_bytes_view(body_of(frame))).ok(),
              "write " + frame);
        check(fs.copy(Tier::kLocal, node, frame, Tier::kLocal, node, stamped).ok(),
              "copy " + frame);
        const std::string piece = body_of(frame).substr(0, 7);
        check(fs.append_file(Tier::kLocal, node, dir + "/log", as_bytes_view(piece)).ok(),
              "append " + dir);
        log += piece;
        check(fs.remove(Tier::kLocal, node, frame).ok(), "remove " + frame);
        check(fs.read_file(Tier::kLocal, node, stamped, out).ok() &&
                  to_string_copy(out) == body_of(frame),
              "read " + stamped);
        if (i >= 4) {
          (void)fs.remove(Tier::kLocal, node, dir + "/g" + std::to_string(i - 4));
        }
        check(fs.read_file(Tier::kLocal, node, dir + "/log", out).ok() &&
                  to_string_copy(out) == log,
              "read " + dir + "/log");

        // Shared directory: write one, drain a copy of a frame, remove an
        // older one of this thread's, and read whatever a listing shows.
        const std::string mine = shared_name(t, i);
        check(fs.write_file(Tier::kShared, 0, mine, as_bytes_view(body_of(mine))).ok(),
              "write " + mine);
        const std::string drained = "ck_shared/r" + std::to_string(t) + "/g" +
                                    std::to_string(i);
        check(fs.copy(Tier::kLocal, node, stamped, Tier::kShared, 0, drained).ok(),
              "drain " + stamped);
        if (i >= 3) (void)fs.remove(Tier::kShared, 0, shared_name(t, i - 3));
        check(fs.list_dir(Tier::kShared, 0, "output", names).ok(), "list output");
        for (const std::string& n : names) {
          const std::string path = "output/" + n;
          const Status s = fs.read_file(Tier::kShared, 0, path, out);
          // A file removed after the listing is gone; one still there
          // holds its writer's bytes.
          check(s.code() == ErrorCode::kNotFound ||
                    (s.ok() && to_string_copy(out) == body_of(path)),
                "read " + path + ": " + s.to_string());
        }
        check(fs.read_file(Tier::kShared, 0, drained, out).ok() &&
                  to_string_copy(out) == body_of(frame),
              "read " + drained);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(failures[static_cast<size_t>(t)].empty())
        << "thread " << t << ": " << failures[static_cast<size_t>(t)];
  }
  // Each thread's last three shared files remain, with their bytes.
  std::vector<std::string> names;
  ASSERT_TRUE(fs.list_dir(Tier::kShared, 0, "output", names).ok());
  EXPECT_EQ(names.size(), static_cast<size_t>(3 * kThreads));
  Bytes out;
  for (const std::string& n : names) {
    ASSERT_TRUE(fs.read_file(Tier::kShared, 0, "output/" + n, out).ok()) << n;
    EXPECT_EQ(to_string_copy(out), body_of("output/" + n));
  }
}

TEST(StorageStress, DrainedCopiesOutliveWipesAndRemoves) {
  // Writers checkpoint to their node's disk and drain each frame to the
  // shared tier, reading back every drained copy they can list. A reaper
  // wipes the nodes' disks (dropping the frames) and removes the drained
  // copies (dropping the last reference to their runs) under the readers.
  TempDir tmp("ftmr-storage-stress");
  StorageOptions so;
  so.root = tmp.path();
  StorageSystem fs(so);
  constexpr int kWriters = 4;
  constexpr int kNodes = 2;
  constexpr int kIters = 150;
  constexpr size_t kFrameBytes = 8 << 10;
  std::atomic<int> writing{kWriters};
  std::vector<std::string> failures(kWriters + 1);
  const auto check = [&](int t, bool ok, const std::string& what) {
    std::string& fail = failures[static_cast<size_t>(t)];
    if (!ok && fail.empty()) fail = what;
  };
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      Bytes out;
      std::vector<std::string> names;
      for (int i = 0; i < kIters; ++i) {
        const std::string frame = "r" + std::to_string(t) + "/f" + std::to_string(i);
        const std::string body = body_of(frame, kFrameBytes);
        check(t, fs.write_file(Tier::kLocal, t % kNodes, "ck/" + frame,
                               as_bytes_view(body)).ok(),
              "write " + frame);
        // A wipe between the write and the drain leaves nothing to copy.
        const Status drained =
            fs.copy(Tier::kLocal, t % kNodes, "ck/" + frame, Tier::kShared, 0,
                    "drained/" + frame);
        check(t, drained.ok() || drained.code() == ErrorCode::kNotFound,
              "drain " + frame + ": " + drained.to_string());
        check(t, fs.list_dir(Tier::kShared, 0, "drained", names).ok(), "list drained");
        for (const std::string& n : names) {
          const Status s = fs.read_file(Tier::kShared, 0, "drained/" + n, out);
          check(t,
                s.code() == ErrorCode::kNotFound ||
                    (s.ok() && to_string_copy(out) == body_of(n, kFrameBytes)),
                "read drained/" + n + ": " + s.to_string());
        }
      }
      writing--;
    });
  }
  threads.emplace_back([&] {
    std::vector<std::string> names;
    for (int pass = 0; writing > 0; ++pass) {
      fs.wipe_node_local(pass % kNodes);
      check(kWriters, fs.list_dir(Tier::kShared, 0, "drained", names).ok(),
            "list drained");
      for (const std::string& n : names) {
        check(kWriters, fs.remove(Tier::kShared, 0, "drained/" + n).ok(), "remove " + n);
      }
    }
  });
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < failures.size(); ++t) {
    EXPECT_TRUE(failures[t].empty()) << "thread " << t << ": " << failures[t];
  }
}

}  // namespace
}  // namespace ftmr::storage
