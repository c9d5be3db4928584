// Failure-free semantics of the simulated MPI runtime: point-to-point,
// collectives, communicator management, and the virtual clock.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <numeric>

#include "simmpi/runtime.hpp"

namespace ftmr::simmpi {
namespace {

TEST(Runtime, AllRanksRunAndFinish) {
  std::atomic<int> count{0};
  JobResult r = Runtime::run(8, [&](Comm&) { count++; });
  EXPECT_EQ(count.load(), 8);
  EXPECT_EQ(r.finished_count(), 8);
  EXPECT_FALSE(r.aborted);
  EXPECT_EQ(r.killed_count(), 0);
}

TEST(Runtime, RankAndSizeAreCorrect) {
  std::atomic<int> rank_sum{0};
  Runtime::run(5, [&](Comm& c) {
    EXPECT_EQ(c.size(), 5);
    EXPECT_GE(c.rank(), 0);
    EXPECT_LT(c.rank(), 5);
    rank_sum += c.rank();
  });
  EXPECT_EQ(rank_sum.load(), 0 + 1 + 2 + 3 + 4);
}

TEST(PointToPoint, SendRecvDeliversPayload) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 7, "payload").ok());
    } else {
      Bytes out;
      MessageInfo info;
      ASSERT_TRUE(c.recv(0, 7, out, &info).ok());
      EXPECT_EQ(to_string_copy(out), "payload");
      EXPECT_EQ(info.source, 0);
      EXPECT_EQ(info.tag, 7);
      EXPECT_EQ(info.size, 7u);
    }
  });
}

TEST(PointToPoint, TagMatchingIsSelective) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 1, "first").ok());
      ASSERT_TRUE(c.send_string(1, 2, "second").ok());
    } else {
      Bytes out;
      // Receive tag 2 first even though tag 1 arrived first.
      ASSERT_TRUE(c.recv(0, 2, out).ok());
      EXPECT_EQ(to_string_copy(out), "second");
      ASSERT_TRUE(c.recv(0, 1, out).ok());
      EXPECT_EQ(to_string_copy(out), "first");
    }
  });
}

TEST(PointToPoint, FifoPerSenderAndTag) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        ByteWriter w;
        w.put<int32_t>(i);
        ASSERT_TRUE(c.send(1, 5, w.bytes()).ok());
      }
    } else {
      for (int i = 0; i < 10; ++i) {
        Bytes out;
        ASSERT_TRUE(c.recv(0, 5, out).ok());
        ByteReader r(out);
        int32_t v = -1;
        ASSERT_TRUE(r.get(v).ok());
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(PointToPoint, AnySourceReceivesFromAll) {
  Runtime::run(4, [](Comm& c) {
    if (c.rank() == 0) {
      int seen[4] = {};
      for (int i = 0; i < 3; ++i) {
        Bytes out;
        MessageInfo info;
        ASSERT_TRUE(c.recv(kAnySource, kAnyTag, out, &info).ok());
        seen[info.source]++;
      }
      EXPECT_EQ(seen[1] + seen[2] + seen[3], 3);
    } else {
      ASSERT_TRUE(c.send_string(0, c.rank(), "hi").ok());
    }
  });
}

TEST(PointToPoint, IprobeSeesPendingMessage) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 3, "x").ok());
      ASSERT_TRUE(c.send_string(1, 9, "done").ok());
    } else {
      Bytes out;
      ASSERT_TRUE(c.recv(0, 9, out).ok());  // ensures both messages arrived
      MessageInfo info;
      EXPECT_TRUE(c.iprobe(0, 3, &info));
      EXPECT_EQ(info.size, 1u);
      EXPECT_FALSE(c.iprobe(0, 42));
      ASSERT_TRUE(c.recv(0, 3, out).ok());
      EXPECT_FALSE(c.iprobe(0, 3));
    }
  });
}

TEST(PointToPoint, SelfSendWorks) {
  Runtime::run(1, [](Comm& c) {
    ASSERT_TRUE(c.send_string(0, 1, "me").ok());
    Bytes out;
    ASSERT_TRUE(c.recv(0, 1, out).ok());
    EXPECT_EQ(to_string_copy(out), "me");
  });
}

TEST(Collectives, BarrierCompletes) {
  JobResult r = Runtime::run(8, [](Comm& c) {
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(c.barrier().ok());
  });
  EXPECT_EQ(r.finished_count(), 8);
}

TEST(Collectives, BcastFromEachRoot) {
  Runtime::run(4, [](Comm& c) {
    for (int root = 0; root < 4; ++root) {
      Bytes data;
      if (c.rank() == root) data = to_bytes("from" + std::to_string(root));
      ASSERT_TRUE(c.bcast(root, data).ok());
      EXPECT_EQ(to_string_copy(data), "from" + std::to_string(root));
    }
  });
}

TEST(Collectives, ReduceSumToRoot) {
  Runtime::run(6, [](Comm& c) {
    std::vector<double> in{static_cast<double>(c.rank()), 1.0};
    std::vector<double> out;
    ASSERT_TRUE(c.reduce(2, ReduceOp::kSum, in, out).ok());
    if (c.rank() == 2) {
      ASSERT_EQ(out.size(), 2u);
      EXPECT_DOUBLE_EQ(out[0], 0 + 1 + 2 + 3 + 4 + 5);
      EXPECT_DOUBLE_EQ(out[1], 6.0);
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST(Collectives, AllreduceMinMax) {
  Runtime::run(5, [](Comm& c) {
    int64_t mn = 0, mx = 0;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kMin, int64_t{c.rank() + 10}, mn).ok());
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kMax, int64_t{c.rank() + 10}, mx).ok());
    EXPECT_EQ(mn, 10);
    EXPECT_EQ(mx, 14);
  });
}

TEST(Collectives, AllreduceLogicalOps) {
  Runtime::run(4, [](Comm& c) {
    int64_t land = -1, lor = -1;
    const int64_t mine = (c.rank() == 2) ? 0 : 1;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kLand, mine, land).ok());
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kLor, mine, lor).ok());
    EXPECT_EQ(land, 0);
    EXPECT_EQ(lor, 1);
  });
}

TEST(Collectives, GatherVariableSizes) {
  Runtime::run(4, [](Comm& c) {
    const std::string mine(static_cast<size_t>(c.rank() + 1), 'a' + c.rank());
    std::vector<Bytes> out;
    ASSERT_TRUE(c.gather(0, as_bytes_view(mine), out).ok());
    if (c.rank() == 0) {
      ASSERT_EQ(out.size(), 4u);
      EXPECT_EQ(to_string_copy(out[0]), "a");
      EXPECT_EQ(to_string_copy(out[3]), "dddd");
    } else {
      EXPECT_TRUE(out.empty());
    }
  });
}

TEST(Collectives, AllgatherEveryoneSeesAll) {
  Runtime::run(3, [](Comm& c) {
    const std::string mine = "r" + std::to_string(c.rank());
    std::vector<Bytes> out;
    ASSERT_TRUE(c.allgather(as_bytes_view(mine), out).ok());
    ASSERT_EQ(out.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(to_string_copy(out[i]), "r" + std::to_string(i));
    }
  });
}

TEST(Collectives, MismatchedKindsFailBothRanksWithInternal) {
  // Rank 0 issues allreduce and rank 1 allgather at the same position: the
  // slot's kind tag fails both before either decodes the other's payload,
  // and the comm stays usable for the next, matching collective.
  Runtime::run(2, [](Comm& c) {
    Status s;
    if (c.rank() == 0) {
      const int64_t in = 7;
      std::vector<int64_t> out;
      s = c.allreduce(ReduceOp::kSum, std::span<const int64_t>(&in, 1), out);
    } else {
      std::vector<Bytes> out;
      s = c.allgather(as_bytes_view("mismatch"), out);
    }
    EXPECT_EQ(s.code(), ErrorCode::kInternal) << s.to_string();
    int64_t sum = 0;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kSum, int64_t{c.rank() + 1}, sum).ok());
    EXPECT_EQ(sum, 3);
  });
}

TEST(Collectives, MismatchedRootsFailWithInternal) {
  // Both ranks issue bcast at the same position but name different roots:
  // the slot's root tag fails both instead of broadcasting one rank's
  // payload, and the comm stays usable for the next, matching collective.
  Runtime::run(2, [](Comm& c) {
    Bytes data = to_bytes("from r" + std::to_string(c.rank()));
    const Status s = c.bcast(c.rank(), data);
    EXPECT_EQ(s.code(), ErrorCode::kInternal) << s.to_string();
    Bytes agreed = to_bytes("from r" + std::to_string(c.rank()));
    ASSERT_TRUE(c.bcast(1, agreed).ok());
    EXPECT_EQ(to_string_copy(agreed), "from r1");
  });
}

TEST(Collectives, MismatchedReduceOpsOrCountsFailWithInternal) {
  // Both ranks allreduce at the same position but disagree on the op, then
  // on the element count, then reduce to a root with different ops: the
  // slot's signature fails every participant instead of returning one
  // rank's op over a truncated vector, and the comm stays usable.
  Runtime::run(2, [](Comm& c) {
    const std::vector<int64_t> in{1, 2, 3};
    std::vector<int64_t> out;
    Status s = c.allreduce(c.rank() == 0 ? ReduceOp::kSum : ReduceOp::kMax, in, out);
    EXPECT_EQ(s.code(), ErrorCode::kInternal) << s.to_string();
    const size_t n = c.rank() == 0 ? 3 : 2;
    s = c.allreduce(ReduceOp::kSum, std::span<const int64_t>(in).first(n), out);
    EXPECT_EQ(s.code(), ErrorCode::kInternal) << s.to_string();
    const std::vector<double> din{1.5};
    std::vector<double> dout;
    s = c.reduce(0, c.rank() == 0 ? ReduceOp::kMin : ReduceOp::kSum, din, dout);
    EXPECT_EQ(s.code(), ErrorCode::kInternal) << s.to_string();
    ASSERT_TRUE(c.allreduce(ReduceOp::kSum, in, out).ok());
    EXPECT_EQ(out, (std::vector<int64_t>{2, 4, 6}));
  });
}

TEST(Collectives, AlltoallExchangesBlocks) {
  constexpr int kP = 5;
  Runtime::run(kP, [](Comm& c) {
    std::vector<Bytes> send(kP);
    for (int j = 0; j < kP; ++j) {
      send[j] = to_bytes(std::to_string(c.rank()) + "->" + std::to_string(j));
    }
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(send, recv).ok());
    ASSERT_EQ(recv.size(), static_cast<size_t>(kP));
    for (int i = 0; i < kP; ++i) {
      EXPECT_EQ(to_string_copy(recv[i]),
                std::to_string(i) + "->" + std::to_string(c.rank()));
    }
  });
}

TEST(Collectives, AlltoallEmptyBlocksAllowed) {
  constexpr int kP = 3;
  Runtime::run(kP, [](Comm& c) {
    std::vector<Bytes> send(kP);  // all empty
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(send, recv).ok());
    ASSERT_EQ(recv.size(), static_cast<size_t>(kP));
    for (const Bytes& b : recv) EXPECT_TRUE(b.empty());
  });
}

TEST(Collectives, AlltoallMovedSendArrivesAsTheSendersBuffer) {
  constexpr int kP = 4;
  // sent[src][dst]: the address of the blob src handed to the collective.
  std::vector<std::vector<const std::byte*>> sent(
      kP, std::vector<const std::byte*>(kP, nullptr));
  Runtime::run(kP, [&](Comm& c) {
    std::vector<Bytes> send(kP);
    for (int j = 0; j < kP; ++j) {
      send[j] = to_bytes(std::to_string(c.rank()) + "->" + std::to_string(j));
      sent[c.rank()][j] = send[j].data();
    }
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(std::move(send), recv).ok());
    ASSERT_EQ(recv.size(), static_cast<size_t>(kP));
    for (int i = 0; i < kP; ++i) {
      EXPECT_EQ(recv[i].data(), sent[i][c.rank()]) << "blob from " << i << " was copied";
      EXPECT_EQ(to_string_copy(recv[i]),
                std::to_string(i) + "->" + std::to_string(c.rank()));
    }
  });
}

TEST(Collectives, AlltoallLvalueSendIsLeftIntact) {
  constexpr int kP = 3;
  Runtime::run(kP, [](Comm& c) {
    std::vector<Bytes> send(kP);
    for (int j = 0; j < kP; ++j) send[j] = to_bytes("b" + std::to_string(j));
    const std::vector<Bytes> before = send;
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(send, recv).ok());
    EXPECT_EQ(send, before);
    for (int i = 0; i < kP; ++i) {
      EXPECT_EQ(to_string_copy(recv[i]), "b" + std::to_string(c.rank()));
    }
  });
}

TEST(Collectives, AlltoallMixesEmptyAndNonEmptyBlobs) {
  constexpr int kP = 4;
  Runtime::run(kP, [](Comm& c) {
    // Only odd (src + dst) pairs carry data.
    std::vector<Bytes> send(kP);
    for (int j = 0; j < kP; ++j) {
      if ((c.rank() + j) % 2 == 1) send[j] = to_bytes(std::to_string(c.rank()));
    }
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(std::move(send), recv).ok());
    ASSERT_EQ(recv.size(), static_cast<size_t>(kP));
    for (int i = 0; i < kP; ++i) {
      if ((c.rank() + i) % 2 == 1) {
        EXPECT_EQ(to_string_copy(recv[i]), std::to_string(i));
      } else {
        EXPECT_TRUE(recv[i].empty()) << "from " << i;
      }
    }
  });
}

TEST(Collectives, AlltoallWithDeadMemberFailsAndLeavesRecvUntouched) {
  constexpr int kP = 4;
  JobOptions o;
  o.kills.push_back({1, 0.0, -1});
  std::atomic<int> failures{0};
  JobResult r = Runtime::run(kP, [&](Comm& c) {
    if (c.rank() == 1) {
      c.compute(0.1);  // dies before the alltoall
      return;
    }
    std::vector<Bytes> send(kP, to_bytes("x"));
    std::vector<Bytes> recv{to_bytes("sentinel")};
    const Status s = c.alltoall(std::move(send), recv);
    if (s.code() == ErrorCode::kProcFailed) failures++;
    ASSERT_EQ(recv.size(), 1u);
    EXPECT_EQ(to_string_copy(recv[0]), "sentinel");
  }, o);
  EXPECT_EQ(r.killed_count(), 1);
  EXPECT_EQ(failures.load(), kP - 1);
}

TEST(Collectives, SlotsLeaveTheRegistryWhenComputed) {
  // Every collective kind, then a final barrier: a slot leaves Job::slots
  // in the critical section that computes it, so once a rank is past the
  // final barrier no slot is left, even for peers still to pick up.
  JobResult r = Runtime::run(4, [](Comm& c) {
    const int64_t one = 1;
    const double x = 1.0;
    std::vector<int64_t> i64;
    std::vector<double> f64;
    std::vector<Bytes> blobs;
    Bytes data = to_bytes("b");
    Comm other;
    int flag = 1;
    ASSERT_TRUE(c.barrier().ok());
    ASSERT_TRUE(c.bcast(1, data).ok());
    ASSERT_TRUE(c.reduce(2, ReduceOp::kSum, std::span<const int64_t>(&one, 1), i64).ok());
    ASSERT_TRUE(c.reduce(3, ReduceOp::kMax, std::span<const double>(&x, 1), f64).ok());
    ASSERT_TRUE(c.allreduce(ReduceOp::kSum, std::span<const int64_t>(&one, 1), i64).ok());
    ASSERT_TRUE(c.allreduce(ReduceOp::kMin, std::span<const double>(&x, 1), f64).ok());
    ASSERT_TRUE(c.gather(0, to_bytes("g"), blobs).ok());
    ASSERT_TRUE(c.allgather(to_bytes("a"), blobs).ok());
    ASSERT_TRUE(c.alltoall(std::vector<Bytes>(4, to_bytes("t")), blobs).ok());
    ASSERT_TRUE(c.dup(other).ok());
    ASSERT_TRUE(c.split(c.rank() % 2, 0, other).ok());
    ASSERT_TRUE(c.shrink(other).ok());
    ASSERT_TRUE(c.agree(flag).ok());
    ASSERT_TRUE(c.barrier().ok());
    Job& job = *c.job();
    MutexLock lock(job.mu);
    EXPECT_TRUE(job.slots.empty()) << job.slots.size() << " slots left";
  });
  EXPECT_EQ(r.finished_count(), 4);
}

TEST(VirtualTime, AlltoallCompletionTimeIsPinned) {
  // done = t0 + p*latency + (bytes sent + bytes received) / bandwidth,
  // with t0 the latest arrival. An asymmetric pattern makes every rank's
  // send and receive totals differ.
  constexpr int kP = 3;
  JobOptions opts;
  opts.net.latency_s = 1e-3;
  opts.net.bandwidth_Bps = 1e4;
  auto size_of = [](int src, int dst) {
    return static_cast<size_t>(10 * (src + 1) + 100 * dst * dst);
  };
  Runtime::run(kP, [&](Comm& c) {
    c.compute(0.25 * c.rank());  // t0 = 0.5, set by the last rank
    std::vector<Bytes> send(kP);
    for (int j = 0; j < kP; ++j) send[j] = Bytes(size_of(c.rank(), j));
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(std::move(send), recv).ok());
    size_t sent = 0, received = 0;
    for (int j = 0; j < kP; ++j) {
      sent += size_of(c.rank(), j);
      received += size_of(j, c.rank());
      EXPECT_EQ(recv[j].size(), size_of(j, c.rank()));
    }
    const double expect = 0.5 + kP * opts.net.latency_s +
                          static_cast<double>(sent + received) / opts.net.bandwidth_Bps;
    EXPECT_DOUBLE_EQ(c.now(), expect) << "rank " << c.rank();
  }, opts);
}

TEST(VirtualTime, CollectiveCompletionTimesArePinned) {
  // Each collective runs alone on staggered clocks: rank r arrives at
  // 0.25 r, so the latest arrival is t = 0.25 (p - 1). Every expected time
  // is written in the runtime's own operation order and compared with
  // EXPECT_EQ. The sizes are chosen so that re-associating gather's,
  // allgather's, bcast's or allreduce's sum changes the last bit and fails
  // the test. Each call counts exactly one op.
  constexpr int kP = 6;
  JobOptions opts;
  opts.net.latency_s = 1e-3;
  opts.net.bandwidth_Bps = 1e4;
  const double a = opts.net.latency_s;
  const double bw = opts.net.bandwidth_Bps;
  const double t = 0.25 * (kP - 1);
  const double lg = 3.0;  // ceil(log2(kP))
  // gather/allgather contributions: rank r sends r + 1 bytes.
  auto gather_bytes = [](int r) { return static_cast<size_t>(r + 1); };
  const size_t total = 1 + 2 + 3 + 4 + 5 + 6;
  const size_t reduce_bytes = 8 + 3 * 8;  // u64 count + three int64
  struct Case {
    const char* name;
    std::function<Status(Comm&)> call;
    std::function<double(int)> expect;  // rank -> completion time
  };
  const std::vector<Case> cases = {
      {"barrier", [](Comm& c) { return c.barrier(); },
       [&](int) { return t + a * lg; }},
      {"bcast",
       [](Comm& c) {
         Bytes data(c.rank() == 0 ? 27 : 0);
         return c.bcast(0, data);
       },
       [&](int) { return t + lg * (a + 27.0 / bw); }},
      {"reduce",
       [](Comm& c) {
         const std::vector<int64_t> in(3, c.rank());
         std::vector<int64_t> out;
         return c.reduce(0, ReduceOp::kSum, std::span<const int64_t>(in), out);
       },
       [&](int) {
         return t + 1.0 * lg * (a + static_cast<double>(reduce_bytes) / bw);
       }},
      {"allreduce",
       [](Comm& c) {
         const std::vector<int64_t> in(3, c.rank());
         std::vector<int64_t> out;
         return c.allreduce(ReduceOp::kSum, std::span<const int64_t>(in), out);
       },
       [&](int) {
         return t + 2.0 * lg * (a + static_cast<double>(reduce_bytes) / bw);
       }},
      {"gather",
       [&](Comm& c) {
         std::vector<Bytes> out;
         return c.gather(0, Bytes(gather_bytes(c.rank())), out);
       },
       [&](int r) {
         const size_t n = r == 0 ? total : gather_bytes(r);
         return (t + lg * a) + static_cast<double>(n) / bw;
       }},
      {"allgather",
       [&](Comm& c) {
         std::vector<Bytes> out;
         return c.allgather(Bytes(gather_bytes(c.rank())), out);
       },
       [&](int) { return t + (lg * a + static_cast<double>(total) / bw); }},
      {"dup",
       [](Comm& c) {
         Comm d;
         return c.dup(d);
       },
       [&](int) { return t + a * lg; }},
      {"split",
       [](Comm& c) {
         Comm s;
         return c.split(c.rank() % 2, c.rank(), s);
       },
       [&](int) { return t + a * lg; }},
      {"shrink",
       [](Comm& c) {
         Comm s;
         return c.shrink(s);
       },
       [&](int) { return t + 3.0 * a * lg; }},
      {"agree",
       [](Comm& c) {
         int flag = 1;
         return c.agree(flag);
       },
       [&](int) { return t + 3.0 * a * lg; }},
  };
  for (const Case& k : cases) {
    Runtime::run(kP, [&](Comm& c) {
      c.compute(0.25 * c.rank());
      const int64_t ops = c.ops_issued();
      ASSERT_TRUE(k.call(c).ok()) << k.name;
      EXPECT_EQ(c.ops_issued(), ops + 1) << k.name;
      EXPECT_EQ(c.now(), k.expect(c.rank())) << k.name << " rank " << c.rank();
    }, opts);
  }
}

TEST(Collectives, RootedCollectivesRejectABadRootUncounted) {
  Runtime::run(4, [](Comm& c) {
    const int64_t ops = c.ops_issued();
    const int64_t in = c.rank();
    std::vector<int64_t> reduced;
    EXPECT_EQ(c.reduce(c.size(), ReduceOp::kSum, std::span<const int64_t>(&in, 1),
                       reduced).code(),
              ErrorCode::kInvalidArgument);
    std::vector<Bytes> gathered;
    EXPECT_EQ(c.gather(-1, Bytes(4), gathered).code(), ErrorCode::kInvalidArgument);
    EXPECT_EQ(c.ops_issued(), ops);
  });
}

TEST(Comms, DupGivesIndependentMatching) {
  Runtime::run(2, [](Comm& c) {
    Comm d;
    ASSERT_TRUE(c.dup(d).ok());
    ASSERT_EQ(d.size(), 2);
    ASSERT_EQ(d.rank(), c.rank());
    if (c.rank() == 0) {
      ASSERT_TRUE(c.send_string(1, 1, "on-world").ok());
      ASSERT_TRUE(d.send_string(1, 1, "on-dup").ok());
    } else {
      Bytes out;
      ASSERT_TRUE(d.recv(0, 1, out).ok());
      EXPECT_EQ(to_string_copy(out), "on-dup");  // not the world message
      ASSERT_TRUE(c.recv(0, 1, out).ok());
      EXPECT_EQ(to_string_copy(out), "on-world");
    }
  });
}

TEST(Comms, SplitByParity) {
  Runtime::run(6, [](Comm& c) {
    Comm sub;
    ASSERT_TRUE(c.split(c.rank() % 2, c.rank(), sub).ok());
    ASSERT_TRUE(sub.valid());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    int64_t sum = 0;
    ASSERT_TRUE(sub.allreduce_one(ReduceOp::kSum, int64_t{c.rank()}, sum).ok());
    EXPECT_EQ(sum, c.rank() % 2 ? 1 + 3 + 5 : 0 + 2 + 4);
  });
}

TEST(Comms, SplitUndefinedColorGetsInvalidComm) {
  Runtime::run(4, [](Comm& c) {
    Comm sub;
    ASSERT_TRUE(c.split(c.rank() == 0 ? -1 : 0, 0, sub).ok());
    if (c.rank() == 0) {
      EXPECT_FALSE(sub.valid());
    } else {
      ASSERT_TRUE(sub.valid());
      EXPECT_EQ(sub.size(), 3);
    }
  });
}

TEST(Comms, RelOfGlobalMatchesGroupOnEveryComm) {
  // Each comm's global -> rel index is the inverse of its group, and every
  // other global rank (non-members, -1, nranks) maps to -1.
  constexpr int kP = 6;
  auto check = [](const Comm& comm) {
    std::vector<int> expect(kP, -1);
    for (int rel = 0; rel < comm.size(); ++rel) expect[comm.global_of_rel(rel)] = rel;
    for (int g = 0; g < kP; ++g) EXPECT_EQ(comm.rel_of_global(g), expect[g]) << g;
    EXPECT_EQ(comm.rel_of_global(comm.global_rank()), comm.rank());
    EXPECT_EQ(comm.rel_of_global(-1), -1);
    EXPECT_EQ(comm.rel_of_global(kP), -1);
  };
  JobOptions o;
  o.kills.push_back({kP - 1, 1.0, -1});
  JobResult r = Runtime::run(kP, [&](Comm& c) {
    check(c);
    for (int g = 0; g < kP; ++g) EXPECT_EQ(c.rel_of_global(g), g);
    Comm half;
    // Descending keys: the split comm's rel order reverses the world's.
    ASSERT_TRUE(c.split(c.rank() % 2, -c.rank(), half).ok());
    check(half);
    if (c.rank() == kP - 1) {
      c.compute(2.0);  // dies
      return;
    }
    while (c.failed_ranks().empty()) {
    }
    Comm shrunk;
    ASSERT_TRUE(c.shrink(shrunk).ok());
    ASSERT_EQ(shrunk.size(), kP - 1);
    check(shrunk);
    EXPECT_EQ(shrunk.rel_of_global(kP - 1), -1);
  }, o);
  EXPECT_EQ(r.killed_count(), 1);
}

TEST(VirtualTime, ComputeAdvancesClock) {
  Runtime::run(1, [](Comm& c) {
    const double t0 = c.now();
    c.compute(1.5);
    EXPECT_NEAR(c.now() - t0, 1.5, 1e-12);
  });
}

TEST(VirtualTime, BarrierSynchronizesClocks) {
  Runtime::run(4, [](Comm& c) {
    c.compute(c.rank() == 3 ? 10.0 : 0.5);
    ASSERT_TRUE(c.barrier().ok());
    EXPECT_GE(c.now(), 10.0);  // everyone waited for the slow rank
  });
}

TEST(VirtualTime, MessageCarriesLatency) {
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.compute(2.0);
      ASSERT_TRUE(c.send_string(1, 0, "late").ok());
    } else {
      Bytes out;
      ASSERT_TRUE(c.recv(0, 0, out).ok());
      EXPECT_GE(c.now(), 2.0);  // receive completes after the send time
    }
  });
}

TEST(VirtualTime, MakespanIsMaxFinishTime) {
  JobResult r = Runtime::run(3, [](Comm& c) { c.compute(1.0 + c.rank()); });
  EXPECT_NEAR(r.makespan(), 3.0, 1e-9);
}

TEST(VirtualTime, LargeTransferDominatedByBandwidth) {
  JobOptions opts;
  opts.net.latency_s = 1e-6;
  opts.net.bandwidth_Bps = 1e6;  // 1 MB/s to make costs visible
  Runtime::run(2, [](Comm& c) {
    if (c.rank() == 0) {
      Bytes big(1000000);  // 1 MB -> ~1 s
      ASSERT_TRUE(c.send(1, 0, big).ok());
    } else {
      Bytes out;
      ASSERT_TRUE(c.recv(0, 0, out).ok());
      EXPECT_NEAR(c.now(), 1.0, 0.1);
    }
  }, opts);
}

// Parameterized sweep: collectives across a range of communicator sizes.
class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, AllreduceSumOfRanks) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& c) {
    int64_t sum = 0;
    ASSERT_TRUE(c.allreduce_one(ReduceOp::kSum, int64_t{c.rank()}, sum).ok());
    EXPECT_EQ(sum, int64_t{p} * (p - 1) / 2);
  });
}

TEST_P(CollectiveSweep, AlltoallIdentity) {
  const int p = GetParam();
  Runtime::run(p, [p](Comm& c) {
    std::vector<Bytes> send(p);
    for (int j = 0; j < p; ++j) {
      ByteWriter w;
      w.put<int32_t>(c.rank() * 1000 + j);
      send[j] = std::move(w).take();
    }
    std::vector<Bytes> recv;
    ASSERT_TRUE(c.alltoall(send, recv).ok());
    for (int i = 0; i < p; ++i) {
      ByteReader r(recv[i]);
      int32_t v = 0;
      ASSERT_TRUE(r.get(v).ok());
      EXPECT_EQ(v, i * 1000 + c.rank());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSweep, ::testing::Values(1, 2, 3, 7, 16, 32));

}  // namespace
}  // namespace ftmr::simmpi
