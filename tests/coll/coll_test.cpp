#include "coll/coll.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "scenario/cluster.hpp"

namespace bb::coll {
namespace {

// Correctness across 2-16 ranks, power-of-two and not, for both
// algorithms of every primitive. Payload values are small integers so
// floating-point reduction order cannot perturb the expected sums.

std::unique_ptr<scenario::Cluster> make_cluster(int n) {
  return std::make_unique<scenario::Cluster>(scenario::presets::deterministic(),
                                             n);
}

const int kRankCounts[] = {2, 3, 4, 5, 7, 8, 13, 16};

TEST(CollBarrier, BothAlgorithmsComplete) {
  for (int n : {2, 3, 5, 8}) {
    for (Algo a : {Algo::kDissemination, Algo::kRingToken}) {
      auto cl = make_cluster(n);
      World world(*cl);
      int done = 0;
      for (int r = 0; r < n; ++r) {
        cl->sim().spawn([](Communicator& c, Algo algo,
                           int& d) -> sim::Task<void> {
          co_await barrier(c, algo);
          ++d;
        }(world.comm(r), a, done));
      }
      cl->sim().run();
      EXPECT_EQ(done, n) << "n=" << n << " algo=" << algo_name(a);
    }
  }
}

TEST(CollBarrier, NoRankLeavesBeforeLastArrives) {
  // Rank 1 arrives late (a long compute delay); nobody may exit the
  // barrier before rank 1 entered it.
  const int n = 4;
  auto cl = make_cluster(n);
  World world(*cl);
  const double kDelayNs = 500000.0;
  std::vector<double> exit_ns(static_cast<std::size_t>(n), 0.0);
  double enter1_ns = 0.0;
  for (int r = 0; r < n; ++r) {
    cl->sim().spawn([](scenario::Cluster& c, Communicator& comm, int rank,
                       double delay, double& enter1,
                       std::vector<double>& exits) -> sim::Task<void> {
      if (rank == 1) {
        co_await c.sim().delay(TimePs::from_ns(delay));
        enter1 = c.sim().now().to_ns();
      }
      co_await barrier(comm);
      exits[static_cast<std::size_t>(rank)] = c.sim().now().to_ns();
    }(*cl, world.comm(r), r, kDelayNs, enter1_ns, exit_ns));
  }
  cl->sim().run();
  EXPECT_GE(enter1_ns, kDelayNs);
  for (int r = 0; r < n; ++r) {
    EXPECT_GT(exit_ns[static_cast<std::size_t>(r)], enter1_ns)
        << "rank " << r << " left before the last rank arrived";
  }
}

void check_bcast(int n, std::uint32_t bytes, Algo a, int root) {
  auto cl = make_cluster(n);
  World world(*cl);
  const std::uint32_t elems = bytes / 8;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    cl->sim().spawn([](Communicator& c, int rt, std::uint32_t b,
                       std::uint32_t e, Algo algo,
                       std::vector<double>& out) -> sim::Task<void> {
      std::vector<double> v;
      if (c.rank() == rt) {
        v.resize(e);
        for (std::uint32_t i = 0; i < e; ++i) {
          v[i] = static_cast<double>(i + 7);
        }
      }
      co_await bcast(c, rt, b, v, algo);
      out = std::move(v);
    }(world.comm(r), root, bytes, elems, a, got[static_cast<std::size_t>(r)]));
  }
  cl->sim().run();
  for (int r = 0; r < n; ++r) {
    const auto& v = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(v.size(), elems) << "n=" << n << " rank=" << r
                               << " algo=" << algo_name(a);
    for (std::uint32_t i = 0; i < elems; ++i) {
      EXPECT_EQ(v[i], static_cast<double>(i + 7))
          << "n=" << n << " rank=" << r << " elem=" << i;
    }
  }
}

TEST(CollBcast, BinomialAllRankCounts) {
  for (int n : kRankCounts) check_bcast(n, 64, Algo::kBinomialTree, 0);
}

TEST(CollBcast, ChainAllRankCounts) {
  // 4 KiB payload: four pipeline segments at the default 1 KiB segment.
  for (int n : kRankCounts) check_bcast(n, 4096, Algo::kChain, 0);
}

TEST(CollBcast, NonZeroRoot) {
  check_bcast(5, 64, Algo::kBinomialTree, 3);
  check_bcast(5, 4096, Algo::kChain, 2);
}

void check_allgather(int n, std::uint32_t bytes_per_rank, Algo a) {
  auto cl = make_cluster(n);
  World world(*cl);
  const std::uint32_t elems = bytes_per_rank / 8;
  std::vector<std::vector<std::vector<double>>> got(
      static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    cl->sim().spawn(
        [](Communicator& c, std::uint32_t b, std::uint32_t e, Algo algo,
           std::vector<std::vector<double>>& out) -> sim::Task<void> {
          std::vector<double> mine(e);
          for (std::uint32_t i = 0; i < e; ++i) {
            mine[i] = static_cast<double>(c.rank() * 100 + static_cast<int>(i));
          }
          co_await allgather(c, b, mine, out, algo);
        }(world.comm(r), bytes_per_rank, elems, a,
          got[static_cast<std::size_t>(r)]));
  }
  cl->sim().run();
  for (int r = 0; r < n; ++r) {
    const auto& out = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(out.size(), static_cast<std::size_t>(n))
        << "n=" << n << " rank=" << r << " algo=" << algo_name(a);
    for (int s = 0; s < n; ++s) {
      const auto& block = out[static_cast<std::size_t>(s)];
      ASSERT_EQ(block.size(), elems) << "n=" << n << " rank=" << r
                                     << " block=" << s;
      for (std::uint32_t i = 0; i < elems; ++i) {
        EXPECT_EQ(block[i], static_cast<double>(s * 100 + static_cast<int>(i)))
            << "n=" << n << " rank=" << r << " block=" << s;
      }
    }
  }
}

TEST(CollAllgather, BruckAllRankCounts) {
  for (int n : kRankCounts) check_allgather(n, 32, Algo::kBruck);
}

TEST(CollAllgather, RingAllRankCounts) {
  for (int n : kRankCounts) check_allgather(n, 1024, Algo::kRingAllgather);
}

void check_allreduce(int n, std::uint32_t bytes, Algo a, ReduceOp op) {
  auto cl = make_cluster(n);
  World world(*cl);
  const std::uint32_t elems = bytes / 8;
  std::vector<std::vector<double>> got(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    cl->sim().spawn([](Communicator& c, std::uint32_t b, std::uint32_t e,
                       Algo algo, ReduceOp o,
                       std::vector<double>& out) -> sim::Task<void> {
      std::vector<double> v(e);
      for (std::uint32_t i = 0; i < e; ++i) {
        v[i] = static_cast<double>((c.rank() + 1) * (static_cast<int>(i) + 1));
      }
      co_await allreduce(c, b, v, o, algo);
      out = std::move(v);
    }(world.comm(r), bytes, elems, a, op, got[static_cast<std::size_t>(r)]));
  }
  cl->sim().run();
  for (int r = 0; r < n; ++r) {
    const auto& v = got[static_cast<std::size_t>(r)];
    ASSERT_EQ(v.size(), elems) << "n=" << n << " rank=" << r
                               << " algo=" << algo_name(a);
    for (std::uint32_t i = 0; i < elems; ++i) {
      const double expect =
          op == ReduceOp::kSum
              ? static_cast<double>(n * (n + 1) / 2 * (static_cast<int>(i) + 1))
              : static_cast<double>(n * (static_cast<int>(i) + 1));
      EXPECT_EQ(v[i], expect) << "n=" << n << " rank=" << r << " elem=" << i
                              << " algo=" << algo_name(a);
    }
  }
}

TEST(CollAllreduce, RecursiveDoublingAllRankCounts) {
  for (int n : kRankCounts) check_allreduce(n, 64, Algo::kRecursiveDoubling,
                                            ReduceOp::kSum);
}

TEST(CollAllreduce, RingAllRankCounts) {
  for (int n : kRankCounts) check_allreduce(n, 2048, Algo::kRingAllreduce,
                                            ReduceOp::kSum);
}

TEST(CollAllreduce, RingFewerElementsThanRanks) {
  // 3 elements over 8 ranks: five chunks are empty and ride the 8-byte
  // minimum slot; results must still be exact.
  check_allreduce(8, 24, Algo::kRingAllreduce, ReduceOp::kSum);
}

TEST(CollAllreduce, MaxOperator) {
  check_allreduce(5, 64, Algo::kRecursiveDoubling, ReduceOp::kMax);
  check_allreduce(5, 64, Algo::kRingAllreduce, ReduceOp::kMax);
}

TEST(CollAllreduce, RendezvousSizedVectors) {
  // 2 KiB vectors exchanged whole by recursive doubling cross the 1 KiB
  // rendezvous threshold: RTS/CTS/put/FIN across multiple peers.
  check_allreduce(4, 2048, Algo::kRecursiveDoubling, ReduceOp::kSum);
  check_allreduce(3, 2048, Algo::kRecursiveDoubling, ReduceOp::kSum);
}

TEST(CollAllreduce, MoreRanksThanTheOldSixBitSourceField) {
  // Message headers once carried the source rank in 6 bits, capping a job
  // at 63 ranks; 65 ranks exercise both the eager and rendezvous paths
  // past that cap.
  check_allreduce(65, 64, Algo::kRecursiveDoubling, ReduceOp::kSum);
  check_allreduce(65, 2048, Algo::kRecursiveDoubling, ReduceOp::kSum);
}

TEST(CollSelection, ThresholdsFollowTuning) {
  CollTuning t;
  EXPECT_EQ(resolve_allreduce(t, 8, t.allreduce_ring_min_bytes - 8),
            Algo::kRecursiveDoubling);
  EXPECT_EQ(resolve_allreduce(t, 8, t.allreduce_ring_min_bytes),
            Algo::kRingAllreduce);
  EXPECT_EQ(resolve_bcast(t, 8, t.bcast_chain_min_bytes - 8),
            Algo::kBinomialTree);
  EXPECT_EQ(resolve_bcast(t, 8, t.bcast_chain_min_bytes), Algo::kChain);
  EXPECT_EQ(resolve_allgather(t, 8, t.allgather_ring_min_bytes - 8),
            Algo::kBruck);
  EXPECT_EQ(resolve_allgather(t, 8, t.allgather_ring_min_bytes),
            Algo::kRingAllgather);
  EXPECT_EQ(resolve_barrier(t, 8), Algo::kDissemination);
  CollTuning ring;
  ring.barrier_ring_max_ranks = 8;
  EXPECT_EQ(resolve_barrier(ring, 8), Algo::kRingToken);
  EXPECT_EQ(resolve_barrier(ring, 9), Algo::kDissemination);
}

TEST(CollSelection, OverlayRetunesThresholds) {
  CollTuning t;
  t.allreduce_ring_min_bytes = 1u << 20;
  const scenario::SystemConfig cfg =
      scenario::presets::deterministic().with(scenario::overlays::coll_tuning(t));
  EXPECT_EQ(cfg.coll.allreduce_ring_min_bytes, 1u << 20);
  EXPECT_EQ(resolve_allreduce(cfg.coll, 8, 4096), Algo::kRecursiveDoubling);
}

}  // namespace
}  // namespace bb::coll
