#include "algo/listrank.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <type_traits>
#include <vector>

#include "hm/config.hpp"
#include "no/executor.hpp"
#include "no/machine.hpp"
#include "sched/native_executor.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"

namespace obliv::algo {
namespace {

using sched::SimExecutor;

/// Builds a list of n nodes in random memory order; returns (succ, pred,
/// expected ranks).
struct ListInstance {
  std::vector<std::uint64_t> succ, pred, rank;
};

ListInstance random_list(std::uint64_t n, std::uint64_t seed) {
  // Random permutation = order of the list's nodes in memory.
  std::vector<std::uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  util::Xoshiro256 rng(seed);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  ListInstance li;
  li.succ.assign(n, kNil);
  li.pred.assign(n, kNil);
  li.rank.assign(n, 0);
  for (std::uint64_t t = 0; t < n; ++t) {
    li.rank[perm[t]] = n - 1 - t;  // distance from end
    if (t + 1 < n) {
      li.succ[perm[t]] = perm[t + 1];
      li.pred[perm[t + 1]] = perm[t];
    }
  }
  return li;
}

ListInstance sequential_list(std::uint64_t n) {
  ListInstance li;
  li.succ.assign(n, kNil);
  li.pred.assign(n, kNil);
  li.rank.assign(n, 0);
  for (std::uint64_t v = 0; v < n; ++v) {
    li.rank[v] = n - 1 - v;
    if (v + 1 < n) {
      li.succ[v] = v + 1;
      li.pred[v + 1] = v;
    }
  }
  return li;
}

std::vector<std::uint64_t> run_mo_lr(const ListInstance& li,
                                     sched::RunMetrics* metrics = nullptr) {
  const std::uint64_t n = li.succ.size();
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  auto m = ex.run(8 * n, [&] {
    mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
  });
  if (metrics) *metrics = m;
  return db.raw();
}

TEST(Pull, RoutesFieldThroughTargets) {
  const std::uint64_t n = 500;
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto target = ex.make_buf<std::uint64_t>(n);
  auto field = ex.make_buf<std::uint64_t>(n);
  auto out = ex.make_buf<std::uint64_t>(n);
  util::Xoshiro256 rng(1);
  for (std::uint64_t v = 0; v < n; ++v) {
    target.raw()[v] = v % 7 == 0 ? kNil : rng.below(n);
    field.raw()[v] = 1000 + v;
  }
  ex.run(8 * n, [&] {
    mo_pull(ex, target.ref(), field.ref(), out.ref(), 777);
  });
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t t = target.raw()[v];
    EXPECT_EQ(out.raw()[v], t == kNil ? 777 : 1000 + t) << v;
  }
}

/// Runs `body` the way each executor expects it: inside run() on the
/// simulator, directly on the native and NO executors.
template <class Exec, class Body>
void run_on(Exec& ex, std::uint64_t n, Body&& body) {
  if constexpr (std::is_same_v<Exec, SimExecutor>) {
    ex.run(16 * n + 16, body);
  } else {
    body();
  }
}

TEST(Push, SkipsNilDestinationsAndFillsDefault) {
  // dest: a random partial permutation, every third sender has none.
  for (std::uint64_t n : {0, 1, 2, 65, 1000}) {
    std::vector<std::uint64_t> perm(n), dest(n, kNil), field(n);
    std::iota(perm.begin(), perm.end(), 0);
    util::Xoshiro256 rng(n + 3);
    for (std::uint64_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
    std::vector<std::uint64_t> expect(n, 777);
    for (std::uint64_t u = 0; u < n; ++u) {
      field[u] = 1000 + u;
      if (u % 3 != 2) {
        dest[u] = perm[u];
        expect[perm[u]] = field[u];
      }
    }
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    auto db = ex.make_buf<std::uint64_t>(n);
    auto fb = ex.make_buf<std::uint64_t>(n);
    auto ob = ex.make_buf<std::uint64_t>(n);
    db.raw() = dest;
    fb.raw() = field;
    ex.run(8 * n + 8, [&] {
      mo_push(ex, db.ref(), fb.ref(), ob.ref(), 777);
    });
    EXPECT_EQ(ob.raw(), expect) << "n=" << n;
  }
}

/// Along a list, pushing along pred is pulling along succ (and vice
/// versa), on every executor; mo_push3 agrees field by field.
template <class Exec>
void expect_push_equals_pull(Exec& ex, const ListInstance& li) {
  const std::uint64_t n = li.succ.size();
  auto sb = ex.template make_buf<std::uint64_t>(n);
  auto pb = ex.template make_buf<std::uint64_t>(n);
  auto f0 = ex.template make_buf<std::uint64_t>(n);
  auto f1 = ex.template make_buf<std::uint64_t>(n);
  auto f2 = ex.template make_buf<std::uint64_t>(n);
  auto push_s = ex.template make_buf<std::uint64_t>(n);
  auto pull_s = ex.template make_buf<std::uint64_t>(n);
  auto push_p = ex.template make_buf<std::uint64_t>(n);
  auto pull_p = ex.template make_buf<std::uint64_t>(n);
  auto o0 = ex.template make_buf<std::uint64_t>(n);
  auto o1 = ex.template make_buf<std::uint64_t>(n);
  auto o2 = ex.template make_buf<std::uint64_t>(n);
  for (std::uint64_t v = 0; v < n; ++v) {
    sb.raw()[v] = li.succ[v];
    pb.raw()[v] = li.pred[v];
    f0.raw()[v] = 1000 + v;
    f1.raw()[v] = 7 * v;
    f2.raw()[v] = v ^ 0x55;
  }
  run_on(ex, n, [&] {
    mo_push(ex, pb.ref(), f0.ref(), push_s.ref(), kNil);
    mo_pull(ex, sb.ref(), f0.ref(), pull_s.ref(), kNil);
    mo_push(ex, sb.ref(), f0.ref(), push_p.ref(), 5);
    mo_pull(ex, pb.ref(), f0.ref(), pull_p.ref(), 5);
    mo_push3(ex, pb.ref(), f0.ref(), f1.ref(), f2.ref(), o0.ref(), o1.ref(),
             o2.ref(), kNil, 1, 2);
  });
  for (std::uint64_t v = 0; v < n; ++v) {
    const std::uint64_t s = li.succ[v];
    ASSERT_EQ(push_s.raw()[v], pull_s.raw()[v]) << "succ, node " << v;
    ASSERT_EQ(push_p.raw()[v], pull_p.raw()[v]) << "pred, node " << v;
    ASSERT_EQ(o0.raw()[v], pull_s.raw()[v]) << "push3 field 0, node " << v;
    ASSERT_EQ(o1.raw()[v], s == kNil ? 1 : 7 * s) << "push3 field 1, node "
                                                  << v;
    ASSERT_EQ(o2.raw()[v], s == kNil ? 2 : s ^ 0x55) << "push3 field 2, node "
                                                     << v;
  }
}

template <class MakeExec>
void sweep_push_equals_pull(MakeExec&& make_exec) {
  for (std::uint64_t n : {0, 1, 2, 65, 1000}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    for (const auto& li : {random_list(n, n + 5), sequential_list(n)}) {
      make_exec([&](auto& ex) { expect_push_equals_pull(ex, li); });
    }
  }
}

TEST(Push, EqualsPullAlongListOnSim) {
  sweep_push_equals_pull([](auto&& check) {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    check(ex);
  });
}

TEST(Push, EqualsPullAlongListOnNative) {
  sweep_push_equals_pull([](auto&& check) {
    sched::NativeExecutor ex(4);
    check(ex);
  });
}

TEST(Push, EqualsPullAlongListOnNo) {
  sweep_push_equals_pull([](auto&& check) {
    no::NoMachine mach(64, {{4, 8}});
    no::NoExecutor ex(&mach);
    check(ex);
    mach.end_superstep();
  });
}

class ListRankSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ListRankSizes, RandomOrderList) {
  const auto li = random_list(GetParam(), GetParam() * 7 + 1);
  EXPECT_EQ(run_mo_lr(li), li.rank);
}

TEST_P(ListRankSizes, SequentialOrderList) {
  const auto li = sequential_list(GetParam());
  EXPECT_EQ(run_mo_lr(li), li.rank);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ListRankSizes,
                         ::testing::Values(1, 2, 3, 64, 65, 100, 333, 1000,
                                           4096, 10000));

TEST(ListRank, WeightedDistances) {
  const std::uint64_t n = 300;
  auto li = random_list(n, 9);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto lb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  util::Xoshiro256 rng(11);
  for (auto& w : lb.raw()) w = 1 + rng.below(9);
  // Expected: walk backward accumulating weights.
  std::vector<std::uint64_t> expect(n, 0);
  std::uint64_t tail = 0;
  while (li.succ[tail] != kNil) tail = li.succ[tail];
  for (std::uint64_t u = tail; li.pred[u] != kNil; u = li.pred[u]) {
    expect[li.pred[u]] = expect[u] + lb.raw()[li.pred[u]];
  }
  ex.run(8 * n, [&] {
    mo_list_rank_weighted(ex, sb.ref(), pb.ref(), lb.ref(), db.ref());
  });
  EXPECT_EQ(db.raw(), expect);
}

TEST(ListRank, SequentialBaselineCorrect) {
  const auto li = random_list(500, 21);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(500);
  auto pb = ex.make_buf<std::uint64_t>(500);
  auto db = ex.make_buf<std::uint64_t>(500);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  ex.run(8 * 500, [&] {
    list_rank_sequential(ex, sb.ref(), pb.ref(), db.ref());
  });
  EXPECT_EQ(db.raw(), li.rank);
}

TEST(ListRank, NativeExecutorCorrect) {
  const std::uint64_t n = 20000;
  const auto li = random_list(n, 31);
  sched::NativeExecutor ex(4);
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
  EXPECT_EQ(db.raw(), li.rank);
}

TEST(ListRank, DcfRoundsKnobPreservesCorrectness) {
  // Paper footnote 4: k applications of deterministic coin flipping shrink
  // the color count to O(log^(k) n).  Any k >= 2 must give correct ranks.
  const std::uint64_t n = 2000;
  const auto li = random_list(n, 55);
  for (int rounds : {2, 3, 5}) {
    SimExecutor ex(hm::MachineConfig::shared_l2(4));
    auto sb = ex.make_buf<std::uint64_t>(n);
    auto pb = ex.make_buf<std::uint64_t>(n);
    auto db = ex.make_buf<std::uint64_t>(n);
    sb.raw() = li.succ;
    pb.raw() = li.pred;
    ex.run(8 * n, [&] {
      mo_list_rank(ex, sb.ref(), pb.ref(), db.ref(), rounds);
    });
    ASSERT_EQ(db.raw(), li.rank) << "dcf_rounds=" << rounds;
  }
}

TEST(ListRank, DcfStepShrinksColorsAndKeepsThemProper) {
  // Direct unit test of the coloring: after each DCF application adjacent
  // nodes still differ and the color range shrinks to 2(1 + log(range)).
  const std::uint64_t n = 5000;
  const auto li = random_list(n, 66);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto cb = ex.make_buf<std::uint64_t>(n);
  auto scb = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  for (std::uint64_t v = 0; v < n; ++v) cb.raw()[v] = v;
  std::uint64_t prev_max = n;
  ex.run(8 * n, [&] {
    for (int round = 0; round < 3; ++round) {
      mo_pull(ex, sb.ref(), cb.ref(), scb.ref(), kNil);
      detail::dcf_step(ex, cb.ref(), scb.ref(), sb.ref());
      std::uint64_t max_color = 0;
      for (std::uint64_t v = 0; v < n; ++v) {
        max_color = std::max(max_color, cb.raw()[v]);
        if (li.succ[v] != kNil) {
          ASSERT_NE(cb.raw()[v], cb.raw()[li.succ[v]])
              << "round " << round << " node " << v;
        }
      }
      ASSERT_LT(max_color, prev_max);
      prev_max = max_color;
    }
  });
  EXPECT_LE(prev_max, 7u);  // <= 8 colors after three applications
}

TEST(ListRank, SpanStaysPolylog) {
  // Theorem 7: parallel steps O((n/p) log n + polylog terms); the span must
  // be far below the sequential baseline's Theta(n) pointer chase.
  const std::uint64_t n = 1 << 13;
  const auto li = random_list(n, 41);
  sched::RunMetrics m;
  run_mo_lr(li, &m);
  SimExecutor ex(hm::MachineConfig::shared_l2(4));
  auto sb = ex.make_buf<std::uint64_t>(n);
  auto pb = ex.make_buf<std::uint64_t>(n);
  auto db = ex.make_buf<std::uint64_t>(n);
  sb.raw() = li.succ;
  pb.raw() = li.pred;
  auto mseq = ex.run(8 * n, [&] {
    list_rank_sequential(ex, sb.ref(), pb.ref(), db.ref());
  });
  EXPECT_EQ(mseq.span, mseq.work);        // baseline has zero parallelism
  EXPECT_LT(m.span * 2, m.work);          // MO-LR is genuinely parallel
}

}  // namespace
}  // namespace obliv::algo
