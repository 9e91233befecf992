// Table II bound checks as tier-1 tests.
//
// EXPERIMENTS.md validates the paper's cache/step bounds by fitting log-log
// growth exponents and checking that the measured/bound ratio stays flat
// across an n-sweep.  Those sweeps live in the bench binaries and are run
// by hand; this file promotes the methodology into fast always-on tests:
// small-n sweeps of the core Table II workloads (transposition, FFT,
// prefix sum, SPMS sort, MO-LR list ranking) on shared_l2(4), asserting
// the fitted exponent and the ratio spread stay inside windows recorded
// from the seed measurements.
// The windows are deliberately generous -- they catch a broken scheduler or
// simulator (which shifts exponents by whole factors or blows up the
// spread), not noise (the simulator is deterministic, so any drift at all
// is a real behaviour change).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "algo/fft.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "hm/config.hpp"
#include "sched/sim_executor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace obliv {
namespace {

struct Fit {
  double slope = 0;    ///< fitted log-log exponent of the measured series
  double spread = 0;   ///< max/min of measured/bound across the sweep
};

/// Runs `measure(n)` over `ns`, pairing each measurement with `bound(n)`.
template <class Measure, class Bound>
Fit fit_sweep(const std::vector<std::uint64_t>& ns, Measure&& measure,
              Bound&& bound) {
  std::vector<double> x, y, model;
  for (std::uint64_t n : ns) {
    x.push_back(double(n));
    y.push_back(measure(n));
    model.push_back(bound(n));
  }
  Fit f;
  f.slope = util::loglog_slope(x, y);
  f.spread = util::ratio_spread(y, model);
  return f;
}

const hm::MachineConfig& machine() {
  static const hm::MachineConfig cfg = hm::MachineConfig::shared_l2(4);
  return cfg;
}

double l1_bound_factor() {
  const auto& cfg = machine();
  return double(cfg.caches_at(1)) * cfg.block(1);
}

double log_c1(double n) {
  return std::max(1.0, std::log(n) / std::log(double(machine().capacity(1))));
}

TEST(BoundsTableII, TransposeL1MissesTrackNSquaredOverQB) {
  // Theorem 1: O(n²/(q₁B₁) + B₁) max misses per L1.  Exponent 2 with the
  // small-n droop EXPERIMENTS.md records (2.32 → 2.0 plateau); the ratio
  // plateaus at exactly 7.0 from n = 512 on.
  const Fit f = fit_sweep(
      {64, 128, 256, 512},
      [](std::uint64_t n) {
        sched::SimExecutor ex(machine());
        auto a = ex.make_buf<double>(n * n);
        auto out = ex.make_buf<double>(n * n);
        for (auto& v : a.raw()) v = 1.0;
        const auto m = ex.run(3 * n * n, [&] {
          algo::mo_transpose(ex, a.ref(), out.ref(), n);
        });
        return double(m.level_max_misses[0]);
      },
      [](std::uint64_t n) { return double(n) * n / l1_bound_factor(); });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.9);
  EXPECT_LE(f.slope, 2.5);
  EXPECT_LE(f.spread, 2.5);
}

TEST(BoundsTableII, TransposeSpanTracksNSquaredOverP) {
  // Theorem 1's step bound: span exponent 2.000, ratio within 1.01×
  // recorded; window allows 1.2×.
  const Fit f = fit_sweep(
      {64, 128, 256, 512},
      [](std::uint64_t n) {
        sched::SimExecutor ex(machine());
        auto a = ex.make_buf<double>(n * n);
        auto out = ex.make_buf<double>(n * n);
        for (auto& v : a.raw()) v = 1.0;
        const auto m = ex.run(3 * n * n, [&] {
          algo::mo_transpose(ex, a.ref(), out.ref(), n);
        });
        return double(m.span);
      },
      [](std::uint64_t n) { return double(n) * n / machine().cores(); });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.95);
  EXPECT_LE(f.slope, 2.05);
  EXPECT_LE(f.spread, 1.2);
}

TEST(BoundsTableII, FftL1MissesTrackNLogCnOverQB) {
  // Theorem 2: O((n/(q₁B₁)) log_{C₁} n) misses; EXPERIMENTS.md records
  // slope 1.27 vs model 1.10 with spread 2.3× on the full sweep.
  const Fit f = fit_sweep(
      {1u << 11, 1u << 12, 1u << 13, 1u << 14},
      [](std::uint64_t n) {
        sched::SimExecutor ex(machine());
        auto buf = ex.make_buf<algo::cplx>(n);
        for (auto& v : buf.raw()) v = algo::cplx(1.0, 0.0);
        const auto m = ex.run(6 * n, [&] { algo::mo_fft(ex, buf.ref()); });
        return double(m.level_max_misses[0]);
      },
      [](std::uint64_t n) {
        return double(n) / l1_bound_factor() * log_c1(double(n));
      });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.0);
  EXPECT_LE(f.slope, 1.6);
  EXPECT_LE(f.spread, 3.0);
}

TEST(BoundsTableII, ScanL1MissesTrackNOverQB) {
  // Table II row 1: Θ(n/(q₁B₁)) misses -- a pure scan, so the exponent is
  // 1 and the ratio is essentially constant.  Sizes start at 2^14 so the
  // tree phase's O(log n) additive term is already negligible.
  const Fit f = fit_sweep(
      {1u << 14, 1u << 16, 1u << 18, 1u << 19},
      [](std::uint64_t n) {
        sched::SimExecutor ex(machine());
        auto buf = ex.make_buf<std::int64_t>(n);
        for (auto& v : buf.raw()) v = 1;
        const auto m = ex.run(2 * n, [&] {
          algo::mo_prefix_sum(ex, buf.ref());
        });
        return double(m.level_max_misses[0]);
      },
      [](std::uint64_t n) { return double(n) / l1_bound_factor(); });
  SCOPED_TRACE(::testing::Message() << "slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 0.9);
  EXPECT_LE(f.slope, 1.1);
  EXPECT_LE(f.spread, 1.5);
}

TEST(BoundsTableII, SortL1MissesAndWorkTrackTheorem3) {
  // Theorem 3: O((n/(q₁B₁)) log_{C₁} n) misses, O(n log n) work; recorded
  // work slope 1.13 (spread 1.14×) and miss spread 1.44×.
  std::vector<double> x, work, work_model;
  const Fit f = fit_sweep(
      {1u << 11, 1u << 12, 1u << 13, 1u << 14},
      [&](std::uint64_t n) {
        sched::SimExecutor ex(machine());
        auto buf = ex.make_buf<std::uint64_t>(n);
        util::Xoshiro256 rng(n);
        for (auto& v : buf.raw()) v = rng();
        const auto m = ex.run(4 * n, [&] { algo::spms_sort(ex, buf.ref()); });
        x.push_back(double(n));
        work.push_back(double(m.work));
        work_model.push_back(double(n) * std::log2(double(n)));
        return double(m.level_max_misses[0]);
      },
      [](std::uint64_t n) {
        return double(n) / l1_bound_factor() * log_c1(double(n));
      });
  // Seed measurements at these sizes: miss slope 1.39 spread 1.69, work
  // slope 1.31 spread 1.44 (log_{C₁} n advances in integer steps at small
  // n, steepening both fits vs the smooth model).
  SCOPED_TRACE(::testing::Message() << "miss slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.1);
  EXPECT_LE(f.slope, 1.65);
  EXPECT_LE(f.spread, 2.2);

  const double wslope = util::loglog_slope(x, work);
  const double wspread = util::ratio_spread(work, work_model);
  SCOPED_TRACE(::testing::Message() << "work slope=" << wslope
                                    << " spread=" << wspread);
  EXPECT_GE(wslope, 1.05);
  EXPECT_LE(wslope, 1.45);
  EXPECT_LE(wspread, 1.7);
}

TEST(BoundsTableII, ListRankTracksTheorem7) {
  // Theorem 7: MO-LR moves data between list neighbours only through O(1)
  // sorts and scans per contraction level over a geometrically shrinking
  // list, so it inherits the sort bounds: O((n/(q₁B₁)) log_{C₁} n) misses
  // and O(n log n) work.  The list is a random permutation of memory.
  std::vector<double> x, work, work_model;
  const Fit f = fit_sweep(
      {1u << 10, 1u << 11, 1u << 12, 1u << 13},
      [&](std::uint64_t n) {
        sched::SimExecutor ex(machine());
        auto sb = ex.make_buf<std::uint64_t>(n);
        auto pb = ex.make_buf<std::uint64_t>(n);
        auto db = ex.make_buf<std::uint64_t>(n);
        std::vector<std::uint64_t> perm(n);
        std::iota(perm.begin(), perm.end(), 0);
        util::Xoshiro256 rng(n);
        for (std::uint64_t i = n; i > 1; --i) {
          std::swap(perm[i - 1], perm[rng.below(i)]);
        }
        sb.raw().assign(n, algo::kNil);
        pb.raw().assign(n, algo::kNil);
        for (std::uint64_t t = 0; t + 1 < n; ++t) {
          sb.raw()[perm[t]] = perm[t + 1];
          pb.raw()[perm[t + 1]] = perm[t];
        }
        const auto m = ex.run(8 * n, [&] {
          algo::mo_list_rank(ex, sb.ref(), pb.ref(), db.ref());
        });
        x.push_back(double(n));
        work.push_back(double(m.work));
        work_model.push_back(double(n) * std::log2(double(n)));
        return double(m.level_max_misses[0]);
      },
      [](std::uint64_t n) {
        return double(n) / l1_bound_factor() * log_c1(double(n));
      });
  // Windows set from two-sort pull routing (miss slope 1.35 spread 1.80,
  // work slope 1.26 spread 1.36; steeper than the smooth model for the
  // sort test's integer-step log_{C₁} n reason).  One-sort push routing
  // cut the constants ~2.5x and reads 1.33 / 1.73 and 1.24 / 1.31: the
  // routing moves the constant, not the shape.
  SCOPED_TRACE(::testing::Message() << "miss slope=" << f.slope
                                    << " spread=" << f.spread);
  EXPECT_GE(f.slope, 1.1);
  EXPECT_LE(f.slope, 1.6);
  EXPECT_LE(f.spread, 2.3);

  const double wslope = util::loglog_slope(x, work);
  const double wspread = util::ratio_spread(work, work_model);
  SCOPED_TRACE(::testing::Message() << "work slope=" << wslope
                                    << " spread=" << wspread);
  EXPECT_GE(wslope, 1.05);
  EXPECT_LE(wslope, 1.45);
  EXPECT_LE(wspread, 1.7);
}

}  // namespace
}  // namespace obliv
