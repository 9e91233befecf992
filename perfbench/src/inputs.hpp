// Seeded input generators.  Every input of every workload comes from here,
// so one --seed fixes all of a run's data.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "algo/fft.hpp"
#include "algo/graphgen.hpp"
#include "algo/listrank.hpp"
#include "algo/spmdv.hpp"
#include "util/rng.hpp"

namespace perfbench {

using obliv::algo::cplx;
using Rng = obliv::util::Xoshiro256;

inline std::vector<std::uint64_t> random_u64(Rng& rng, std::uint64_t n,
                                             std::uint64_t bound) {
  std::vector<std::uint64_t> v(n);
  for (auto& x : v) x = rng.below(bound);
  return v;
}

inline std::vector<std::int64_t> random_i64(Rng& rng, std::uint64_t n) {
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.below(2001)) - 1000;
  return v;
}

inline std::vector<cplx> random_signal(Rng& rng, std::uint64_t n) {
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  return v;
}

inline std::vector<double> random_matrix(Rng& rng, std::uint64_t n) {
  std::vector<double> v(n * n);
  for (auto& x : v) x = rng.uniform();
  return v;
}

/// Complete digraph with integer edge weights in [1, 1000] and a zero
/// diagonal: Floyd-Warshall sums stay exact in double.
inline std::vector<double> distance_matrix(Rng& rng, std::uint64_t n) {
  std::vector<double> x(n * n);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) {
      x[i * n + j] = i == j ? 0.0 : static_cast<double>(1 + rng.below(1000));
    }
  }
  return x;
}

/// A linked list threaded through a random permutation of [0, n).
struct ListInput {
  std::vector<std::uint64_t> succ, pred;
};

inline ListInput random_list(Rng& rng, std::uint64_t n) {
  std::vector<std::uint64_t> perm(n);
  for (std::uint64_t i = 0; i < n; ++i) perm[i] = i;
  for (std::uint64_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  ListInput l{std::vector<std::uint64_t>(n, obliv::algo::kNil),
              std::vector<std::uint64_t>(n, obliv::algo::kNil)};
  for (std::uint64_t t = 0; t + 1 < n; ++t) {
    l.succ[perm[t]] = perm[t + 1];
    l.pred[perm[t + 1]] = perm[t];
  }
  return l;
}

/// The Theorem-4 input: a side x side 5-point mesh in separator order,
/// with small integer entries and an integer x so y = A x is exact.
struct SpmInput {
  obliv::algo::SparseMatrix a;
  std::vector<double> x;
};

inline SpmInput grid_system(Rng& rng, std::uint64_t side) {
  SpmInput s{obliv::algo::grid_matrix_reordered(side, rng()), {}};
  for (auto& e : s.a.av) e.val = static_cast<double>(rng.below(17)) - 8.0;
  s.x.resize(s.a.n);
  for (auto& v : s.x) v = static_cast<double>(rng.below(2001)) - 1000.0;
  return s;
}

/// Bounded Pareto (alpha 1.3) quantile at u in [0, 1): most draws near
/// `lo`, a heavy tail up to `hi`.
inline double pareto_at(double u, double lo, double hi) {
  const double a = 1.3;
  const double la = std::pow(lo, a), ha = std::pow(hi, a);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / a);
}

}  // namespace perfbench
