// Independent correctness oracles, one per family.  None of them calls the
// library's algorithms: each is the plainest serial code for the job, and
// inputs are chosen so that every comparison is exact except the FFT's,
// whose tolerance is stated below.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <numbers>
#include <vector>

#include "util/rng.hpp"

namespace perfbench::oracle {

using cplx = std::complex<double>;
inline constexpr std::uint64_t kNil = ~0ull;  // list terminator

/// Exact serial inclusive prefix sum (integer inputs: no rounding).
template <class T>
std::vector<T> scan(const std::vector<T>& in) {
  std::vector<T> out(in.size());
  T acc = 0;
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = acc = acc + in[i];
  return out;
}

template <class T>
std::vector<T> sort(std::vector<T> in) {
  std::sort(in.begin(), in.end());
  return in;
}

/// Naive transpose of an n x n row-major matrix.
inline std::vector<double> transpose(const std::vector<double>& a,
                                     std::uint64_t n) {
  std::vector<double> out(n * n);
  for (std::uint64_t i = 0; i < n; ++i) {
    for (std::uint64_t j = 0; j < n; ++j) out[j * n + i] = a[i * n + j];
  }
  return out;
}

/// Plain triple-loop Floyd-Warshall.  Integer-valued weights keep every
/// sum exact, so the comparison is exact whatever order the program uses.
inline std::vector<double> floyd_warshall(std::vector<double> x,
                                          std::uint64_t n) {
  for (std::uint64_t k = 0; k < n; ++k) {
    for (std::uint64_t i = 0; i < n; ++i) {
      const double u = x[i * n + k];
      for (std::uint64_t j = 0; j < n; ++j) {
        const double c = u + x[k * n + j];
        if (c < x[i * n + j]) x[i * n + j] = c;
      }
    }
  }
  return x;
}

/// Serial pointer walk: dist[v] = number of nodes after v.
inline std::vector<std::uint64_t> list_rank(
    const std::vector<std::uint64_t>& succ) {
  const std::uint64_t n = succ.size();
  std::vector<std::uint8_t> has_pred(n, 0);
  for (std::uint64_t v = 0; v < n; ++v) {
    if (succ[v] != kNil) has_pred[succ[v]] = 1;
  }
  std::uint64_t head = 0;
  while (head < n && has_pred[head]) ++head;
  std::vector<std::uint64_t> dist(n, kNil);
  std::uint64_t pos = 0;
  for (std::uint64_t v = head; v != kNil; v = succ[v]) dist[v] = n - 1 - pos++;
  return dist;
}

/// Plain CSR loop y = A x.  Integer-valued entries and x keep every sum
/// exact.
template <class Entry>
std::vector<double> spmdv(const std::vector<std::uint64_t>& a0,
                          const std::vector<Entry>& av,
                          const std::vector<double>& x) {
  const std::uint64_t n = a0.size() - 1;
  std::vector<double> y(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    double s = 0;
    for (std::uint64_t t = a0[i]; t < a0[i + 1]; ++t) {
      s += av[t].val * x[av[t].col];
    }
    y[i] = s;
  }
  return y;
}

/// Iterative radix-2 FFT (bit reversal, then butterfly passes), same sign
/// convention as the DFT below: the simple baseline for the FFT family.
inline void radix2_fft(std::vector<cplx>& x) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = -2.0 * std::numbers::pi / static_cast<double>(len);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx w = std::polar(1.0, ang * static_cast<double>(k));
        const cplx a = x[i + k], b = x[i + k + len / 2] * w;
        x[i + k] = a + b;
        x[i + k + len / 2] = a - b;
      }
    }
  }
}

/// FFT oracle: a direct DFT, Y[f] = sum_t x[t] exp(-2 pi i f t / n), at
/// sampled frequencies (0, 1, n/2, n-1 and `extra` seeded ones), plus
/// Parseval's identity sum |Y|^2 = n sum |x|^2 over the whole output.
/// Tolerances: each sampled bin within 1e-9 ||x||_2 (a correct FFT is off
/// by O(eps log n) ||x||_2, a wrong bin by about ||x||_2), and Parseval to
/// a relative 1e-9.
class Fft {
 public:
  Fft() = default;
  Fft(const std::vector<cplx>& x, std::uint64_t seed, int extra = 12) {
    const std::uint64_t n = x.size();
    long double e = 0;
    for (const cplx& v : x) e += std::norm(std::complex<long double>(v));
    energy_ = static_cast<double>(e);
    freqs_ = {0, 1 % n, n / 2, n - 1};
    obliv::util::Xoshiro256 rng(seed ^ 0x5eedf00dull);
    for (int k = 0; k < extra; ++k) freqs_.push_back(rng.below(n));
    // Twiddles indexed by (f * t) mod n, computed in long double.
    std::vector<std::complex<long double>> w(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      const long double ang = -2.0L * std::numbers::pi_v<long double> *
                              static_cast<long double>(k) /
                              static_cast<long double>(n);
      w[k] = {std::cos(ang), std::sin(ang)};
    }
    for (std::uint64_t f : freqs_) {
      std::complex<long double> acc = 0;
      for (std::uint64_t t = 0; t < n; ++t) {
        acc += std::complex<long double>(x[t]) * w[(f * t) % n];
      }
      expect_.push_back(cplx(static_cast<double>(acc.real()),
                             static_cast<double>(acc.imag())));
    }
  }

  bool check(const std::vector<cplx>& y) const { return check(y.data(), y.size()); }

  bool check(const cplx* y, std::size_t n) const {
    const double tol = 1e-9 * std::sqrt(energy_) + 1e-12;
    for (std::size_t k = 0; k < freqs_.size(); ++k) {
      if (std::abs(y[freqs_[k]] - expect_[k]) > tol) return false;
    }
    long double e = 0;
    for (std::size_t f = 0; f < n; ++f) {
      e += std::norm(std::complex<long double>(y[f]));
    }
    const double want = energy_ * static_cast<double>(n);
    return std::abs(static_cast<double>(e) - want) <= 1e-9 * want + 1e-12;
  }

 private:
  double energy_ = 0;
  std::vector<std::uint64_t> freqs_;
  std::vector<cplx> expect_;
};

}  // namespace perfbench::oracle
