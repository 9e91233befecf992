// CGC-scheduled scans (prefix sums) -- Section III-A.
//
// The paper states that scans on an input of size n can be scheduled with
// CGC in O(B_1 log n) parallel steps with Theta(n/(q_i B_i)) level-i cache
// misses (Table II row "Prefix sum").  We implement the classic recursive
// pairwise-contraction scan: each level is one CGC pfor over a geometrically
// shrinking array, so the span telescopes to O((n/p) + B_1 log n) and misses
// to a constant number of scans of n words.
//
// The algorithm is multicore-oblivious: it names no machine parameters;
// chunking is done by the CGC scheduler.
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>

#include "sched/hints.hpp"
#include "util/simd.hpp"

namespace obliv::algo {

/// Tag type for addition, in place of an opaque `a + b` lambda.  Scans and
/// reductions recognize it (is_add_op_v) and replace their native leaf
/// loops with the simd:: pair-sum / expand kernels; any other Op keeps the
/// generic element loop.  Semantically identical to the lambda it replaces.
template <class T>
struct AddOp {
  constexpr T operator()(const T& a, const T& b) const { return a + b; }
};

namespace detail {

template <class Op>
struct is_add_op : std::false_type {};
template <class T>
struct is_add_op<AddOp<T>> : std::true_type {};

/// Native leaves may vectorize iff the ref is plain memory AND the op is
/// the recognized addition tag AND the element type has a kernel.
template <class Ref, class Op>
inline constexpr bool scan_kernel_v =
    sched::is_direct_ref_v<Ref> && is_add_op<Op>::value &&
    (std::is_same_v<typename Ref::value_type, double> ||
     std::is_same_v<typename Ref::value_type, std::uint64_t>);

inline void pair_sum_kernel(const double* s, double* d, std::size_t n) {
  simd::pair_sum_f64(s, d, n);
}
inline void pair_sum_kernel(const std::uint64_t* s, std::uint64_t* d,
                            std::size_t n) {
  simd::pair_sum_u64(s, d, n);
}
inline void scan_expand_kernel(const double* t, double* v, std::size_t lo,
                               std::size_t hi) {
  simd::scan_expand_f64(t, v, lo, hi);
}
inline void scan_expand_kernel(const std::uint64_t* t, std::uint64_t* v,
                               std::size_t lo, std::size_t hi) {
  simd::scan_expand_u64(t, v, lo, hi);
}

}  // namespace detail

/// In-place inclusive scan of `v` under `op` (associative).
/// `scratch` must have size >= v.size() (the contraction tree's levels
/// n/2 + n/4 + ... sit side by side in it); pass a ref into a buffer
/// allocated from the same executor.  Recursion depth is O(log n); each
/// level runs two CGC pfors.
template <class Exec, class Ref, class Op>
void mo_scan_inclusive(Exec& ex, Ref v, Ref scratch, Op op) {
  using T = typename Ref::value_type;
  const std::uint64_t n = v.size();
  if (n <= 1) return;
  if (n == 2) {
    const T a = v.load(0);
    v.store(1, op(a, v.load(1)));
    return;
  }
  const std::uint64_t half = n / 2;

  // Contract: t[i] = v[2i] (+) v[2i+1].  The pair load is one batched
  // access -- the two per-element loads are back-to-back and contiguous,
  // so the collapsed B_1-block stream (hence every counter) is unchanged.
  ex.cgc_pfor(0, half, 2 * sizeof(T) / 8,
              [&](std::uint64_t lo, std::uint64_t hi) {
                if constexpr (detail::scan_kernel_v<Ref, Op>) {
                  if (simd::use_kernels()) {
                    detail::pair_sum_kernel(v.raw() + 2 * lo,
                                            scratch.raw() + lo, hi - lo);
                    return;
                  }
                }
                for (std::uint64_t i = lo; i < hi; ++i) {
                  const auto [a, b] = v.load2(2 * i);
                  scratch.store(i, op(a, b));
                }
              });

  mo_scan_inclusive(ex, scratch.slice(0, half),
                    scratch.slice(half, scratch.size() - half), op);

  // Expand: v[2i] = t[i-1] (+) v[2i], v[2i+1] = t[i].  Kept per-element:
  // batching this loop would reorder accesses across the t and v streams,
  // and on deep hierarchies the leftover recency shuffle at chunk
  // boundaries shifts later eviction victims -- the golden-counter test
  // catches it.  Only order-preserving merges are exact (DESIGN.md).
  ex.cgc_pfor(0, half, 2 * sizeof(T) / 8,
              [&](std::uint64_t lo, std::uint64_t hi) {
                if constexpr (detail::scan_kernel_v<Ref, Op>) {
                  if (simd::use_kernels()) {
                    std::uint64_t i0 = lo;
                    if (i0 == 0) {  // i = 0 writes only v[1] = t[0]
                      v.store(1, scratch.load(0));
                      i0 = 1;
                    }
                    detail::scan_expand_kernel(scratch.raw(), v.raw(), i0, hi);
                    return;
                  }
                }
                for (std::uint64_t i = lo; i < hi; ++i) {
                  if (i > 0) {
                    v.store(2 * i, op(scratch.load(i - 1), v.load(2 * i)));
                  }
                  v.store(2 * i + 1, scratch.load(i));
                }
              });
  if (n % 2 == 1) {
    v.store(n - 1, op(v.load(n - 2), v.load(n - 1)));
  }
}

/// Convenience wrapper that allocates scratch from the executor.
/// Space bound: 2n (input plus contraction tree).
template <class Exec, class Ref, class Op>
void mo_scan(Exec& ex, Ref v, Op op) {
  using T = typename Ref::value_type;
  auto scratch = ex.template make_buf<T>(v.size());
  mo_scan_inclusive(ex, v, scratch.ref(), op);
}

/// Inclusive prefix sum specialization (AddOp engages the native simd
/// leaves; every other backend sees the same `a + b`).
template <class Exec, class Ref>
void mo_prefix_sum(Exec& ex, Ref v) {
  using T = typename Ref::value_type;
  mo_scan(ex, v, AddOp<T>{});
}

/// Parallel reduction under `op`; returns the total.  One CGC pass per
/// contraction level.
template <class Exec, class Ref, class Op>
typename Ref::value_type mo_reduce(Exec& ex, Ref v, Op op) {
  using T = typename Ref::value_type;
  const std::uint64_t n = v.size();
  if (n == 0) return T{};
  if (n == 1) return v.load(0);
  auto scratch_buf = ex.template make_buf<T>((n + 1) / 2);
  auto scratch = scratch_buf.ref();
  const std::uint64_t half = n / 2;
  ex.cgc_pfor(0, half, 2 * sizeof(T) / 8,
              [&](std::uint64_t lo, std::uint64_t hi) {
                if constexpr (detail::scan_kernel_v<Ref, Op>) {
                  if (simd::use_kernels()) {
                    detail::pair_sum_kernel(v.raw() + 2 * lo,
                                            scratch.raw() + lo, hi - lo);
                    return;
                  }
                }
                for (std::uint64_t i = lo; i < hi; ++i) {
                  const auto [a, b] = v.load2(2 * i);
                  scratch.store(i, op(a, b));
                }
              });
  if (n % 2 == 1) scratch.store(half, v.load(n - 1));
  return mo_reduce(ex, scratch.slice(0, (n + 1) / 2), op);
}

}  // namespace obliv::algo
