// simd.* metrics: direct calls of the leaf kernels at leaf sizes, in ns
// per element.  Inputs are L1-resident, so these time the kernels' own
// arithmetic and data movement, not memory.
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "algo/spmdv.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "util/simd.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLeaf = 1024;  // elements per call
constexpr int kCalls = 64;           // calls per sample
constexpr int kSamples = 31;

double ns_per_element(const std::function<void()>& call) {
  std::vector<double> s;
  for (int r = 0; r < kSamples; ++r) {
    const auto t0 = Clock::now();
    for (int c = 0; c < kCalls; ++c) call();
    s.push_back(ms_between(t0, Clock::now()) * 1e6 / (kCalls * double(kLeaf)));
  }
  return median(s);
}

}  // namespace

void measure_kernels(Metrics& m) {
  namespace simd = obliv::simd;
  Rng rng(0x51dull);
  std::vector<double> a(2 * kLeaf), b(2 * kLeaf), c(kLeaf), d(kLeaf), wr(kLeaf),
      wi(kLeaf);
  for (auto* v : {&a, &b, &c, &d, &wr, &wi}) {
    for (auto& x : *v) x = rng.uniform();
  }
  std::vector<std::uint64_t> idx(kLeaf), t(kLeaf), v(2 * kLeaf);
  for (auto& i : idx) i = rng.below(kLeaf);
  for (auto& x : v) x = rng.below(1u << 20);
  std::vector<obliv::algo::SpmEntry> e(kLeaf);
  for (auto& x : e) x = {rng.below(kLeaf), rng.uniform()};
  volatile double sink = 0;  // keeps the dot products live

  // The scan leaf as mo_prefix_sum runs it on uint64: contract, expand.
  m.set("simd.scan_expand_ns", ns_per_element([&] {
          simd::pair_sum_u64(v.data(), t.data(), kLeaf);
          simd::scan_expand_u64(t.data(), v.data(), 1, kLeaf);
        }), "ns");
  m.set("simd.copy_ns", ns_per_element([&] {
          simd::copy_bytes(a.data(), b.data(), kLeaf * sizeof(double));
        }), "ns");
  m.set("simd.butterfly_ns", ns_per_element([&] {
          simd::butterfly_f64(a.data(), b.data(), c.data(), d.data(), wr.data(),
                              wi.data(), kLeaf);
        }), "ns");
  m.set("simd.gather_ns", ns_per_element([&] {
          simd::gather_f64(a.data(), idx.data(), c.data(), kLeaf);
        }), "ns");
  // Converging min-updates: every repetition takes the same compare path.
  m.set("simd.fw_min_ns", ns_per_element([&] {
          simd::fw_min_f64(c.data(), d.data(), 0.5, kLeaf);
        }), "ns");
  m.set("simd.dot_strided_ns", ns_per_element([&] {
          sink = sink + simd::dot_strided_f64(&e[0].col, &e[0].val, 2, a.data(), kLeaf);
        }), "ns");
}

}  // namespace perfbench
