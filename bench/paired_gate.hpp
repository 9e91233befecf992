// The paired-ratio gate behind every overhead guardrail
// (bench_wallclock --fault/--hist/--simd-off-check, bench_serve
// --serve/--cancel-off-check).
//
// A guardrail asks whether a candidate path (a hook attached, a mode
// switched, a job served) costs more than its base path on a drifting,
// shared host.  Absolute ns/op can swing 2x across a run, so the gate never
// compares absolutes.  The statistics:
//
//  * Per repetition the base / base / candidate runs go back-to-back, in
//    an order that alternates between reps (a, a2, b on even reps; b, a2, a
//    on odd ones): a fixed order hands the same run the tail of every load
//    burst.
//  * Within each rep, b/a2 is the overhead ratio and a/a2 the A/A noise
//    ratio.  a2 is adjacent to both a and b in either order, so both ratios
//    span the same time distance and host drift divides out of them alike.
//    (Comparing b against min(a, a2) instead would bias the denominator low
//    and read pure noise as overhead.)
//  * The reported overhead is the median overhead ratio across reps, and
//    the A/A noise is the median noise ratio -- the residual pairing-noise
//    floor.
//  * Gate: overhead <= max(floor, A/A noise + 1%).  The floor is the
//    guardrail's own budget: 1% where the candidate is one branch away from
//    the base, 5% where the two are genuinely different code.
//  * A row that fails is measured once more before it fails for real: host
//    load oscillating in resonance with the rep cadence can push one
//    measurement past the budget, while a real regression reproduces.
//  * Smoke mode measures and prints, but never gates.
//
// The min-of-reps absolutes ride along for scale only.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace obliv::bench {

/// One paired-ratio measurement of a candidate path against its base path.
struct PairedMeasurement {
  double base_ns = 0;    ///< min over reps of both base runs (scale only)
  double cand_ns = 0;    ///< min over reps of the candidate run (scale only)
  double noise_pct = 0;  ///< |median A/A ratio - 1|, in percent
  double over_pct = 0;   ///< median overhead ratio - 1, in percent

  /// The gate verdict: overhead <= max(floor_pct, A/A noise + 1%).
  bool within(double floor_pct) const {
    return over_pct <= std::max(floor_pct, noise_pct + 1.0);
  }
};

/// Runs `reps` paired repetitions.  `base()` and `cand()` each time one
/// run and return its ns; the candidate sets up and tears down its own
/// state (attach a hook, switch a mode) outside the timed region.
template <class Base, class Cand>
PairedMeasurement paired_measure(int reps, Base&& base, Cand&& cand) {
  std::vector<double> over, noise;
  PairedMeasurement m;
  for (int r = 0; r < reps; ++r) {
    double a, a2, b;
    if (r % 2 == 0) {
      a = base();
      a2 = base();
      b = cand();
    } else {
      b = cand();
      a2 = base();
      a = base();
    }
    over.push_back(b / a2);
    noise.push_back(a / a2);
    const double off = std::min(a, a2);
    if (r == 0 || off < m.base_ns) m.base_ns = off;
    if (r == 0 || b < m.cand_ns) m.cand_ns = b;
  }
  auto median = [](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  m.noise_pct = 100.0 * std::abs(median(noise) - 1.0);
  m.over_pct = 100.0 * (median(over) - 1.0);
  return m;
}

/// A gated row: the measurement it was judged on, and the verdict.
struct GateResult {
  PairedMeasurement m;
  bool ok = true;
};

/// Judges `measure()` against `floor_pct`, measuring once more before a
/// failure counts.  In smoke mode the row is measured once and passes.
template <class Measure>
GateResult paired_gate(bool smoke, double floor_pct, Measure&& measure) {
  GateResult g{measure(), true};
  if (smoke || g.m.within(floor_pct)) return g;
  g.m = measure();
  g.ok = g.m.within(floor_pct);
  return g;
}

/// The gate's one-line description for a guardrail's banner.
inline std::string gate_label(bool smoke, double floor_pct) {
  if (smoke) return "off (smoke)";
  char buf[64];
  std::snprintf(buf, sizeof buf, "on (<= max(%g%%, A/A noise + 1%%))",
                floor_pct);
  return buf;
}

}  // namespace obliv::bench
