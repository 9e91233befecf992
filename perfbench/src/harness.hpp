// Shared plumbing of the benchmark program: options, clocks, process and
// host counters, order statistics and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       ///< tiny inputs, one round: every check, fast
  bool self_check = false;  ///< corrupt one output per check, expect firing
};

/// Process CPU and context switches from getrusage(RUSAGE_SELF): all
/// threads, so idle pool workers that burn kernel time show up here.
struct ProcSample {
  double user_ms = 0, sys_ms = 0;
  double vcsw = 0, ivcsw = 0;
  double cpu_ms() const { return user_ms + sys_ms; }
};
ProcSample proc_now();
ProcSample operator-(const ProcSample& a, const ProcSample& b);
ProcSample& operator+=(ProcSample& a, const ProcSample& b);

/// Host steal time in clock ticks (the `steal` column of /proc/stat), or
/// -1 when the file cannot be read.  Explains a noisy run; never gates it.
long long host_steal_ticks();

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Quantile of a program-published log2 histogram, interpolated linearly
/// inside the bucket that holds the rank (the histogram's own
/// percentile() returns bucket edges, which only move in powers of two).
double hist_quantile(const obliv::obs::Histogram& h, double q);

/// Metric values of one run, by name, with their units.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  /// Sets `name` only if no earlier pass measured it.
  void fill(const std::string& name, double value, const std::string& unit) {
    values_.emplace(name, Entry{value, unit});
  }
  void for_each(const std::function<void(const std::string&, double,
                                         const std::string&)>& f) const {
    for (const auto& [k, e] : values_) f(k, e.value, e.unit);
  }

 private:
  struct Entry {
    double value;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

/// The outcome of one run: the operation tally, the end-to-end metrics
/// (untraced runs) or per-layer metrics (traced runs), and the host
/// context printed beside them.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
};

/// Records one checked operation: a wrong output fails the operation and
/// the run's correctness.
inline void tally(RunResult& r, bool output_ok) {
  ++r.attempted;
  if (!output_ok) {
    ++r.failed;
    r.correct = false;
  }
}

/// Prints the final result line (the last line of standard output).
void print_result_line(const RunResult& r);

/// Formats a double with every digit needed to read it back exactly.
std::string exact(double v);

// ---- workloads --------------------------------------------------------------

/// Each workload function measures one run and fills `out`: end-to-end
/// metrics, or with opt.trace the per-layer metrics it reaches.
int run_solve(const Options& opt, RunResult& out);
int run_model(const Options& opt, RunResult& out);

/// serve.* metrics: a traced 5 s open loop into one serve::Server (2 jobs
/// per family with opt.smoke).  Returns false when a job's output is wrong.
bool measure_serve(const Options& opt, Metrics& m);

/// Self-check: each corrupts one output (or one simulated quantity) per
/// check at smoke size and returns the number of checks that did NOT fire.
int self_check_solve();
int self_check_serve();
int self_check_model();
/// Prints one self-check line; returns 1 unless the clean output passed
/// and the corrupted one was caught.
int report_check(const std::string& what, bool clean_ok, bool fired);

/// Direct calls of the SIMD leaf kernels at leaf sizes (simd.* metrics).
void measure_kernels(Metrics& m);

/// Reference figures for README.md, as markdown tables: the simple
/// baselines and the program's own 1-worker times at the solve sizes, and
/// the default against the serial simulation engine at the model sizes.
void reference_solve();
void reference_model();

/// Prints one host-context line (steal, CPU) before the result line.
void print_host_line(const char* what, long long steal_ticks,
                     const ProcSample& cpu, double wall_s);

}  // namespace perfbench
