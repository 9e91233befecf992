// Shared helpers for the per-table/figure benchmark binaries.
//
// Each bench prints, for a parameter sweep, the measured quantity next to
// the paper's closed-form bound and their ratio; a bound "holds in shape"
// when the ratio column is flat (constant factor) across the sweep.  The
// fitted log-log slope is printed so EXPERIMENTS.md can record measured vs
// predicted growth exponents.
#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hm/config.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace obliv::bench {

inline void print_header(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n";
}

/// True when the binary was invoked with --smoke.  Under --smoke a bench
/// shrinks its sweeps to the smallest sizes that still exercise every code
/// path and prints the same tables; bench/CMakeLists.txt registers every
/// bench as a `ctest` entry with this flag, so bench bitrot is caught on
/// every ctest invocation instead of the next manual bench run.
inline bool smoke(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--smoke") return true;
  }
  return false;
}

/// A sweep that keeps only its first `keep` points under --smoke (two
/// points still exercise the sweep loop and give loglog_slope something to
/// fit, while skipping the large sizes that dominate a bench's runtime).
template <class T>
std::vector<T> sweep(bool smoke_mode, std::initializer_list<T> full,
                     std::size_t keep = 2) {
  std::vector<T> v(full);
  if (smoke_mode && v.size() > keep) v.resize(keep);
  return v;
}

inline void print_machine(const hm::MachineConfig& cfg) {
  std::cout << "machine: " << cfg.describe() << "\n";
}

// ---------------------------------------------------------------------------
// Unified trace export: every bench honors `--trace-out=<path>` (or the
// OBLIV_TRACE_OUT environment variable) with one spelling.  Construct one
// TraceExport at the top of main(); executor/machine construction sites
// then call bench::trace_attach(obj).  When tracing was not requested the
// tracer is null and trace_attach degrades to set_tracer(nullptr).  The
// Chrome trace is written when the TraceExport leaves scope; rings that
// overwrote events are surfaced by the exporter's stderr drop warning and
// recorded in the trace's otherData (obliv-trace refuses such a trace for
// span analysis but chrome://tracing renders it fine).
// ---------------------------------------------------------------------------
class TraceExport {
 public:
  /// `rings` must be >= the worker count of any native pool the trace is
  /// attached to (rings are single-producer); sim/NO benches use 1.
  TraceExport(int argc, char** argv, std::uint32_t rings = 1,
              std::size_t capacity = obs::TraceRing::kDefaultCapacity)
      : path_(obs::resolve_trace_out(argc, argv)) {
    if (!path_.empty()) {
      tracer_ = std::make_unique<obs::Tracer>(rings, capacity);
    }
    active_ = this;
  }
  ~TraceExport() {
    if (tracer_ != nullptr && obs::write_chrome_trace(path_, *tracer_)) {
      std::cout << "trace: wrote " << path_ << " ("
                << tracer_->events_pushed() << " events, "
                << tracer_->events_dropped() << " dropped)\n";
    }
    if (active_ == this) active_ = nullptr;
  }
  TraceExport(const TraceExport&) = delete;
  TraceExport& operator=(const TraceExport&) = delete;

  obs::Tracer* tracer() const { return tracer_.get(); }

  /// The innermost live TraceExport, for helpers that do not see argv.
  static obs::Tracer* active_tracer() {
    return active_ != nullptr ? active_->tracer() : nullptr;
  }

 private:
  static inline TraceExport* active_ = nullptr;
  std::string path_;
  std::unique_ptr<obs::Tracer> tracer_;
};

/// Attaches the active trace export (if any) to a freshly constructed
/// executor / machine; returns it for chaining.
template <class T>
T& trace_attach(T& target) {
  target.set_tracer(TraceExport::active_tracer());
  return target;
}

/// One sweep series: x (problem size), measured, and the model prediction.
struct Series {
  Series() = default;
  explicit Series(std::string n) : name(std::move(n)) {}

  std::string name;
  std::vector<double> x, measured, model;

  void add(double xi, double meas, double mod) {
    x.push_back(xi);
    measured.push_back(meas);
    model.push_back(mod);
  }
};

/// Prints x / measured / model / ratio rows plus slope + flatness summary.
inline void print_series(const Series& s,
                         const std::string& xlabel = "n") {
  util::Table t({xlabel, "measured", "model", "ratio"});
  for (std::size_t i = 0; i < s.x.size(); ++i) {
    t.add_row({util::Table::fmt(s.x[i], "%.0f"),
               util::Table::fmt(s.measured[i], "%.4g"),
               util::Table::fmt(s.model[i], "%.4g"),
               util::Table::fmt(s.measured[i] / s.model[i], "%.3f")});
  }
  std::cout << "\n-- " << s.name << " --\n";
  t.print(std::cout);
  const double slope_meas = util::loglog_slope(s.x, s.measured);
  const double slope_model = util::loglog_slope(s.x, s.model);
  std::cout << "loglog slope: measured " << util::Table::fmt(slope_meas, "%.3f")
            << " vs model " << util::Table::fmt(slope_model, "%.3f")
            << "; ratio spread "
            << util::Table::fmt(util::ratio_spread(s.measured, s.model),
                                "%.2f")
            << "x (flat ratio => bound shape holds)\n";
}

// ---------------------------------------------------------------------------
// Wall-clock timing + machine-readable output (BENCH_*.json)
// ---------------------------------------------------------------------------

/// Git revision baked in by bench/CMakeLists.txt at configure time.
inline const char* git_rev() {
#ifdef OBLIV_GIT_REV
  return OBLIV_GIT_REV;
#else
  return "unknown";
#endif
}

/// Host hardware concurrency as seen by the process (0 is normalized to 1).
/// Recorded in every BENCH_*.json so parallel numbers from hosts with
/// different core counts are never compared as like-for-like.
inline unsigned host_concurrency() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : hc;
}

/// True when this bench run pins its threads: OBLIV_PIN is set (see
/// sched::pinning_requested) and the platform affinity call works.  The
/// first call pins the calling (main/worker-0) thread to core 0 -- the pool
/// workers pin themselves on spawn -- so measurement runs under OBLIV_PIN=1
/// are fully pinned.  Recorded alongside hardware_concurrency so pinned and
/// unpinned rows are never compared as like-for-like in the JSON history.
inline bool threads_pinned() {
  static const bool pinned =
      sched::pinning_requested() && sched::pin_current_thread(0);
  return pinned;
}

/// Opens `{` and writes the environment fields every BENCH_*.json carries
/// (git_rev, hardware_concurrency, pinned) -- one spelling shared by every
/// recorder so the fields can never drift apart across benches.  The
/// caller continues with its own keys and closes the object.
inline void write_json_env_header(std::ostream& out) {
  out << "{\n  \"git_rev\": \"" << git_rev() << "\",\n";
  out << "  \"hardware_concurrency\": " << host_concurrency() << ",\n";
  out << "  \"pinned\": " << (threads_pinned() ? "true" : "false") << ",\n";
}

/// One timed execution of `fn`, in nanoseconds.
inline double time_once_ns(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Runs `fn` once untimed (warm-up), then `reps` timed repetitions, and
/// returns the median wall-clock nanoseconds of one repetition.  Median of
/// K is robust to the occasional scheduler hiccup a mean would smear in.
inline double median_ns(int reps, const std::function<void()>& fn) {
  fn();
  std::vector<double> ns;
  ns.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    ns.push_back(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

/// Collects one record per (workload, scheduler, threads, n) measurement and
/// writes them as a JSON document, so the perf trajectory is trackable
/// across PRs (compare BENCH_wallclock.json between checkouts).
class JsonRecorder {
 public:
  struct Record {
    std::string bench;
    std::string sched;
    unsigned threads = 1;
    std::uint64_t n = 0;
    double ns_per_op = 0;
    int reps = 0;
  };

  explicit JsonRecorder(std::string path) : path_(std::move(path)) {}

  void add(const std::string& bench_name, const std::string& sched,
           unsigned threads, std::uint64_t n, double ns_per_op, int reps) {
    records_.push_back(Record{bench_name, sched, threads, n, ns_per_op, reps});
  }

  /// Writes the collected records; returns false (and warns) on I/O error.
  bool write() const {
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "warning: cannot write " << path_ << "\n";
      return false;
    }
    write_json_env_header(out);
    out << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"bench\": \"" << r.bench << "\", \"sched\": \"" << r.sched
          << "\", \"threads\": " << r.threads << ", \"n\": " << r.n
          // three decimals: the simd:* kernel rows are per-element and
          // sub-nanosecond, where one decimal would quantize the ratios.
          << ", \"ns_per_op\": " << util::Table::fmt(r.ns_per_op, "%.3f")
          << ", \"reps\": " << r.reps << "}"
          << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path_ << " (" << records_.size()
              << " records, git_rev=" << git_rev() << ")\n";
    return true;
  }

 private:
  std::string path_;
  std::vector<Record> records_;
};

/// Recorder for the simulator-throughput bench (BENCH_simrate.json).
/// One record per (workload, machine config, n): the number of simulated
/// word accesses per repetition, the best-of-K rate of the current
/// simulator, and -- for trace-replay rows -- the rate of the vendored
/// pre-optimization simulator on the identical trace plus their ratio, so
/// the simulator's speed (and the speedup claim) is trackable across PRs.
class SimRateRecorder {
 public:
  struct Record {
    std::string bench;
    std::string config;
    std::uint64_t n = 0;
    std::uint64_t accesses = 0;    ///< simulated word accesses per rep
    double acc_per_sec = 0;        ///< best-of-K, current simulator
    double base_acc_per_sec = 0;   ///< best-of-K, baseline (0 = no baseline)
    double speedup = 0;            ///< acc_per_sec / base_acc_per_sec
    int reps = 0;
  };

  explicit SimRateRecorder(std::string path) : path_(std::move(path)) {}

  void add(const std::string& bench_name, const std::string& config,
           std::uint64_t n, std::uint64_t accesses, double acc_per_sec,
           double base_acc_per_sec, double speedup, int reps) {
    records_.push_back(Record{bench_name, config, n, accesses, acc_per_sec,
                              base_acc_per_sec, speedup, reps});
  }

  bool write() const {
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "warning: cannot write " << path_ << "\n";
      return false;
    }
    write_json_env_header(out);
    out << "  \"records\": [\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << "    {\"bench\": \"" << r.bench << "\", \"config\": \""
          << r.config << "\", \"n\": " << r.n
          << ", \"accesses\": " << r.accesses << ", \"acc_per_sec\": "
          << util::Table::fmt(r.acc_per_sec, "%.4g")
          << ", \"base_acc_per_sec\": "
          << util::Table::fmt(r.base_acc_per_sec, "%.4g")
          << ", \"speedup\": " << util::Table::fmt(r.speedup, "%.3f")
          << ", \"reps\": " << r.reps << "}"
          << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << path_ << " (" << records_.size()
              << " records, git_rev=" << git_rev() << ")\n";
    return true;
  }

 private:
  std::string path_;
  std::vector<Record> records_;
};

}  // namespace obliv::bench
