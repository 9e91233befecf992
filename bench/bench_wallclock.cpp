// Wall-clock benchmarks of the MO algorithms on the *native* executor
// (real std::threads on the host machine), for both scheduler backends:
//
//   sched=steal    work-stealing deques + lazy binary splitting (default)
//   sched=sharedq  the original global mutex + condvar queue (baseline)
//
// For every workload the harness sweeps threads in {1,2,4,8} under each
// backend, reports min-of-K ns per operation and the self-relative speedup
// (T1/Tp within the same backend -- the portable quantity on any host), and
// dumps every record to BENCH_wallclock.json so the perf trajectory is
// trackable across PRs.  On a host with fewer cores than the thread count,
// multi-thread rows measure scheduler overhead instead of parallel speedup
// -- exactly the contention the work-stealing rewrite is meant to
// eliminate, so the comparison is still meaningful there.
//
// Measurement discipline for noisy (shared/virtualised) hosts: all
// (backend, threads) cells of a workload are timed round-robin inside each
// repetition, so every cell samples the same interference windows, and the
// reported figure is the *minimum* across repetitions -- external load only
// ever adds time, so the min is the best estimate of intrinsic cost.
// Sequential per-cell sweeps (cells minutes apart) would let a load burst
// corrupt one backend's column and invert the comparison.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/graphgen.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "bench/common.hpp"
#include "bench/paired_gate.hpp"
#include "bench/simd_kernel_benches.hpp"
#include "fault/fault.hpp"
#include "obs/trace.hpp"
#include "sched/native_executor.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

using namespace obliv;

namespace {

using Exec = sched::NativeExecutor;
using Mat = sched::MatView<sched::NatRef<double>>;

struct Workload {
  std::string name;
  std::uint64_t n;
  // Binds one timed run to `ex`.  Buffers are allocated ONCE per workload
  // (captured by the factory) and shared by every (backend, threads) cell:
  // per-cell allocations would give each cell its own page-placement /
  // hugepage luck -- a bias that sticks for the whole run and that no
  // amount of repetition averages out of a cross-cell comparison.
  std::function<std::function<void()>(Exec&)> make;
};

std::vector<Workload> workloads(bool smoke) {
  std::vector<Workload> w;
  {
    const std::uint64_t n = smoke ? 1u << 16 : 1u << 20;
    auto buf = std::make_shared<sched::NatBuf<double>>(n);
    auto scratch = std::make_shared<sched::NatBuf<double>>(n);
    util::Xoshiro256 rng(1);
    for (auto& v : buf->raw()) v = rng.uniform();
    // In-place scans compound across repetitions (values eventually reach
    // inf); x86 adds run at full speed regardless, so timings are unbiased.
    w.push_back({"scan", n, [buf, scratch](Exec& ex) {
                   return std::function<void()>([&ex, buf, scratch] {
                     algo::mo_scan_inclusive(ex, buf->ref(), scratch->ref(),
                                             [](double a, double b) {
                                               return a + b;
                                             });
                   });
                 }});
  }
  {
    const std::uint64_t n = smoke ? 256 : 1024;
    auto a = std::make_shared<sched::NatBuf<double>>(n * n);
    auto out = std::make_shared<sched::NatBuf<double>>(n * n);
    util::Xoshiro256 rng(2);
    for (auto& v : a->raw()) v = rng.uniform();
    w.push_back({"transpose", n, [a, out, n](Exec& ex) {
                   return std::function<void()>([&ex, a, out, n] {
                     algo::mo_transpose(ex, a->ref(), out->ref(), n);
                   });
                 }});
  }
  {
    const std::uint64_t n = smoke ? 64 : 128;
    auto c = std::make_shared<sched::NatBuf<double>>(n * n);
    auto a = std::make_shared<sched::NatBuf<double>>(n * n);
    auto b = std::make_shared<sched::NatBuf<double>>(n * n);
    util::Xoshiro256 rng(3);
    for (auto& v : a->raw()) v = rng.uniform();
    for (auto& v : b->raw()) v = rng.uniform();
    w.push_back({"matmul", n, [a, b, c, n](Exec& ex) {
                   return std::function<void()>([&ex, a, b, c, n] {
                     algo::mo_matmul(ex, Mat::full(c->ref(), n, n),
                                     Mat::full(a->ref(), n, n),
                                     Mat::full(b->ref(), n, n), 32);
                   });
                 }});
  }
  {
    const std::uint64_t n = smoke ? 1u << 12 : 1u << 16;
    auto buf = std::make_shared<sched::NatBuf<std::uint64_t>>(n);
    w.push_back({"sort", n, [buf](Exec& ex) {
                   return std::function<void()>([&ex, buf] {
                     util::Xoshiro256 rng(4);
                     for (auto& v : buf->raw()) v = rng();
                     algo::spms_sort(ex, buf->ref());
                   });
                 }});
  }
  {
    const std::uint64_t n = smoke ? 1u << 12 : 1u << 16;
    auto buf = std::make_shared<sched::NatBuf<algo::cplx>>(n);
    w.push_back({"fft", n, [buf](Exec& ex) {
                   return std::function<void()>([&ex, buf] {
                     util::Xoshiro256 rng(5);
                     for (auto& v : buf->raw()) {
                       v = algo::cplx(rng.uniform(), 0.0);
                     }
                     algo::mo_fft(ex, buf->ref());
                   });
                 }});
  }
  {
    const std::uint64_t n = smoke ? 48 : 128;
    auto x = std::make_shared<sched::NatBuf<double>>(n * n);
    w.push_back({"igep-fw", n, [x, n](Exec& ex) {
                   return std::function<void()>([&ex, x, n] {
                     util::Xoshiro256 rng(6);
                     for (auto& v : x->raw()) v = rng.uniform() + 0.01;
                     algo::igep<algo::FloydWarshallInstance>(
                         ex, Mat::full(x->ref(), n, n));
                   });
                 }});
  }
  {
    const std::uint64_t side = smoke ? 32 : 128;
    auto m = std::make_shared<algo::SparseMatrix>(
        algo::grid_matrix_reordered(side));
    auto av = std::make_shared<sched::NatBuf<algo::SpmEntry>>(m->nnz());
    auto a0 = std::make_shared<sched::NatBuf<std::uint64_t>>(m->n + 1);
    auto xv = std::make_shared<sched::NatBuf<double>>(m->n);
    auto yv = std::make_shared<sched::NatBuf<double>>(m->n);
    av->raw() = m->av;
    a0->raw() = m->a0;
    util::Xoshiro256 rng(7);
    for (auto& v : xv->raw()) v = rng.uniform();
    w.push_back({"spmdv", m->n, [av, a0, xv, yv](Exec& ex) {
                   return std::function<void()>([&ex, av, a0, xv, yv] {
                     algo::mo_spmdv(ex, av->ref(), a0->ref(), xv->ref(),
                                    yv->ref());
                   });
                 }});
  }
  return w;
}

/// One BENCH_wallclock.json record.
std::string wallclock_record(const std::string& bench,
                             const std::string& sched, unsigned threads,
                             std::uint64_t n, double ns_per_op, int reps) {
  return "{\"bench\": \"" + bench + "\", \"sched\": \"" + sched +
         "\", \"threads\": " + std::to_string(threads) +
         ", \"n\": " + std::to_string(n) +
         // three decimals: the simd:* kernel rows are per-element and
         // sub-nanosecond, where one decimal would quantize the ratios.
         ", \"ns_per_op\": " + util::Table::fmt(ns_per_op, "%.3f") +
         ", \"reps\": " + std::to_string(reps) + "}";
}

/// `--trace` mode: the same workloads on the work-steal backend with an
/// obs::Tracer attached vs detached, reps interleaved traced/untraced so
/// ambient load hits both columns equally.  Exports the last traced run of
/// the first workload as a Chrome trace.
int trace_overhead(bool smoke, int reps, const std::string& trace_path) {
  bench::print_header("obs tracing overhead: work-steal backend");
  const unsigned threads = 4;
  std::printf("threads = %u, tracing compiled %s\n", threads,
              obs::kTracingCompiledIn ? "in" : "out");
  util::Table t({"workload", "untraced ns/op", "traced ns/op", "overhead"});
  bool wrote = false;
  for (const auto& w : workloads(smoke)) {
    Exec ex(threads, 1 << 12, sched::SchedMode::kWorkSteal);
    auto run = w.make(ex);
    run();  // warm-up
    obs::Tracer tracer(threads);
    double off = 0, on = 0;
    for (int r = 0; r < reps; ++r) {
      const double a = bench::time_once_ns(run);
      ex.set_tracer(&tracer);
      const double b = bench::time_once_ns(run);
      ex.set_tracer(nullptr);
      if (r == 0 || a < off) off = a;
      if (r == 0 || b < on) on = b;
    }
    t.add_row({w.name, util::Table::fmt(off, "%.0f"),
               util::Table::fmt(on, "%.0f"),
               util::Table::fmt(100.0 * (on - off) / off, "%+.1f%%")});
    if (!wrote && obs::kTracingCompiledIn) {
      wrote = obs::write_chrome_trace(trace_path, tracer);
    }
  }
  t.print(std::cout);
  if (wrote) {
    std::cout << "\nfirst workload's traced run -> " << trace_path
              << " (events: spawn/steal/complete per worker)\n";
  }
  return 0;
}

constexpr unsigned kGateThreads = 4;

/// One guardrail's measurement on a warmed executor and its bound run:
/// a bench::paired_measure of the guardrail's candidate against `run`.
using GateMeasure = std::function<bench::PairedMeasurement(
    Exec&, const std::function<void()>&)>;

/// Shared body of the wallclock guardrails: one bench::paired_gate row per
/// workload (statistics in bench/paired_gate.hpp), each measured on a fresh
/// 4-thread work-stealing executor, printed under the guardrail's own
/// column names.  Returns whether every row passed.
bool gate_workloads(bool smoke, double floor_pct, const char* base_col,
                    const char* cand_col, const GateMeasure& measure) {
  util::Table t({"workload", base_col, "A/A noise", cand_col, "overhead"});
  bool all_ok = true;
  for (const auto& w : workloads(smoke)) {
    const bench::GateResult g = bench::paired_gate(smoke, floor_pct, [&] {
      Exec ex(kGateThreads, 1 << 12, sched::SchedMode::kWorkSteal);
      auto run = w.make(ex);
      run();  // warm-up
      return measure(ex, run);
    });
    all_ok = all_ok && g.ok;
    t.add_row({w.name + (g.ok ? "" : "  <-- FAIL"),
               util::Table::fmt(g.m.base_ns, "%.0f"),
               util::Table::fmt(g.m.noise_pct, "%.2f%%"),
               util::Table::fmt(g.m.cand_ns, "%.0f"),
               util::Table::fmt(g.m.over_pct, "%+.2f%%")});
  }
  t.print(std::cout);
  return all_ok;
}

/// `--hist-off-check` mode: the guardrail for the histogram metrics.  A
/// *detached* tracer (the state every untraced run is in) must cost
/// nothing: every histogram site sits behind the executor's `tracer_ !=
/// nullptr` branch.  The measurable upper bound is a tracer attached with
/// events disabled (set_events_enabled(false)): histogram record() calls
/// -- a handful of relaxed atomics -- fire, ring traffic does not.  Gate
/// (full mode only): overhead of metrics-only over detached <= max(1%,
/// A/A noise + 1%).
int hist_off_check(bool smoke, int reps) {
  bench::print_header("histogram metrics overhead when no tracer attached");
  std::printf("threads = %u, tracing compiled %s, gate %s\n", kGateThreads,
              obs::kTracingCompiledIn ? "in" : "out",
              bench::gate_label(smoke, 1.0).c_str());
  if (!obs::kTracingCompiledIn) {
    std::printf("nothing to measure: trace hooks fold away at compile time\n");
    return 0;
  }
  const bool gate_ok = gate_workloads(
      smoke, 1.0, "detached ns/op", "metrics-only ns/op",
      [reps](Exec& ex, const std::function<void()>& run) {
        obs::Tracer tracer(kGateThreads);
        tracer.set_events_enabled(false);
        return bench::paired_measure(
            reps, [&] { return bench::time_once_ns(run); },
            [&] {
              ex.set_tracer(&tracer);
              const double ns = bench::time_once_ns(run);
              ex.set_tracer(nullptr);
              return ns;
            });
      });
  // The metrics-only cells must actually have recorded distributions --
  // otherwise the gate would be vacuously green.
  std::uint64_t hist_count = 0;
  {
    const auto smoke_workloads = workloads(true);
    const auto& w = smoke_workloads.front();
    Exec ex(kGateThreads, 1 << 12, sched::SchedMode::kWorkSteal);
    auto run = w.make(ex);
    obs::Tracer tracer(kGateThreads);
    tracer.set_events_enabled(false);
    ex.set_tracer(&tracer);
    run();
    ex.set_tracer(nullptr);
    tracer.counters().for_each_histogram(
        [&](const std::string&, const obs::Histogram& h) {
          hist_count += h.count();
        });
  }
  std::printf("histogram samples recorded in metrics-only mode: %llu\n",
              static_cast<unsigned long long>(hist_count));
  if (hist_count == 0) {
    std::printf("\nFAIL: no histogram site fired; the guardrail is vacuous\n");
    return 1;
  }
  if (!gate_ok) {
    std::printf("\nFAIL: histogram metrics exceed the no-tracer budget\n");
    return 1;
  }
  std::printf("\nOK: histogram metrics free when no tracer is attached\n");
  return 0;
}

/// `--fault-off-check` mode: the guardrail for the fault-injection layer.
/// An *inactive* layer (compiled in, no plan attached -- the state every
/// production run is in) must cost nothing: each hook is one pointer load
/// and branch.  An attached-but-inert plan is the measurable upper bound
/// on that cost (same hooks plus one probability load + branch each).
/// Gate (full mode only): overhead of inert over detached <= max(1%, A/A
/// noise + 1%).  It caught a real +50% steal-counter regression.
int fault_off_check(bool smoke, int reps) {
  bench::print_header("fault-injection layer overhead when inactive");
  std::printf("threads = %u, faults compiled %s, gate %s\n", kGateThreads,
              fault::kFaultsCompiledIn ? "in" : "out",
              bench::gate_label(smoke, 1.0).c_str());
  if (!fault::kFaultsCompiledIn) {
    std::printf("nothing to measure: hooks fold away at compile time\n");
    return 0;
  }
  const bool gate_ok = gate_workloads(
      smoke, 1.0, "detached ns/op", "inert ns/op",
      [reps](Exec& ex, const std::function<void()>& run) {
        fault::FaultPlan inert(1, fault::FaultOptions::inert());
        return bench::paired_measure(
            reps, [&] { return bench::time_once_ns(run); },
            [&] {
              ex.set_fault_plan(&inert);
              const double ns = bench::time_once_ns(run);
              ex.set_fault_plan(nullptr);
              return ns;
            });
      });
  if (!gate_ok) {
    std::printf("\nFAIL: inactive fault layer exceeds the overhead budget\n");
    return 1;
  }
  std::printf("\nOK: inactive fault layer within budget\n");
  return 0;
}

// ---------------------------------------------------------------------------
// SIMD kernel scaling rows
// ---------------------------------------------------------------------------

// KernelBench + kernel_benches() live in bench/simd_kernel_benches.hpp,
// shared with bench_native_cache's hardware-counter validation section.
using bench::kernel_benches;

/// Default-run section: every kernel family timed under Mode::kAuto (vector
/// when the host supports it) and Mode::kScalar (the OBLIV_SIMD=OFF
/// arithmetic), reps interleaved so both modes sample the same interference
/// windows.  Rows land in BENCH_wallclock.json as bench="simd:<family>",
/// sched="auto"|"scalar"; the printed ratio column is scalar/auto (>1 means
/// the vector path wins) with a geometric mean over families.
void simd_kernel_section(bool smoke, int reps, bench::JsonWriter& json) {
  bench::print_header("SIMD kernels: scalar vs vector dispatch");
  std::printf("active ISA under kAuto: %s (lane width %u), compiled %s\n",
              simd::active_isa(), simd::lane_width(),
              simd::kSimdCompiledIn ? "in" : "out");
  util::Table t({"kernel", "n", "scalar ns/op", "auto ns/op", "scalar/auto"});
  double log_sum = 0.0;
  std::size_t families = 0;
  for (auto& kb : kernel_benches(smoke)) {
    double best_auto = 0.0, best_scalar = 0.0;
    kb.run();  // warm-up (whatever mode; touches the buffers)
    for (int r = 0; r < reps; ++r) {
      double a, s;
      if (r % 2 == 0) {
        {
          simd::ScopedMode m(simd::Mode::kAuto);
          a = bench::time_once_ns(kb.run);
        }
        {
          simd::ScopedMode m(simd::Mode::kScalar);
          s = bench::time_once_ns(kb.run);
        }
      } else {
        {
          simd::ScopedMode m(simd::Mode::kScalar);
          s = bench::time_once_ns(kb.run);
        }
        {
          simd::ScopedMode m(simd::Mode::kAuto);
          a = bench::time_once_ns(kb.run);
        }
      }
      if (r == 0 || a < best_auto) best_auto = a;
      if (r == 0 || s < best_scalar) best_scalar = s;
    }
    const double ops = static_cast<double>(kb.n) * static_cast<double>(kb.iters);
    const double auto_ns = best_auto / ops, scalar_ns = best_scalar / ops;
    json.add(wallclock_record("simd:" + kb.name, "scalar", 1, kb.n, scalar_ns,
                              reps));
    json.add(
        wallclock_record("simd:" + kb.name, "auto", 1, kb.n, auto_ns, reps));
    t.add_row({kb.name, util::Table::fmt(kb.n),
               util::Table::fmt(scalar_ns, "%.3f"),
               util::Table::fmt(auto_ns, "%.3f"),
               util::Table::fmt(scalar_ns / auto_ns, "%.2f")});
    log_sum += std::log(scalar_ns / auto_ns);
    ++families;
  }
  t.print(std::cout);
  std::printf("geomean scalar/auto speedup over %zu families: %.2fx%s\n",
              families, std::exp(log_sum / static_cast<double>(families)),
              simd::vector_active() ? "" : "  (vector path inactive: ~1.0x)");
}

/// `--simd-off-check` mode: the guardrail for the kernel dispatch layer.
/// Mode::kScalar runs the same arithmetic an OBLIV_SIMD=OFF build runs;
/// Mode::kGeneric makes use_kernels() false, so leaves take their pre-kernel
/// generic loops.  The scalar kernel paths must not be materially slower
/// than those generic loops -- otherwise turning SIMD off (or running on a
/// non-vector host) would regress below the pre-SIMD baseline.  Gate (full
/// mode only): overhead of scalar over generic <= max(5%, A/A noise + 1%)
/// -- 5% because scalar kernels and generic loops are genuinely different
/// code, not one branch apart.
int simd_off_check(bool smoke, int reps) {
  bench::print_header("scalar kernel paths vs pre-kernel generic loops");
  std::printf("threads = %u, simd compiled %s, gate %s\n", kGateThreads,
              simd::kSimdCompiledIn ? "in" : "out",
              bench::gate_label(smoke, 5.0).c_str());
  auto timed_in = [](simd::Mode mode, const std::function<void()>& run) {
    simd::ScopedMode m(mode);
    return bench::time_once_ns(run);
  };
  const bool gate_ok = gate_workloads(
      smoke, 5.0, "generic ns/op", "scalar ns/op",
      [reps, timed_in](Exec&, const std::function<void()>& run) {
        return bench::paired_measure(
            reps, [&] { return timed_in(simd::Mode::kGeneric, run); },
            [&] { return timed_in(simd::Mode::kScalar, run); });
      });
  if (!gate_ok) {
    std::printf("\nFAIL: scalar kernel paths regress past the generic loops\n");
    return 1;
  }
  std::printf("\nOK: scalar kernel paths hold up against the generic loops\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // bench_wallclock [--quick | --reps N | --smoke | --trace |
  // --fault-off-check | --hist-off-check | --simd-off-check]: more reps ->
  // tighter minima on a noisy host;
  // --trace measures obs tracing overhead; --fault-off-check gates the
  // inactive fault-injection layer's overhead; --simd-off-check gates the
  // scalar kernel paths against the pre-kernel generic loops.
  int reps = 5;
  bool smoke = false, trace = false, fault_check = false,
       hist_check = false, simd_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") reps = 3;
    if (arg == "--reps" && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[i + 1]));
    }
    if (arg == "--smoke") {
      smoke = true;
      reps = 1;
    }
    if (arg == "--trace") trace = true;
    if (arg == "--fault-off-check") fault_check = true;
    if (arg == "--hist-off-check") hist_check = true;
    if (arg == "--simd-off-check") simd_check = true;
  }
  if (fault_check) {
    return fault_off_check(smoke, smoke ? 3 : std::max(reps, 15));
  }
  if (simd_check) {
    return simd_off_check(smoke, smoke ? 3 : std::max(reps, 15));
  }
  if (hist_check) {
    return hist_off_check(smoke, smoke ? 3 : std::max(reps, 15));
  }
  if (trace) {
    // Unified trace-output contract: --trace-out= / OBLIV_TRACE_OUT pick
    // the export path; the historical wallclock_trace.json is the default.
    return trace_overhead(
        smoke, smoke ? 1 : std::max(reps, 5),
        obs::resolve_trace_out(argc, argv, "wallclock_trace.json"));
  }
  // Host-aware thread sweep: the canonical {1,2,4,8} rows (comparable
  // across hosts and PRs) plus the host's own core count when it is not
  // already in the list, so a speedup-vs-threads curve always has a point
  // at full hardware concurrency.  On a 1-core host the extra point is
  // already present and the multi-thread rows keep their historical
  // meaning: scheduler overhead under oversubscription.
  std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};
  const unsigned hc = bench::host_concurrency();
  if (!smoke && hc <= 64 &&
      std::find(thread_counts.begin(), thread_counts.end(), hc) ==
          thread_counts.end()) {
    thread_counts.insert(
        std::upper_bound(thread_counts.begin(), thread_counts.end(), hc), hc);
  }
  const std::vector<std::pair<std::string, sched::SchedMode>> backends{
      {"steal", sched::SchedMode::kWorkSteal},
      {"sharedq", sched::SchedMode::kSharedQueue}};

  bench::print_header("Native wall clock: work stealing vs shared queue");
  std::printf(
      "hardware_concurrency = %u, pinned = %s  (with fewer cores than "
      "threads, multi-thread rows\n measure scheduling overhead; "
      "self-relative speedup still ranks the backends)\n",
      hc, bench::threads_pinned() ? "yes" : "no");

  bench::JsonWriter json("BENCH_wallclock.json");
  for (const auto& w : workloads(smoke)) {
    // One cell per (threads, backend); executors and buffers stay alive for
    // the whole workload so repetitions can interleave across cells.
    struct Cell {
      unsigned threads;
      std::size_t backend;
      std::unique_ptr<Exec> ex;
      std::function<void()> run;
      double best_ns = 0.0;
    };
    std::vector<Cell> cells;
    for (unsigned threads : thread_counts) {
      for (std::size_t bi = 0; bi < backends.size(); ++bi) {
        Cell c{threads, bi,
               std::make_unique<Exec>(threads, 1 << 12, backends[bi].second),
               {}};
        c.run = w.make(*c.ex);
        c.run();  // warm-up
        cells.push_back(std::move(c));
      }
    }
    for (int r = 0; r < reps; ++r) {
      // Alternate sweep direction so every cell sees both neighbours'
      // cache footprints -- fixed ordering would hand each cell a
      // constant (and unequal) warm-cache inheritance.
      for (std::size_t k = 0; k < cells.size(); ++k) {
        Cell& c = cells[r % 2 == 0 ? k : cells.size() - 1 - k];
        const double ns = bench::time_once_ns(c.run);
        if (r == 0 || ns < c.best_ns) c.best_ns = ns;
      }
    }
    util::Table t({"threads", "steal ns/op", "steal T1/Tp", "sharedq ns/op",
                   "sharedq T1/Tp"});
    std::vector<double> base(backends.size(), 0.0);
    for (const auto& c : cells) {
      if (c.threads == 1) base[c.backend] = c.best_ns;
    }
    for (unsigned threads : thread_counts) {
      std::vector<std::string> row{util::Table::fmt(std::uint64_t(threads))};
      for (std::size_t bi = 0; bi < backends.size(); ++bi) {
        for (const auto& c : cells) {
          if (c.threads != threads || c.backend != bi) continue;
          json.add(wallclock_record(w.name, backends[bi].first, threads, w.n,
                                    c.best_ns, reps));
          row.push_back(util::Table::fmt(c.best_ns, "%.0f"));
          row.push_back(util::Table::fmt(base[bi] / c.best_ns, "%.3f"));
        }
      }
      t.add_row(std::move(row));
    }
    std::cout << "\n-- " << w.name << " (n=" << w.n << ") --\n";
    t.print(std::cout);
  }
  simd_kernel_section(smoke, smoke ? 2 : std::max(reps, 7), json);
  if (!smoke) json.write();  // smoke numbers would pollute the trajectory
  return 0;
}
