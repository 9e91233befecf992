// `solve` workload: the seven families by direct library calls on a
// NativeExecutor, timed round-robin (README.md: why one worker is gated
// and four workers are traced).
#include "solve.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "harness.hpp"
#include "inputs.hpp"
#include "obs/trace.hpp"
#include "oracles.hpp"

namespace perfbench {

using obliv::sched::NatRef;
using obliv::sched::NativeExecutor;
using Mat = obliv::sched::MatView<NatRef<double>>;

template <class T>
NatRef<T> ref(std::vector<T>& v) {
  return NatRef<T>(v.data(), v.size());
}

struct SolveSet::Data {
  SolveSizes sz;
  std::uint64_t seed;
  // Pristine inputs, working buffers and oracle outputs per family.
  std::vector<std::uint64_t> scan_in, scan_buf, scan_want;
  std::vector<std::uint64_t> sort_in, sort_buf, sort_want;
  std::vector<cplx> fft_in, fft_buf;
  oracle::Fft fft_want;
  std::vector<double> tr_in, tr_out, tr_want;
  std::vector<double> gep_in, gep_buf, gep_want;
  ListInput list;
  std::vector<std::uint64_t> list_dist, list_want;
  SpmInput spm;
  std::vector<double> spm_y, spm_want;
};

SolveSet::SolveSet(const SolveSizes& sz, std::uint64_t seed)
    : d_(std::make_shared<Data>()) {
  Data& d = *d_;
  d.sz = sz;
  d.seed = seed;
  Rng rng(seed);
  d.scan_in = random_u64(rng, sz.scan, 1u << 20);
  d.sort_in = random_u64(rng, sz.sort, ~0ull);
  d.fft_in = random_signal(rng, sz.fft);
  d.tr_in = random_matrix(rng, sz.transpose);
  d.gep_in = distance_matrix(rng, sz.gep);
  d.list = random_list(rng, sz.listrank);
  d.spm = grid_system(rng, sz.spmdv_side);
  d.scan_buf.resize(sz.scan);
  d.sort_buf.resize(sz.sort);
  d.fft_buf.resize(sz.fft);
  d.tr_out.resize(d.tr_in.size());
  d.gep_buf.resize(d.gep_in.size());
  d.list_dist.resize(sz.listrank);
  d.spm_y.resize(d.spm.a.n);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  Data* p = d_.get();
  cases_.push_back(
      {"scan", [p] { p->scan_buf = p->scan_in; },
       [p](NativeExecutor& ex) { obliv::algo::mo_prefix_sum(ex, ref(p->scan_buf)); },
       [p] { return p->scan_buf == p->scan_want; },
       [p] { p->scan_buf[p->scan_buf.size() / 2] += 1; },
       [p] {
         std::uint64_t acc = 0;
         for (auto& v : p->scan_buf) v = acc += v;
       }});
  cases_.push_back(
      {"sort", [p] { p->sort_buf = p->sort_in; },
       [p](NativeExecutor& ex) { obliv::algo::spms_sort(ex, ref(p->sort_buf)); },
       [p] { return p->sort_buf == p->sort_want; },
       [p] { std::swap(p->sort_buf[0], p->sort_buf[p->sort_buf.size() - 1]); },
       [p] { std::sort(p->sort_buf.begin(), p->sort_buf.end()); }});
  cases_.push_back(
      {"fft", [p] { p->fft_buf = p->fft_in; },
       [p](NativeExecutor& ex) { obliv::algo::mo_fft(ex, ref(p->fft_buf)); },
       [p] { return p->fft_want.check(p->fft_buf); },
       [p] { p->fft_buf[3] += cplx(1.0, 0.0); },
       [p] { oracle::radix2_fft(p->fft_buf); }});
  cases_.push_back(
      {"transpose", [p, nan] { std::fill(p->tr_out.begin(), p->tr_out.end(), nan); },
       [p](NativeExecutor& ex) {
         obliv::algo::mo_transpose(ex, ref(p->tr_in), ref(p->tr_out),
                                   p->sz.transpose);
       },
       [p] { return p->tr_out == p->tr_want; },
       [p] { p->tr_out[1] += 1.0; },
       [p] { p->tr_out = oracle::transpose(p->tr_in, p->sz.transpose); }});
  cases_.push_back(
      {"gep", [p] { p->gep_buf = p->gep_in; },
       [p](NativeExecutor& ex) {
         obliv::algo::igep<obliv::algo::FloydWarshallInstance>(
             ex, Mat::full(ref(p->gep_buf), p->sz.gep, p->sz.gep));
       },
       [p] { return p->gep_buf == p->gep_want; },
       [p] { p->gep_buf[p->sz.gep + 2] += 1.0; },
       [p] { p->gep_buf = oracle::floyd_warshall(p->gep_in, p->sz.gep); }});
  cases_.push_back(
      {"listrank",
       [p] { std::fill(p->list_dist.begin(), p->list_dist.end(), obliv::algo::kNil); },
       [p](NativeExecutor& ex) {
         obliv::algo::mo_list_rank(ex, ref(p->list.succ), ref(p->list.pred),
                                   ref(p->list_dist));
       },
       [p] { return p->list_dist == p->list_want; },
       [p] { p->list_dist[0] += 1; },
       [p] { p->list_dist = oracle::list_rank(p->list.succ); }});
  cases_.push_back(
      {"spmdv", [p, nan] { std::fill(p->spm_y.begin(), p->spm_y.end(), nan); },
       [p](NativeExecutor& ex) {
         obliv::algo::mo_spmdv(ex, ref(p->spm.a.av), ref(p->spm.a.a0),
                               ref(p->spm.x), ref(p->spm_y));
       },
       [p] { return p->spm_y == p->spm_want; },
       [p] { p->spm_y[p->spm_y.size() - 1] += 1.0; },
       [p] { p->spm_y = oracle::spmdv(p->spm.a.a0, p->spm.a.av, p->spm.x); }});
}

void SolveSet::compute_oracles() {
  Data& d = *d_;
  d.scan_want = oracle::scan(d.scan_in);
  d.sort_want = oracle::sort(d.sort_in);
  d.fft_want = oracle::Fft(d.fft_in, d.seed);
  d.tr_want = oracle::transpose(d.tr_in, d.sz.transpose);
  d.gep_want = oracle::floyd_warshall(d.gep_in, d.sz.gep);
  d.list_want = oracle::list_rank(d.list.succ);
  d.spm_want = oracle::spmdv(d.spm.a.a0, d.spm.a.av, d.spm.x);
}

namespace {

/// Workers of the timed executor.  One worker keeps the VM's demand at one
/// vCPU, where host steal stays small; the 4-worker figures are per-layer.
constexpr unsigned kWorkers = 1;
/// Workers of the traced pass: the parallel scheduler at nproc.
constexpr unsigned kParallelWorkers = 4;

/// Per-family samples of one timed phase.
struct Samples {
  std::vector<std::vector<double>> ms;  // [family][op]
  std::vector<double> all_ms;
  ProcSample cpu;
  std::uint64_t ops = 0;
};

/// Times one operation of `c` on `ex`: prepare and check stay untimed,
/// CPU is read around the call only.
double time_op(SolveCase& c, NativeExecutor& ex, RunResult& out,
               ProcSample* cpu) {
  c.prepare();
  const ProcSample p0 = proc_now();
  const auto t0 = Clock::now();
  c.run(ex);
  const auto t1 = Clock::now();
  if (cpu != nullptr) *cpu += proc_now() - p0;
  tally(out, c.check());
  return ms_between(t0, t1);
}

}  // namespace

int run_solve(const Options& opt, RunResult& out) {
  const SolveSizes& sz = opt.smoke ? kSolveSmoke : kSolveFull;

  // Set-up, repeated: the reported figure is the median.
  const int setups = opt.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<SolveSet> set;
  std::unique_ptr<NativeExecutor> ex;
  for (int i = 0; i < setups; ++i) {
    ex.reset();
    set.reset();
    const auto t0 = Clock::now();
    set = std::make_unique<SolveSet>(sz, opt.seed);
    ex = std::make_unique<NativeExecutor>(kWorkers);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  set->compute_oracles();
  auto& cases = set->cases();
  const std::size_t nf = cases.size();

  // Untimed warm-up: whole rounds until the host has settled.
  RunResult scratch;
  const double warm_s = opt.smoke ? 0.0 : 2.0;
  const auto w0 = Clock::now();
  do {
    for (auto& c : cases) time_op(c, *ex, scratch, nullptr);
  } while (seconds_between(w0, Clock::now()) < warm_s);
  if (scratch.failed != 0) out.correct = false;

  // Timed phase: whole rounds, families round-robin.  A traced run
  // attaches the tracer on odd rounds only, so traced and untraced
  // operations share the same host conditions.
  obliv::obs::Tracer tracer(kParallelWorkers, 1);
  tracer.set_events_enabled(false);  // histograms and counters only
  Samples plain, traced;
  plain.ms.resize(nf);
  traced.ms.resize(nf);
  const long long steal0 = host_steal_ticks();
  const ProcSample run0 = proc_now();
  const auto t0 = Clock::now();
  std::uint64_t round = 0;
  do {
    const bool with_tracer = opt.trace && round % 2 == 1;
    Samples& s = with_tracer ? traced : plain;
    if (with_tracer) ex->set_tracer(&tracer);
    for (std::size_t f = 0; f < nf; ++f) {
      const double ms = time_op(cases[f], *ex, out, &s.cpu);
      s.ms[f].push_back(ms);
      s.all_ms.push_back(ms);
      ++s.ops;
    }
    if (with_tracer) ex->set_tracer(nullptr);
    ++round;
  } while ((!opt.smoke && seconds_between(t0, Clock::now()) < opt.seconds) ||
           (opt.trace && round < 2));
  const double wall_s = seconds_between(t0, Clock::now());
  print_host_line("solve", host_steal_ticks() - steal0, proc_now() - run0,
                  wall_s);

  Metrics& m = out.metrics;
  if (!opt.trace) {
    for (std::size_t f = 0; f < nf; ++f) {
      m.set(cases[f].name + "_ms", median(plain.ms[f]), "ms");
    }
    m.set("p99_ms", quantile(plain.all_ms, 0.99), "ms");
    m.set("cpu_ms_per_op", plain.cpu.cpu_ms() / double(plain.ops), "ms");
    m.set("setup_s", median(setup_s), "s");
    return 0;
  }

  // Per-layer metrics of the traced run.
  m.set("proc.sys_ms_per_op", plain.cpu.sys_ms / double(plain.ops), "ms");
  m.set("proc.ctxsw_per_op", (plain.cpu.vcsw + plain.cpu.ivcsw) / double(plain.ops),
        "count");
  double sum_plain = 0, sum_traced = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    sum_plain += median(plain.ms[f]);
    sum_traced += median(traced.ms[f]);
  }
  m.set("obs.overhead_pct", 100.0 * (sum_traced / sum_plain - 1.0), "%");

  // The same solves on a 4-worker executor: untraced rounds give
  // algo.*_t4_ms, traced rounds the scheduler's counts.
  ex.reset();
  NativeExecutor par(kParallelWorkers);
  obliv::obs::Tracer ptracer(kParallelWorkers, 1);
  ptracer.set_events_enabled(false);
  const int par_rounds = opt.smoke ? 2 : 6;
  std::vector<std::vector<double>> t4(nf);
  double par_traced_ops = 0;
  for (int r = 0; r < par_rounds; ++r) {
    const bool with_tracer = r % 2 == 1;
    if (with_tracer) par.set_tracer(&ptracer);
    for (std::size_t f = 0; f < nf; ++f) {
      const double ms = time_op(cases[f], par, out, nullptr);
      if (with_tracer) {
        ++par_traced_ops;
      } else {
        t4[f].push_back(ms);
      }
    }
    if (with_tracer) par.set_tracer(nullptr);
  }
  for (std::size_t f = 0; f < nf; ++f) {
    m.set("algo." + cases[f].name + "_t4_ms", median(t4[f]), "ms");
  }
  const auto* steal = ptracer.counters().find_histogram("sched.steal.scan_ns");
  const auto* grain = ptracer.counters().find_histogram("sched.fork.grain_iters");
  m.set("sched.forks_per_op", grain ? double(grain->count()) / par_traced_ops : 0.0,
        "count");
  m.set("sched.steals_per_op", steal ? double(steal->count()) / par_traced_ops : 0.0,
        "count");
  m.set("sched.steal_scan_us", steal ? hist_quantile(*steal, 0.5) / 1e3 : 0.0, "us");
  measure_kernels(m);
  return 0;
}

}  // namespace perfbench

namespace perfbench {

/// Reports one self-check result; returns 1 when the check did not fire.
int report_check(const std::string& what, bool clean_ok, bool fired) {
  std::printf("  %-28s clean %-4s corrupted %s\n", what.c_str(),
              clean_ok ? "ok" : "FAIL", fired ? "caught" : "MISSED");
  return clean_ok && fired ? 0 : 1;
}

int self_check_solve() {
  std::printf("solve checks:\n");
  SolveSet set(kSolveSmoke, 7);
  set.compute_oracles();
  NativeExecutor ex(kParallelWorkers);
  int missed = 0;
  for (auto& c : set.cases()) {
    c.prepare();
    c.run(ex);
    const bool clean = c.check();
    c.corrupt();
    missed += report_check(c.name, clean, !c.check());
  }
  return missed;
}

}  // namespace perfbench

namespace perfbench {

void reference_solve() {
  SolveSet set(kSolveFull, 1);
  set.compute_oracles();
  NativeExecutor one(1);
  constexpr int kReps = 5;
  std::printf("| family | simple serial baseline (ms) | program, 1 worker (ms) |\n"
              "|---|---|---|\n");
  for (auto& c : set.cases()) {
    std::vector<double> base, t1;
    RunResult r;
    for (int i = 0; i < kReps; ++i) {
      c.prepare();
      const auto t0 = Clock::now();
      c.baseline();
      base.push_back(ms_between(t0, Clock::now()));
      tally(r, c.check());
      t1.push_back(time_op(c, one, r, nullptr));
    }
    std::printf("| %s | %.2f | %.2f |%s\n", c.name.c_str(), median(base), median(t1),
                r.failed == 0 ? "" : " WRONG OUTPUT");
  }
}

}  // namespace perfbench
