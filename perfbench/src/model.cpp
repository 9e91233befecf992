// `model` workload: each family simulated on the HM machine shared_l2(4)
// through SimExecutor + CacheSim with the default engine selection, then,
// where the paper gives an NO version, costed on a NoMachine M(p, B).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <vector>

#include "algo/fft.hpp"
#include "algo/gep.hpp"
#include "algo/listrank.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/spmdv.hpp"
#include "algo/transpose.hpp"
#include "harness.hpp"
#include "hm/config.hpp"
#include "inputs.hpp"
#include "no/colsort.hpp"
#include "no/fft.hpp"
#include "no/machine.hpp"
#include "no/ngep.hpp"
#include "no/transpose.hpp"
#include "no/wrappers.hpp"
#include "obs/trace.hpp"
#include "oracles.hpp"
#include "sched/sim_executor.hpp"

namespace perfbench {

namespace {

using obliv::sched::RunMetrics;
using obliv::sched::SimBuf;
using obliv::sched::SimExecutor;
using obliv::no::NoMachine;
using SimMat = obliv::sched::MatView<obliv::sched::SimRef<double>>;

/// Every NO run is costed on one folding, M(p = 4, B = 8).
const std::vector<obliv::no::FoldConfig> kFold = {{4, 8}};

struct ModelSizes {
  std::uint64_t scan, sort, fft, transpose, gep, listrank, spmdv_side;
};
/// Inputs exceed the modelled L2 (131072 words) except I-GEP's and
/// MO-LR's, whose simulation cost grows too fast (see README.md).
constexpr ModelSizes kModelFull{1u << 18, 1u << 15, 1u << 14, 512, 64, 1u << 10, 128};
constexpr ModelSizes kModelSmoke{1u << 11, 1u << 10, 1u << 9, 32, 16, 1u << 8, 16};

/// What one simulated operation reports besides its outputs.
struct SimStats {
  RunMetrics run;
  std::uint64_t accesses = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t message_words = 0;
  double no_ms = 0;
  bool has_no = false;
};

/// One family: its inputs on the shared SimExecutor, the NO version, and
/// the words of data it must touch (for the compulsory-miss bound).
struct ModelCase {
  std::string name;
  SimExecutor* ex;
  std::uint64_t data_words = 0;
  std::function<void()> prepare;
  std::function<RunMetrics()> sim;
  std::function<NoMachine()> no;  // empty when the family has no NO version
  std::function<bool()> check;     // the simulated run's output
  std::function<bool()> check_no;  // the NO version's output
  std::function<void()> corrupt;
  std::function<void()> corrupt_no;
};

/// Properties every simulation must have, whatever the algorithm.
bool properties_hold(const ModelCase& c, const SimStats& s,
                     const obliv::hm::MachineConfig& cfg) {
  const auto& miss = s.run.level_total_misses;
  if (miss.size() != 2) return false;
  const bool inclusive = miss[1] <= miss[0];
  const bool compulsory = miss[0] >= c.data_words / cfg.block(1) &&
                          miss[1] >= c.data_words / cfg.block(2);
  const bool span = s.run.span <= s.run.work;
  const bool no_traffic = !s.has_no || s.message_words > 0;
  return inclusive && compulsory && span && no_traffic;
}

bool outputs_ok(const ModelCase& c) {
  return c.check() && (!c.check_no || c.check_no());
}

class ModelSet {
 public:
  ModelSet(const ModelSizes& sz, std::uint64_t seed, obliv::sched::SimPolicy policy = {})
      : d_(std::make_shared<Data>()) {
    Data& d = *d_;
    d.sz = sz;
    d.seed = seed;
    Rng rng(seed);
    d.scan_in = random_u64(rng, sz.scan, 1u << 20);
    d.sort_in = random_u64(rng, sz.sort, 1ull << 62);
    for (auto& k : d.sort_in) ++k;  // keys in [1, 2^62]: colsort sentinels fit
    d.fft_in = random_signal(rng, sz.fft);
    d.tr_in = random_matrix(rng, sz.transpose);
    d.gep_in = distance_matrix(rng, sz.gep);
    d.list = random_list(rng, sz.listrank);
    d.spm = grid_system(rng, sz.spmdv_side);
    // One executor simulates every family, as one user process would.
    ex_ = std::make_unique<SimExecutor>(obliv::hm::MachineConfig::shared_l2(4), policy);
    SimExecutor* e = ex_.get();
    Data* p = d_.get();
    const double nan = std::numeric_limits<double>::quiet_NaN();

    {  // scan
      auto buf = std::make_shared<SimBuf<std::uint64_t>>(e->make_buf<std::uint64_t>(sz.scan));
      cases_.push_back({"scan", e, sz.scan,
                        [p, buf] { buf->raw() = p->scan_in; p->no_u64 = p->scan_in; },
                        [e, buf, n = sz.scan] {
                          return e->run(2 * n, [&] { obliv::algo::mo_prefix_sum(*e, buf->ref()); });
                        },
                        [p] {
                          NoMachine m(64, kFold);
                          p->no_u64 = obliv::no::no_prefix_sum(m, p->no_u64);
                          return m;
                        },
                        [p, buf] { return buf->raw() == p->scan_want; },
                        [p] { return p->no_u64 == p->scan_want; },
                        [buf] { buf->raw()[1] += 1; },
                        [p] { p->no_u64[1] += 1; }});
    }
    {  // sort
      auto buf = std::make_shared<SimBuf<std::uint64_t>>(e->make_buf<std::uint64_t>(sz.sort));
      cases_.push_back({"sort", e, sz.sort,
                        [p, buf] { buf->raw() = p->sort_in; p->no_u64 = p->sort_in; },
                        [e, buf, n = sz.sort] {
                          return e->run(4 * n, [&] { obliv::algo::spms_sort(*e, buf->ref()); });
                        },
                        [p] {
                          NoMachine m(obliv::no::colsort_shape(p->no_u64.size()).s + 1, kFold);
                          obliv::no::no_columnsort<std::uint64_t>(m, p->no_u64, 0, ~0ull);
                          return m;
                        },
                        [p, buf] { return buf->raw() == p->sort_want; },
                        [p] { return p->no_u64 == p->sort_want; },
                        [buf] { std::swap(buf->raw().front(), buf->raw().back()); },
                        [p] { std::swap(p->no_u64.front(), p->no_u64.back()); }});
    }
    {  // fft
      auto buf = std::make_shared<SimBuf<cplx>>(e->make_buf<cplx>(sz.fft));
      cases_.push_back({"fft", e, 2 * sz.fft,
                        [p, buf] { buf->raw() = p->fft_in; p->no_cx = p->fft_in; },
                        [e, buf, n = sz.fft] {
                          return e->run(6 * n, [&] { obliv::algo::mo_fft(*e, buf->ref()); });
                        },
                        [p] {
                          NoMachine m(p->no_cx.size(), kFold);
                          obliv::no::no_fft(m, p->no_cx);
                          return m;
                        },
                        [p, buf] { return p->fft_want.check(buf->raw()); },
                        [p] { return p->fft_want.check(p->no_cx); },
                        [buf] { buf->raw()[2] += cplx(1.0, 0.0); },
                        [p] { p->no_cx[2] += cplx(1.0, 0.0); }});
    }
    {  // transpose
      const std::uint64_t n = sz.transpose;
      auto in = std::make_shared<SimBuf<double>>(e->make_buf<double>(n * n));
      auto out = std::make_shared<SimBuf<double>>(e->make_buf<double>(n * n));
      cases_.push_back({"transpose", e, 2 * n * n,
                        [p, in, out, nan] {
                          in->raw() = p->tr_in;
                          std::fill(out->raw().begin(), out->raw().end(), nan);
                          p->no_d.clear();
                        },
                        [e, in, out, n] {
                          return e->run(3 * n * n, [&] {
                            obliv::algo::mo_transpose(*e, in->ref(), out->ref(), n);
                          });
                        },
                        [p, n] {
                          NoMachine m(n * n, kFold);
                          obliv::no::no_transpose(m, p->tr_in, p->no_d, n);
                          return m;
                        },
                        [p, out] { return out->raw() == p->tr_want; },
                        [p] { return p->no_d == p->tr_want; },
                        [out] { out->raw()[1] += 1.0; },
                        [p] { p->no_d[1] += 1.0; }});
    }
    {  // gep
      const std::uint64_t n = sz.gep;
      auto buf = std::make_shared<SimBuf<double>>(e->make_buf<double>(n * n));
      cases_.push_back({"gep", e, n * n,
                        [p, buf] { buf->raw() = p->gep_in; p->no_d = p->gep_in; },
                        [e, buf, n] {
                          return e->run(n * n, [&] {
                            obliv::algo::igep<obliv::algo::FloydWarshallInstance>(
                                *e, SimMat::full(buf->ref(), n, n));
                          });
                        },
                        [p, n] {
                          NoMachine m(64, kFold);
                          obliv::no::n_gep<obliv::algo::FloydWarshallInstance>(m, p->no_d, n);
                          return m;
                        },
                        [p, buf] { return buf->raw() == p->gep_want; },
                        [p] { return p->no_d == p->gep_want; },
                        [buf] { buf->raw()[1] += 1.0; },
                        [p] { p->no_d[1] += 1.0; }});
    }
    {  // listrank
      const std::uint64_t n = sz.listrank;
      auto s = std::make_shared<SimBuf<std::uint64_t>>(e->make_buf<std::uint64_t>(n));
      auto pr = std::make_shared<SimBuf<std::uint64_t>>(e->make_buf<std::uint64_t>(n));
      auto dist = std::make_shared<SimBuf<std::uint64_t>>(e->make_buf<std::uint64_t>(n));
      cases_.push_back({"listrank", e, 3 * n,
                        [p, s, pr, dist] {
                          s->raw() = p->list.succ;
                          pr->raw() = p->list.pred;
                          std::fill(dist->raw().begin(), dist->raw().end(), obliv::algo::kNil);
                          p->no_u64.clear();
                        },
                        [e, s, pr, dist, n] {
                          return e->run(8 * n, [&] {
                            obliv::algo::mo_list_rank(*e, s->ref(), pr->ref(), dist->ref());
                          });
                        },
                        [p] {
                          NoMachine m(64, kFold);
                          p->no_u64 = obliv::no::no_list_rank(m, p->list.succ, p->list.pred);
                          return m;
                        },
                        [p, dist] { return dist->raw() == p->list_want; },
                        [p] { return p->no_u64 == p->list_want; },
                        [dist] { dist->raw()[0] += 1; },
                        [p] { p->no_u64[0] += 1; }});
    }
    {  // spmdv (no NO version)
      const auto& a = p->spm.a;
      auto av = std::make_shared<SimBuf<obliv::algo::SpmEntry>>(
          e->make_buf<obliv::algo::SpmEntry>(a.nnz()));
      auto a0 = std::make_shared<SimBuf<std::uint64_t>>(e->make_buf<std::uint64_t>(a.n + 1));
      auto x = std::make_shared<SimBuf<double>>(e->make_buf<double>(a.n));
      auto y = std::make_shared<SimBuf<double>>(e->make_buf<double>(a.n));
      const std::uint64_t words = 2 * a.nnz() + 3 * a.n + 1;
      cases_.push_back({"spmdv", e, words,
                        [p, av, a0, x, y, nan] {
                          av->raw() = p->spm.a.av;
                          a0->raw() = p->spm.a.a0;
                          x->raw() = p->spm.x;
                          std::fill(y->raw().begin(), y->raw().end(), nan);
                        },
                        [e, av, a0, x, y, n = a.n, nnz = a.nnz()] {
                          return e->run(4 * n + 2 * nnz, [&] {
                            obliv::algo::mo_spmdv(*e, av->ref(), a0->ref(), x->ref(), y->ref());
                          });
                        },
                        nullptr,
                        [p, y] { return y->raw() == p->spm_want; },
                        nullptr,
                        [y] { y->raw()[0] += 1.0; },
                        nullptr});
    }
  }

  void compute_oracles() {
    Data& d = *d_;
    d.scan_want = oracle::scan(d.scan_in);
    d.sort_want = oracle::sort(d.sort_in);
    d.fft_want = oracle::Fft(d.fft_in, d.seed);
    d.tr_want = oracle::transpose(d.tr_in, d.sz.transpose);
    d.gep_want = oracle::floyd_warshall(d.gep_in, d.sz.gep);
    d.list_want = oracle::list_rank(d.list.succ);
    d.spm_want = oracle::spmdv(d.spm.a.a0, d.spm.a.av, d.spm.x);
  }

  std::vector<ModelCase>& cases() { return cases_; }

 private:
  struct Data {
    ModelSizes sz;
    std::uint64_t seed;
    std::vector<std::uint64_t> scan_in, scan_want, sort_in, sort_want;
    std::vector<cplx> fft_in;
    oracle::Fft fft_want;
    std::vector<double> tr_in, tr_want, gep_in, gep_want;
    ListInput list;
    std::vector<std::uint64_t> list_want;
    SpmInput spm;
    std::vector<double> spm_want;
    // Host copies the NO versions work on.
    std::vector<std::uint64_t> no_u64;
    std::vector<cplx> no_cx;
    std::vector<double> no_d;
  };
  std::shared_ptr<Data> d_;
  std::unique_ptr<SimExecutor> ex_;
  std::vector<ModelCase> cases_;
};

/// Runs one operation of `c`: the HM simulation, then the NO version.
/// Returns the host milliseconds of both together.
double time_op(ModelCase& c, SimStats& s, obliv::obs::Tracer* tracer,
               ProcSample* cpu) {
  c.prepare();
  if (tracer != nullptr) c.ex->set_tracer(tracer);
  const ProcSample p0 = proc_now();
  const auto t0 = Clock::now();
  s.run = c.sim();
  const auto t1 = Clock::now();
  s.accesses = c.ex->cache_sim().total_accesses();
  if (c.no) {
    NoMachine m = c.no();
    s.has_no = true;
    s.supersteps = m.supersteps();
    s.message_words = m.total_message_words();
  }
  const auto t2 = Clock::now();
  if (cpu != nullptr) *cpu += proc_now() - p0;
  if (tracer != nullptr) c.ex->set_tracer(nullptr);
  s.no_ms = ms_between(t1, t2);
  return ms_between(t0, t2);
}

}  // namespace

int run_model(const Options& opt, RunResult& out) {
  const ModelSizes& sz = opt.smoke ? kModelSmoke : kModelFull;

  const int setups = opt.smoke ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<ModelSet> set;
  for (int i = 0; i < setups; ++i) {
    set.reset();
    const auto t0 = Clock::now();
    set = std::make_unique<ModelSet>(sz, opt.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  set->compute_oracles();
  auto& cases = set->cases();
  const std::size_t nf = cases.size();
  const auto cfg = obliv::hm::MachineConfig::shared_l2(4);
  auto run_checked = [&](ModelCase& c, SimStats& s, obliv::obs::Tracer* tr,
                         ProcSample* cpu, RunResult& r) {
    const double ms = time_op(c, s, tr, cpu);
    tally(r, outputs_ok(c) && properties_hold(c, s, cfg));
    return ms;
  };

  RunResult scratch;
  const auto w0 = Clock::now();
  do {
    for (auto& c : cases) {
      SimStats s;
      run_checked(c, s, nullptr, nullptr, scratch);
    }
  } while (!opt.smoke && seconds_between(w0, Clock::now()) < 2.0);
  if (scratch.failed != 0) out.correct = false;

  obliv::obs::Tracer tracer(1, 1);
  tracer.set_events_enabled(false);  // counters only
  std::vector<std::vector<double>> plain(nf), traced(nf), no_f(nf);
  std::vector<double> all, no_ms_round;
  double sim_ms = 0;
  std::uint64_t plain_ops = 0, plain_accesses = 0;
  SimStats round_total;  // one round's deterministic counts
  ProcSample cpu;
  const long long steal0 = host_steal_ticks();
  const ProcSample run0 = proc_now();
  const auto t0 = Clock::now();
  std::uint64_t round = 0;
  do {
    const bool with_tracer = opt.trace && round % 2 == 1;
    double no_ms = 0;
    for (std::size_t f = 0; f < nf; ++f) {
      SimStats s;
      const double ms = run_checked(cases[f], s, with_tracer ? &tracer : nullptr,
                                    with_tracer ? nullptr : &cpu, out);
      if (with_tracer) {
        traced[f].push_back(ms);
        continue;
      }
      plain[f].push_back(ms);
      no_f[f].push_back(s.no_ms);
      all.push_back(ms);
      no_ms += s.no_ms;
      sim_ms += ms - s.no_ms;
      plain_accesses += s.accesses;
      ++plain_ops;
      if (round == 0) {
        round_total.accesses += s.accesses;
        round_total.run.level_total_misses.resize(2);
        for (int l = 0; l < 2; ++l) {
          round_total.run.level_total_misses[l] += s.run.level_total_misses[l];
        }
        round_total.supersteps += s.supersteps;
        round_total.message_words += s.message_words;
      }
    }
    if (!with_tracer) no_ms_round.push_back(no_ms);
    ++round;
  } while ((!opt.smoke && seconds_between(t0, Clock::now()) < opt.seconds) ||
           (opt.trace && round < 2));
  print_host_line("model", host_steal_ticks() - steal0, proc_now() - run0,
                  seconds_between(t0, Clock::now()));

  for (std::size_t f = 0; f < nf; ++f) {
    std::printf("# model %s: HM %.1f ms + NO %.1f ms (medians)\n", cases[f].name.c_str(),
                median(plain[f]) - median(no_f[f]), median(no_f[f]));
  }
  Metrics& m = out.metrics;
  if (!opt.trace) {
    for (std::size_t f = 0; f < nf; ++f) m.set(cases[f].name + "_ms", median(plain[f]), "ms");
    m.set("p99_ms", quantile(all, 0.99), "ms");
    m.set("cpu_ms_per_op", cpu.cpu_ms() / double(plain_ops), "ms");
    m.set("setup_s", median(setup_s), "s");
    return 0;
  }
  // The engine publishes its epoch counters only with its opt-in per-epoch
  // lane (OBLIV_PSIM_TRACE=1), which adds a pass over every epoch's
  // buffer; so the timed rounds above run without it, and psim.* comes
  // from one untimed round on an executor that builds its engine with it.
  ModelSet counted(sz, opt.seed);
  counted.compute_oracles();
  double epochs = 0, fallback = 0;
  setenv("OBLIV_PSIM_TRACE", "1", 1);
  for (auto& c : counted.cases()) {
    SimStats s;
    run_checked(c, s, &tracer, nullptr, out);
    epochs += double(tracer.counters().value("psim.epochs"));
    fallback += double(tracer.counters().value("psim.fallback_epochs"));
  }
  unsetenv("OBLIV_PSIM_TRACE");
  m.set("hm.ns_per_access", sim_ms * 1e6 / double(plain_accesses), "ns");
  m.set("hm.accesses", double(round_total.accesses), "count");
  m.set("hm.l1_misses", double(round_total.run.level_total_misses[0]), "count");
  m.set("hm.l2_misses", double(round_total.run.level_total_misses[1]), "count");
  m.set("psim.epochs", epochs, "count");
  m.set("psim.fallback_epochs", fallback, "count");
  m.set("no.host_ms", median(no_ms_round), "ms");
  m.set("no.supersteps", double(round_total.supersteps), "count");
  m.set("no.message_words", double(round_total.message_words), "count");
  m.set("proc.sys_ms_per_op", cpu.sys_ms / double(plain_ops), "ms");
  m.set("proc.ctxsw_per_op", (cpu.vcsw + cpu.ivcsw) / double(plain_ops), "count");
  double sum_plain = 0, sum_traced = 0;
  for (std::size_t f = 0; f < nf; ++f) {
    sum_plain += median(plain[f]);
    sum_traced += median(traced[f]);
  }
  m.set("obs.overhead_pct", 100.0 * (sum_traced / sum_plain - 1.0), "%");
  return 0;
}

int self_check_model() {
  std::printf("model checks:\n");
  ModelSet set(kModelSmoke, 7);
  set.compute_oracles();
  const auto cfg = obliv::hm::MachineConfig::shared_l2(4);
  int missed = 0;
  for (auto& c : set.cases()) {
    SimStats s;
    time_op(c, s, nullptr, nullptr);
    const bool clean = outputs_ok(c) && properties_hold(c, s, cfg);
    // Each simulated-quantity property, broken one at a time.
    auto broken = [&](auto&& edit) {
      SimStats b = s;
      edit(b);
      return !properties_hold(c, b, cfg);
    };
    auto& miss = s.run.level_total_misses;
    missed += report_check("model " + c.name + " L2<=L1", clean,
                           broken([&](SimStats& b) { b.run.level_total_misses[1] = miss[0] + 1; }));
    missed += report_check("model " + c.name + " compulsory", clean,
                           broken([&](SimStats& b) { b.run.level_total_misses = {0, 0}; }));
    missed += report_check("model " + c.name + " span<=work", clean,
                           broken([&](SimStats& b) { b.run.span = b.run.work + 1; }));
    if (s.has_no) {
      missed += report_check("model " + c.name + " NO words", clean,
                             broken([&](SimStats& b) { b.message_words = 0; }));
    }
    c.corrupt();
    missed += report_check("model " + c.name + " output", clean, !c.check());
    if (c.corrupt_no) {
      c.corrupt_no();
      missed += report_check("model " + c.name + " NO output", clean, !c.check_no());
    }
  }
  return missed;
}

}  // namespace perfbench

namespace perfbench {

void reference_model() {
  using obliv::hm::PsimMode;
  obliv::sched::SimPolicy serial;
  serial.psim = PsimMode::kSerial;
  ModelSet dflt(kModelFull, 1), ser(kModelFull, 1, serial);
  dflt.compute_oracles();
  ser.compute_oracles();
  const auto cfg = obliv::hm::MachineConfig::shared_l2(4);
  constexpr int kReps = 5;
  std::printf("\n| family | HM simulation, default engine (ms) | HM simulation, serial "
              "engine (ms) | NO costing (ms) |\n|---|---|---|---|\n");
  for (std::size_t f = 0; f < dflt.cases().size(); ++f) {
    std::vector<double> d, s, no;
    RunResult r;
    for (int i = 0; i < kReps; ++i) {
      for (ModelSet* set : {&dflt, &ser}) {
        ModelCase& c = set->cases()[f];
        SimStats st;
        const double ms = time_op(c, st, nullptr, nullptr);
        tally(r, outputs_ok(c) && properties_hold(c, st, cfg));
        (set == &dflt ? d : s).push_back(ms - st.no_ms);
        if (set == &dflt) no.push_back(st.no_ms);
      }
    }
    std::printf("| %s | %.2f | %.2f | %.2f |%s\n", dflt.cases()[f].name.c_str(),
                median(d), median(s), median(no), r.failed == 0 ? "" : " WRONG OUTPUT");
  }
}

}  // namespace perfbench
