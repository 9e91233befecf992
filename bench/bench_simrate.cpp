// Simulator-throughput bench: simulated word accesses per second.
//
// Every Table II / Theorem bench is bottlenecked by hm::CacheSim, not by
// the algorithms being measured, so regeneration time of the paper's
// results is a direct function of this number.
//
// Methodology (interference-robust on a noisy host):
//
//   1. Each workload's access stream is captured ONCE as a trace -- the raw
//      drivers (seq-read, run-read, part-rw) synthesize theirs, the paper
//      workloads (scan, MO-MT, SPMS sort, I-GEP) record the exact
//      (core, addr, words, write) stream the SimExecutor emits.
//   2. The trace is replayed through the current hm::CacheSim AND through
//      the vendored pre-optimization simulator (bench/baseline_sim.hpp),
//      with repetitions interleaved new/old/new/old in one process, so
//      ambient load perturbs both series equally.  The per-sim statistic is
//      the best of K reps (min time), the standard noise-robust choice for
//      a deterministic computation.  For the paper workloads the baseline
//      replays the UNBATCHED (word-at-a-time) expansion of the trace --
//      that is the stream the pre-PR views actually issued, since run
//      batching ships in the same PR as the simulator; the raw-* rows
//      compare both simulators on the identical call shape.
//   3. Before timing, both simulators' observable counters (misses,
//      evictions, invalidations, ping-pongs) are checked for equality on
//      their respective streams: the speedup only counts if the semantics
//      are identical.  (Counter equality across the batched/unbatched pair
//      is exactly the run-batching exactness claim of DESIGN.md.)
//
// The throughput numerator is simulated WORDS (sum of `words` over the
// trace), which is invariant to how the stream is chopped into calls; the
// "speedup" column is the like-for-like ratio the tentpole targets.  The
// stack-* rows additionally time the workloads end-to-end through the full
// SimExecutor stack (algorithm + scheduler + simulator), which is the cost
// the actual benches pay; they have no baseline counterpart in-process.
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "algo/gep.hpp"
#include "algo/scan.hpp"
#include "algo/sort.hpp"
#include "algo/transpose.hpp"
#include "bench/baseline_sim.hpp"
#include "bench/common.hpp"
#include "hm/cache_sim.hpp"
#include "hm/config.hpp"
#include "hm/trace.hpp"
#include "sched/sim_executor.hpp"
#include "sched/views.hpp"
#include "util/rng.hpp"

using namespace obliv;

namespace {

int g_reps = 9;  // dropped to 2 under --smoke

using Trace = std::vector<sched::TraceEntry>;

std::uint64_t trace_words(const Trace& t) {
  std::uint64_t w = 0;
  for (const auto& e : t) w += e.words > 0 ? e.words : 1;
  return w;
}

template <class Sim>
void replay(Sim& sim, const Trace& t) {
  sim.clear();
  for (const auto& e : t) sim.access(e.core, e.addr, e.words, e.write != 0);
}

/// Word-at-a-time expansion of a trace: every k-word range access becomes k
/// single-word accesses in address order.  All view element types here are
/// one word wide, so this is exactly the stream the pre-PR (unbatched)
/// SimRef layer issued for the same workload.
Trace unbatch(const Trace& t) {
  Trace out;
  out.reserve(t.size());
  for (const auto& e : t) {
    const std::uint32_t k = e.words > 0 ? e.words : 1;
    for (std::uint32_t w = 0; w < k; ++w) {
      out.push_back({e.addr + w, 1, e.core, e.write});
    }
  }
  return out;
}

/// Golden-set counter parity between the optimized simulator (on the
/// captured trace) and the baseline simulator (on its replay stream);
/// aborts the bench on any mismatch.
void check_parity(const hm::MachineConfig& cfg, const Trace& t,
                  const Trace& t_base, const std::string& name) {
  hm::CacheSim now(cfg);
  bench::BaselineCacheSim then(cfg);
  replay(now, t);
  replay(then, t_base);
  bool ok = now.pingpong_events() == then.pingpong_events();
  for (std::uint32_t lvl = 1; lvl <= cfg.cache_levels(); ++lvl) {
    for (std::uint32_t i = 0; i < cfg.caches_at(lvl); ++i) {
      const auto& a = now.counters(lvl, i);
      const auto& b = then.counters(lvl, i);
      ok = ok && a.misses == b.misses && a.evictions == b.evictions &&
           a.invalidations == b.invalidations;
    }
  }
  if (!ok) {
    std::cerr << "FATAL: counter mismatch vs baseline simulator on " << name
              << " / " << cfg.name() << "\n";
    std::exit(1);
  }
}

struct Row {
  std::string bench;
  hm::MachineConfig cfg;
  std::uint64_t n = 0;
  Trace trace;               ///< empty for stack-* rows
  Trace trace_base;          ///< baseline replay stream (empty: use `trace`)
  std::function<std::uint64_t()> stack_run;  ///< stack-* rows only
  std::vector<double> ns_new, ns_base;
  std::uint64_t words = 0;
};

std::vector<Row> plan;

/// `pre_pr_stream` selects the baseline's replay stream: the word-at-a-time
/// expansion for view-captured workload traces (what the unbatched pre-PR
/// views issued), or the identical trace for the raw call-shape rows.
void add_trace(std::string bench, const hm::MachineConfig& cfg,
               std::uint64_t n, Trace t, bool pre_pr_stream = false) {
  Row r;
  r.bench = std::move(bench);
  r.cfg = cfg;
  r.n = n;
  r.words = trace_words(t);
  if (pre_pr_stream) {
    r.trace_base = unbatch(t);
    assert(trace_words(r.trace_base) == r.words);
  }
  r.trace = std::move(t);
  plan.push_back(std::move(r));
}

// ---- Raw trace generators -------------------------------------------------

/// Sequential word-at-a-time read scan by core 0, the common case the L0
/// filter targets.
Trace make_seq(std::uint64_t n) {
  Trace t;
  t.reserve(n);
  for (std::uint64_t a = 0; a < n; ++a) t.push_back({a, 1, 0, 0});
  return t;
}

/// The same scan issued as 512-word batched range accesses (the shape
/// SimRef::load_run / executor copy produce).
Trace make_run(std::uint64_t n) {
  Trace t;
  t.reserve(n / 512);
  for (std::uint64_t a = 0; a < n; a += 512) t.push_back({a, 512, 0, 0});
  return t;
}

/// All cores scan disjoint partitions, writing every 4th word: exercises
/// the sharer table and the write fast path without ping-ponging.
Trace make_part(const hm::MachineConfig& cfg, std::uint64_t n) {
  Trace t;
  t.reserve(n);
  const std::uint32_t p = cfg.cores();
  const std::uint64_t per = n / p;
  for (std::uint32_t c = 0; c < p; ++c) {
    for (std::uint64_t a = 0; a < per; ++a) {
      t.push_back({c * per + a, 1, static_cast<std::uint8_t>(c),
                   static_cast<std::uint8_t>((a & 3) == 0)});
    }
  }
  return t;
}

// ---- Workload trace capture + stack rows ----------------------------------

void add_stack(std::string bench, const hm::MachineConfig& cfg,
               std::uint64_t n, std::function<std::uint64_t()> run) {
  Row r;
  r.bench = "stack-" + bench;
  r.cfg = cfg;
  r.n = n;
  r.stack_run = std::move(run);
  r.words = r.stack_run();  // warm-up; also fixes the numerator
  plan.push_back(std::move(r));
}

void add_scan(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto buf = std::make_shared<sched::SimBuf<std::int64_t>>(
      ex->make_buf<std::int64_t>(n));
  auto rep = [ex, buf, n] {
    for (std::size_t i = 0; i < n; ++i) buf->raw()[i] = std::int64_t(i & 7);
    ex->run(2 * n, [&] { algo::mo_prefix_sum(*ex, buf->ref()); });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("scan", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("scan", cfg, n, rep);
}

void add_transpose(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto a =
      std::make_shared<sched::SimBuf<double>>(ex->make_buf<double>(n * n));
  auto out =
      std::make_shared<sched::SimBuf<double>>(ex->make_buf<double>(n * n));
  for (std::size_t i = 0; i < n * n; ++i) a->raw()[i] = double(i);
  auto rep = [ex, a, out, n] {
    ex->run(3 * n * n,
            [&] { algo::mo_transpose(*ex, a->ref(), out->ref(), n); });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("mo-mt", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("mo-mt", cfg, n, rep);
}

void add_sort(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto buf = std::make_shared<sched::SimBuf<std::uint64_t>>(
      ex->make_buf<std::uint64_t>(n));
  auto rep = [ex, buf, n] {
    util::Xoshiro256 rng(4242);
    for (auto& v : buf->raw()) v = rng();
    ex->run(4 * n, [&] { algo::spms_sort(*ex, buf->ref()); });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("spms-sort", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("spms-sort", cfg, n, rep);
}

void add_gep(const hm::MachineConfig& cfg, std::uint64_t n) {
  auto ex = std::make_shared<sched::SimExecutor>(cfg);
  auto buf =
      std::make_shared<sched::SimBuf<double>>(ex->make_buf<double>(n * n));
  auto rep = [ex, buf, n] {
    util::Xoshiro256 rng(7);
    for (auto& v : buf->raw()) v = rng.uniform();
    using Mat = sched::MatView<sched::SimRef<double>>;
    ex->run(n * n, [&] {
      algo::igep<algo::FloydWarshallInstance>(*ex,
                                              Mat::full(buf->ref(), n, n));
    });
    return ex->cache_sim().total_accesses();
  };
  Trace t;
  ex->set_trace(&t);
  rep();
  ex->set_trace(nullptr);
  add_trace("igep", cfg, n, std::move(t), /*pre_pr_stream=*/true);
  add_stack("igep", cfg, n, rep);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::smoke(argc, argv);
  bench::TraceExport trace_export(argc, argv);
  if (smoke) g_reps = 2;
  bench::print_header("Simulator throughput (simulated word accesses/sec)");
  std::cout << "host hardware_concurrency = " << bench::host_concurrency()
            << ", pinned = " << (bench::threads_pinned() ? "yes" : "no")
            << "\n";
  const std::uint64_t raw_n = smoke ? 1u << 16 : 1u << 20;
  const hm::MachineConfig cfgs[] = {hm::MachineConfig::shared_l2(4),
                                    hm::MachineConfig::figure1()};
  for (const auto& cfg : cfgs) {
    bench::print_machine(cfg);
    add_trace("raw-seq-read", cfg, raw_n, make_seq(raw_n));
    add_trace("raw-run-read", cfg, raw_n, make_run(raw_n));
    add_trace("raw-part-rw", cfg, raw_n, make_part(cfg, raw_n));
    add_scan(cfg, smoke ? 1u << 12 : 1u << 16);
    add_transpose(cfg, smoke ? 32 : 128);
    add_sort(cfg, smoke ? 1u << 10 : 1u << 14);
    add_gep(cfg, smoke ? 32 : 64);
  }

  // Counter-parity gate: the speedup claims only stand on identical
  // semantics vs the vendored baseline.
  for (const auto& r : plan) {
    if (!r.trace.empty()) {
      check_parity(r.cfg, r.trace,
                   r.trace_base.empty() ? r.trace : r.trace_base, r.bench);
    }
  }

  // Timed phase.  Reps of every row are interleaved (rep r of all rows
  // before rep r+1 of any); within a replay row the baseline and the
  // current simulator alternate back-to-back.
  std::vector<std::unique_ptr<hm::CacheSim>> sims_new;
  std::vector<std::unique_ptr<bench::BaselineCacheSim>> sims_base;
  for (const auto& r : plan) {
    const bool has_trace = !r.trace.empty();
    sims_new.push_back(has_trace ? std::make_unique<hm::CacheSim>(r.cfg)
                                 : nullptr);
    sims_base.push_back(
        has_trace ? std::make_unique<bench::BaselineCacheSim>(r.cfg)
                  : nullptr);
  }
  for (int r = 0; r < g_reps; ++r) {
    for (std::size_t i = 0; i < plan.size(); ++i) {
      Row& row = plan[i];
      if (row.trace.empty()) {
        row.ns_new.push_back(bench::time_once_ns([&] { row.stack_run(); }));
        continue;
      }
      const Trace& tb = row.trace_base.empty() ? row.trace : row.trace_base;
      row.ns_base.push_back(
          bench::time_once_ns([&] { replay(*sims_base[i], tb); }));
      row.ns_new.push_back(
          bench::time_once_ns([&] { replay(*sims_new[i], row.trace); }));
    }
  }

  bench::SimRateRecorder rec("BENCH_simrate.json");
  util::Table t({"bench", "config", "n", "words", "base Macc/s", "new Macc/s",
                 "speedup"});
  double logsum = 0, logsum_mo = 0;
  int cnt = 0, cnt_mo = 0;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    Row& row = plan[i];
    const double best_new = *std::min_element(row.ns_new.begin(),
                                              row.ns_new.end());
    const double rate_new = double(row.words) / (best_new * 1e-9);
    double rate_base = 0, speedup = 0;
    if (!row.ns_base.empty()) {
      const double best_base = *std::min_element(row.ns_base.begin(),
                                                 row.ns_base.end());
      rate_base = double(row.words) / (best_base * 1e-9);
      speedup = rate_new / rate_base;
      logsum += std::log(speedup);
      ++cnt;
      if (row.bench != "raw-seq-read" && row.bench != "raw-run-read" &&
          row.bench != "raw-part-rw") {
        logsum_mo += std::log(speedup);
        ++cnt_mo;
      }
    }
    rec.add(row.bench, row.cfg.name(), row.n, row.words, rate_new, rate_base,
            speedup, g_reps);
    t.add_row({row.bench, row.cfg.name(), std::to_string(row.n),
               std::to_string(row.words),
               rate_base > 0 ? util::Table::fmt(rate_base / 1e6, "%.2f") : "-",
               util::Table::fmt(rate_new / 1e6, "%.2f"),
               speedup > 0 ? util::Table::fmt(speedup, "%.2fx") : "-"});
  }
  t.print(std::cout);
  std::cout << "counter parity vs baseline simulator: OK on all traces\n";
  std::cout << "geomean replay speedup: all "
            << util::Table::fmt(std::exp(logsum / cnt), "%.2f")
            << "x, Table-II workloads "
            << util::Table::fmt(std::exp(logsum_mo / cnt_mo), "%.2f") << "x\n";
  rec.write();
  return 0;
}
