// serve.* metrics: an open loop of seeded jobs of all seven families into
// one serve::Server at its default options, with a metrics-only tracer
// attached.  Arrival times are fixed in advance.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "inputs.hpp"
#include "obs/trace.hpp"
#include "oracles.hpp"
#include "serve/serve.hpp"

namespace perfbench {

namespace {

namespace sv = obliv::serve;
using obliv::sched::NatRef;

constexpr double kRate = 100;        // offered jobs per second
constexpr unsigned kCollectors = 8;  // client threads awaiting replies
constexpr double kSeconds = 5.0;     // length of the traced loop
constexpr double kWarmSeconds = 2.0;
constexpr const char* kNames[sv::kFamilies] = {
    "scan", "sort", "fft", "transpose", "gep", "listrank", "spmdv"};

template <class T>
NatRef<T> ref(std::vector<T>& v) {
  return NatRef<T>(v.data(), v.size());
}

std::uint64_t pow2_floor(double v) {
  std::uint64_t p = 1;
  while (p * 2 <= v) p *= 2;
  return p;
}

/// One job: its request buffers, the oracle's answer and its timestamps.
struct Job {
  sv::Family family = sv::Family::kScan;
  std::uint64_t side = 0;
  std::vector<std::int64_t> i64, i64_want;
  std::vector<std::uint64_t> u64, u64_want, pred, dist;
  std::vector<cplx> cx;
  oracle::Fft fft_want;
  std::vector<double> in, out, want;
  SpmInput spm;

  sv::JobHandle handle;
  bool refused = false;
  bool ok = false;
  Clock::time_point due;
  double submit_us = 0, lag_ms = 0;

  sv::Request request() {
    switch (family) {
      case sv::Family::kScan: return sv::ScanRequest{ref(i64)};
      case sv::Family::kSort: return sv::SortRequest{ref(u64)};
      case sv::Family::kFft: return sv::FftRequest{ref(cx)};
      case sv::Family::kTranspose: return sv::TransposeRequest{ref(in), ref(out), side};
      case sv::Family::kGep: return sv::GepRequest{ref(in), side};
      case sv::Family::kListRank: return sv::ListRankRequest{ref(u64), ref(pred), ref(dist)};
      case sv::Family::kSpmdv:
        return sv::SpmdvRequest{ref(spm.a.av), ref(spm.a.a0), ref(spm.x), ref(out)};
    }
    return {};
  }

  void compute_oracle(std::uint64_t seed) {
    switch (family) {
      case sv::Family::kScan: i64_want = oracle::scan(i64); break;
      case sv::Family::kSort: u64_want = oracle::sort(u64); break;
      case sv::Family::kFft: fft_want = oracle::Fft(cx, seed, 4); break;
      case sv::Family::kTranspose: want = oracle::transpose(in, side); break;
      case sv::Family::kGep: want = oracle::floyd_warshall(in, side); break;
      case sv::Family::kListRank: u64_want = oracle::list_rank(u64); break;
      case sv::Family::kSpmdv: want = oracle::spmdv(spm.a.a0, spm.a.av, spm.x); break;
    }
  }

  bool check() const {
    switch (family) {
      case sv::Family::kScan: return i64 == i64_want;
      case sv::Family::kSort: return u64 == u64_want;
      case sv::Family::kFft: return fft_want.check(cx);
      case sv::Family::kTranspose:
      case sv::Family::kSpmdv: return out == want;
      case sv::Family::kGep: return in == want;
      case sv::Family::kListRank: return dist == u64_want;
    }
    return false;
  }

  void corrupt() {
    switch (family) {
      case sv::Family::kScan: i64[0] += 1; break;
      case sv::Family::kSort: std::swap(u64.front(), u64.back()); break;
      case sv::Family::kFft: cx[1] += cplx(1.0, 0.0); break;
      case sv::Family::kTranspose:
      case sv::Family::kSpmdv: out[0] += 1.0; break;
      case sv::Family::kGep: in[1] += 1.0; break;
      case sv::Family::kListRank: dist[0] += 1; break;
    }
  }
};

/// A job of family `f` at size quantile `u` (bounded Pareto per family:
/// most jobs fit L1/L2, a heavy tail does not).
std::unique_ptr<Job> make_job(sv::Family f, double u, Rng& rng) {
  auto j = std::make_unique<Job>();
  j->family = f;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  switch (f) {
    case sv::Family::kScan:
      j->i64 = random_i64(rng, std::uint64_t(pareto_at(u, 1024, 65536)));
      break;
    case sv::Family::kSort:
      j->u64 = random_u64(rng, std::uint64_t(pareto_at(u, 1024, 65536)), ~0ull);
      break;
    case sv::Family::kFft:
      j->cx = random_signal(rng, pow2_floor(pareto_at(u, 256, 16384)));
      break;
    case sv::Family::kTranspose:
      j->side = pow2_floor(pareto_at(u, 16, 256));
      j->in = random_matrix(rng, j->side);
      j->out.assign(j->in.size(), nan);
      break;
    case sv::Family::kGep:
      j->side = pow2_floor(pareto_at(u, 16, 128));
      j->in = distance_matrix(rng, j->side);
      break;
    case sv::Family::kListRank: {
      ListInput l = random_list(rng, std::uint64_t(pareto_at(u, 128, 1024)));
      j->u64 = std::move(l.succ);
      j->pred = std::move(l.pred);
      j->dist.assign(j->u64.size(), obliv::algo::kNil);
      break;
    }
    case sv::Family::kSpmdv:
      j->spm = grid_system(rng, std::uint64_t(pareto_at(u, 16, 128)));
      j->out.assign(j->spm.a.n, nan);
      break;
  }
  return j;
}

/// `rounds` rounds of one job per family, families in seeded order per
/// round.  Sizes are stratified: family f's k-th draw takes a seeded
/// permutation slot of [0, 1), so every seed offers the same size mix.
std::vector<std::unique_ptr<Job>> make_schedule(std::uint64_t rounds,
                                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> u(sv::kFamilies);
  for (auto& uf : u) {
    std::vector<std::uint64_t> slot(rounds);
    for (std::uint64_t k = 0; k < rounds; ++k) slot[k] = k;
    for (std::uint64_t k = rounds; k > 1; --k) std::swap(slot[k - 1], slot[rng.below(k)]);
    for (std::uint64_t k = 0; k < rounds; ++k) {
      uf.push_back((double(slot[k]) + rng.uniform()) / double(rounds));
    }
  }
  std::vector<std::unique_ptr<Job>> jobs;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::size_t order[sv::kFamilies];
    for (std::size_t f = 0; f < sv::kFamilies; ++f) order[f] = f;
    for (std::size_t k = sv::kFamilies; k > 1; --k) {
      std::swap(order[k - 1], order[rng.below(k)]);
    }
    for (std::size_t f : order) {
      jobs.push_back(make_job(static_cast<sv::Family>(f), u[f][r], rng));
    }
  }
  return jobs;
}

/// Offers `jobs` to `srv` at kRate from this thread, with kCollectors
/// threads waiting on the handles in submit order.
void open_loop(sv::Server& srv, std::vector<std::unique_ptr<Job>>& jobs) {
  std::atomic<std::size_t> submitted{0}, next{0};
  auto collect = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) break;
      for (std::size_t s = submitted.load(); s <= i; s = submitted.load()) {
        submitted.wait(s);
      }
      Job& j = *jobs[i];
      if (j.refused) continue;
      j.ok = j.handle.wait().ok();
    }
  };
  std::vector<std::thread> collectors;
  for (unsigned c = 0; c < kCollectors; ++c) collectors.emplace_back(collect);

  const auto t0 = Clock::now() + std::chrono::milliseconds(10);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Job& j = *jobs[i];
    j.due = t0 + std::chrono::nanoseconds(std::int64_t(double(i) * 1e9 / kRate));
    // Sleep, then spin the last stretch, so the generator's own wake-up
    // delay does not count as job latency.
    std::this_thread::sleep_until(j.due - std::chrono::microseconds(100));
    while (Clock::now() < j.due) {
    }
    const auto s0 = Clock::now();
    auto r = srv.submit(j.request());
    const auto s1 = Clock::now();
    j.lag_ms = ms_between(j.due, s0);
    j.submit_us = ms_between(s0, s1) * 1e3;
    if (r.ok()) {
      j.handle = r.value();
    } else {
      j.refused = true;
    }
    submitted.store(i + 1);
    submitted.notify_all();
  }
  for (auto& t : collectors) t.join();
}

}  // namespace

bool measure_serve(const Options& opt, Metrics& m) {
  const std::uint64_t rounds =
      opt.smoke ? 2 : std::uint64_t(kRate * kSeconds) / sv::kFamilies;
  auto jobs = make_schedule(rounds, opt.seed);
  for (auto& j : jobs) j->compute_oracle(opt.seed);

  // Untimed warm-up on its own jobs and server.
  if (!opt.smoke) {
    auto warm = make_schedule(std::uint64_t(kRate * kWarmSeconds) / sv::kFamilies,
                              opt.seed ^ 0x3a3a3a3aull);
    sv::Server wsrv;
    open_loop(wsrv, warm);
  }

  sv::Server srv;
  obliv::obs::Tracer tracer(srv.threads(), 1);
  tracer.set_events_enabled(false);  // histograms and counters only
  srv.set_tracer(&tracer);
  const long long steal0 = host_steal_ticks();
  const ProcSample run0 = proc_now();
  const auto t0 = Clock::now();
  open_loop(srv, jobs);
  const std::uint64_t queue_peak = srv.stats().queue_peak;
  srv.shutdown();
  srv.set_tracer(nullptr);
  print_host_line("serve", host_steal_ticks() - steal0, proc_now() - run0,
                  seconds_between(t0, Clock::now()));

  // Outputs are checked after the run, so checking never competes with
  // the server for cores.
  bool correct = true;
  std::vector<double> lag, submit_us;
  for (auto& j : jobs) {
    correct = correct && !j->refused && j->ok && j->check();
    lag.push_back(j->lag_ms);
    submit_us.push_back(j->submit_us);
  }
  std::printf("# serve: %zu jobs at %.0f/s, generator lag p99 %.3f ms\n",
              jobs.size(), kRate, quantile(lag, 0.99));

  const auto& reg = tracer.counters();
  const auto* wait = reg.find_histogram("serve.job.wait_ns");
  const auto* run = reg.find_histogram("serve.job.run_ns");
  m.set("serve.submit_us", median(submit_us), "us");
  m.set("serve.wait_ms", wait ? hist_quantile(*wait, 0.5) / 1e6 : 0.0, "ms");
  m.set("serve.run_ms", run ? hist_quantile(*run, 0.5) / 1e6 : 0.0, "ms");
  m.set("serve.queue_peak", double(queue_peak), "count");
  m.set("serve.gen_lag_ms", quantile(lag, 0.99), "ms");
  return correct;
}

int self_check_serve() {
  std::printf("serve checks:\n");
  auto jobs = make_schedule(1, 7);
  sv::Server srv;
  int missed = 0;
  for (auto& j : jobs) {
    j->compute_oracle(7);
    auto r = srv.submit(j->request());
    const bool ran = r.ok() && r.value().wait().ok();
    const bool clean = ran && j->check();
    j->corrupt();
    missed += report_check(std::string("serve ") + kNames[std::size_t(j->family)],
                           clean, !j->check());
  }
  return missed;
}

}  // namespace perfbench
