// perfbench: the repository's benchmark program.
//
//   perfbench --workload solve|model --seed N --seconds S --trace 0|1
//   perfbench --workload W --smoke        tiny inputs, every check, 1 round
//   perfbench --self-check                corrupt one output per check
//   perfbench --reference                 figures for README.md
//
// The last line of standard output is the JSON result: the operation
// tally and the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  See README.md for what each metric means.
#include <sys/resource.h>

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "harness.hpp"

namespace perfbench {

ProcSample proc_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return double(tv.tv_sec) * 1e3 + double(tv.tv_usec) / 1e3;
  };
  return {ms(ru.ru_utime), ms(ru.ru_stime), double(ru.ru_nvcsw),
          double(ru.ru_nivcsw)};
}

ProcSample operator-(const ProcSample& a, const ProcSample& b) {
  return {a.user_ms - b.user_ms, a.sys_ms - b.sys_ms, a.vcsw - b.vcsw,
          a.ivcsw - b.ivcsw};
}

ProcSample& operator+=(ProcSample& a, const ProcSample& b) {
  a.user_ms += b.user_ms;
  a.sys_ms += b.sys_ms;
  a.vcsw += b.vcsw;
  a.ivcsw += b.ivcsw;
  return a;
}

long long host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long f[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1;
  for (auto& x : f) {
    if (!(in >> x)) return -1;
  }
  return f[7];  // user nice system idle iowait irq softirq steal
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double hist_quantile(const obliv::obs::Histogram& h, double q) {
  using H = obliv::obs::Histogram;
  const double n = double(h.count());
  if (n == 0) return 0;
  const double rank = q * n;
  double cum = 0;
  for (std::uint32_t b = 0; b < H::kBuckets; ++b) {
    const double c = double(h.bucket(b));
    if (c > 0 && cum + c >= rank) {
      const double lo = std::max<double>(double(H::bucket_lo(b)), double(h.min()));
      const double hi = std::min<double>(double(H::bucket_hi(b)), double(h.max()));
      return lo + (hi - lo) * std::clamp((rank - cum) / c, 0.0, 1.0);
    }
    cum += c;
  }
  return double(h.max());
}

std::string exact(double v) {
  char buf[64];
  auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_host_line(const char* what, long long steal_ticks,
                     const ProcSample& cpu, double wall_s) {
  std::printf("# %s: wall %.2f s, host steal %lld ticks, process user %.0f ms, "
              "sys %.0f ms, ctxsw %.0f\n",
              what, wall_s, steal_ticks, cpu.user_ms, cpu.sys_ms,
              cpu.vcsw + cpu.ivcsw);
}

void print_result_line(const RunResult& r) {
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  bool first = true;
  r.metrics.for_each([&](const std::string& k, double v, const std::string& u) {
    o << (first ? "" : ", ") << "\"" << k << "\": {\"value\": " << exact(v)
      << ", \"unit\": \"" << u << "\"}";
    first = false;
  });
  o << "}}";
  std::printf("%s\n", o.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solve|model --seed N "
               "--seconds S --trace 0|1 [--smoke]\n"
               "       perfbench --self-check | --reference\n");
  return 2;
}

int run_self_check() {
  const int missed = self_check_solve() + self_check_serve() + self_check_model();
  std::printf("self-check: %s\n", missed == 0 ? "every check fired" : "MISSED CHECKS");
  return missed == 0 ? 0 : 1;
}

int run_workload(const std::string& name, const Options& opt, RunResult& r) {
  if (name == "solve") return run_solve(opt, r);
  if (name == "model") return run_model(opt, r);
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool reference = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) std::exit(usage());
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(next(), nullptr);
    } else if (a == "--trace") {
      opt.trace = std::strcmp(next(), "0") != 0;
    } else if (a == "--smoke") {
      opt.smoke = true;
    } else if (a == "--self-check") {
      opt.self_check = true;
    } else if (a == "--reference") {
      reference = true;
    } else {
      return usage();
    }
  }
  if (reference) {
    reference_solve();
    reference_model();
    return 0;
  }
  if (opt.self_check) return run_self_check();
  if (opt.workload.empty() || opt.seconds <= 0) return usage();

  RunResult r;
  if (const int rc = run_workload(opt.workload, opt, r); rc != 0) return rc;
  if (opt.trace) {
    // Every traced run reports every per-layer metric.  Those of the
    // layers this workload bypasses come from a traced pass of the other
    // workload at the same input sizes (5 s of rounds), so a name means
    // the same figure in every traced run; this workload's own figures
    // (proc.*, obs.*) are kept.  serve.* comes from a 5 s open loop into
    // a serve::Server, which no gated workload reaches.
    const std::string other = opt.workload == "solve" ? "model" : "solve";
    Options o = opt;
    o.workload = other;
    o.seconds = 5;
    RunResult side;
    if (const int rc = run_workload(other, o, side); rc != 0) return rc;
    side.metrics.for_each([&](const std::string& k, double v,
                              const std::string& u) { r.metrics.fill(k, v, u); });
    r.correct = r.correct && side.correct;
    r.correct = measure_serve(opt, r.metrics) && r.correct;
  }
  print_result_line(r);
  return 0;
}
