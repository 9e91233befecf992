// The seven families as direct library calls on a NativeExecutor: the
// `solve` workload, the algo.*_t4_ms probes and the reference figures all
// time these same cases.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/native_executor.hpp"

namespace perfbench {

struct SolveSizes {
  std::uint64_t scan, sort, fft, transpose, gep, listrank, spmdv_side;
};

/// Full sizes (README.md gives the reasons for each).
inline constexpr SolveSizes kSolveFull{1u << 21, 1u << 19, 1u << 18, 1024,
                                       512,      1u << 14, 512};
inline constexpr SolveSizes kSolveSmoke{1u << 12, 1u << 11, 1u << 10, 64,
                                        32,       1u << 9,  32};

/// One family: restore its inputs, call the library, compare with the
/// oracle.  `corrupt` damages one output element (self-check), and
/// `baseline` runs the best simple serial code for the same job.
struct SolveCase {
  std::string name;
  std::function<void()> prepare;
  std::function<void(obliv::sched::NativeExecutor&)> run;
  std::function<bool()> check;
  std::function<void()> corrupt;
  std::function<void()> baseline;
};

/// Generates the inputs of all seven families from `seed` (the timed part
/// of set-up); the oracles are computed by compute_oracles().
class SolveSet {
 public:
  SolveSet(const SolveSizes& sizes, std::uint64_t seed);
  void compute_oracles();
  std::vector<SolveCase>& cases() { return cases_; }

 private:
  struct Data;
  std::shared_ptr<Data> d_;
  std::vector<SolveCase> cases_;
};

}  // namespace perfbench
