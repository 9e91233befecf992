// Access-trace record for the HM simulator.
//
// SimExecutor::set_trace captures a workload's access stream as
// TraceEntry records (sched/sim_executor.hpp re-exports the type), and
// benches replay the captured stream straight into a cache simulator.
#pragma once

#include <cstdint>

namespace obliv::hm {

/// One recorded memory access: the arguments SimExecutor::access passed to
/// the cache simulator.  Benches capture a workload's trace once and replay
/// it against different simulator implementations (bench_simrate);
/// MachineConfig caps cores at 64, so the core always fits a byte.
struct TraceEntry {
  std::uint64_t addr;
  std::uint32_t words;
  std::uint8_t core;
  std::uint8_t write;
};

/// The serial hm::CacheSim is the only cache-simulation engine.  This
/// one-value enum is the type of the unused sched::SimPolicy::psim field,
/// kept so that code written against the removed engine switch compiles.
enum class PsimMode : std::uint8_t { kSerial };

}  // namespace obliv::hm
