// Multi-level cache simulator for the HM model.
//
// Cache complexity in the paper is defined as the maximum number of block
// transfers into and out of any single level-i cache (Section II).  This
// simulator measures exactly that: every memory access by a core walks the
// hierarchy of fully-associative LRU caches on the core's path (its private
// L1, the L2 it shares, ...), counting a miss at each level where the block
// is absent.  Fully-associative LRU is the standard "ideal cache" of the
// cache-oblivious literature [1], which the HM analyses assume.
//
// The simulator also models the ping-ponging discussed in Section III: the
// coherence granularity is B_1, and a write to a block resident in another
// core's L1 invalidates it there and counts a ping-pong event.  The CGC
// scheduler's B_1-respecting chunking exists precisely to avoid these events
// (ablated in bench_sched_ablation).
//
// Implementation (PR 3): this is the hot path of every Table II / Theorem
// bench, so it is built for throughput while keeping every observable
// counter bit-identical to the reference semantics above (enforced by
// tests/test_golden_counters.cpp):
//
//   * LruCache keys blocks through an open-addressing flat table
//     (hm/flat_table.hpp) into an intrusive doubly-linked LRU list -- exact
//     fully-associative LRU, ~one probe per touch.
//   * Coherence is O(1) per access: the sharer set is a 64-bit mask in an
//     epoch-tagged flat table (MachineConfig rejects > 64 cores), writers
//     that are the sole sharer skip the invalidation scan entirely, and
//     invalidations iterate set bits, not all cores.
//   * A per-core "L0" filter (one block tag per core) short-circuits
//     repeated touches of a core's most-recently-used B_1 block -- the
//     common sequential-access case -- into a single compare.  L1 hit
//     counters are still credited; see DESIGN.md for why this is exact.
//   * access_run() walks a whole run of B_1 blocks per call, memoising the
//     last block touched per upper level within the run, so batched range
//     accesses (SimRef::load_run / store_run) pay one hierarchy walk per
//     *distinct* upper-level block instead of one probe per B_1 block.
#pragma once

#include <cstdint>
#include <vector>

#include "hm/config.hpp"
#include "hm/flat_table.hpp"
#include "obs/trace.hpp"

namespace obliv::hm {

/// Fully-associative LRU cache over abstract block ids.
class LruCache {
 public:
  explicit LruCache(std::size_t lines);

  /// Accesses `block`; returns true on hit.  On a miss the block is
  /// installed, evicting the least-recently-used block if full.
  /// `evicted` receives the victim block id (valid when the return of
  /// `evicted_valid()` is true after the call).
  bool touch(std::uint64_t block);

  /// LRU move for a block whose node index is already known (from
  /// last_node() at install/hit time) -- no hash probe.
  void touch_known(std::uint32_t idx) {
    if (head_ != idx) {
      unlink(idx);
      push_front(idx);
    }
  }

  /// Node index of the block hit or installed by the most recent touch().
  std::uint32_t last_node() const { return last_node_; }

  /// Removes `block` if present (coherence invalidation); returns true if
  /// it was present.
  bool erase(std::uint64_t block);

  bool contains(std::uint64_t block) const {
    return map_.find(block) != nullptr;
  }

  /// Block id evicted by the most recent touch(), or obs::kNoEviction if
  /// none (the same sentinel flows into kMiss.b unchanged, which is what
  /// lets the trace analyzer count evictions without a private protocol).
  std::uint64_t last_evicted() const { return last_evicted_; }

  void clear();

  std::size_t size() const { return map_.size(); }
  std::size_t lines() const { return lines_; }

 private:
  struct Node {
    std::uint64_t block;
    std::uint32_t prev, next;
    std::uint32_t slot;  ///< backpointer into map_ for O(1) erase
  };
  static constexpr std::uint32_t kNil = 0xffffffffu;

  void unlink(std::uint32_t idx) {
    Node& n = nodes_[idx];
    if (n.prev != kNil) {
      nodes_[n.prev].next = n.next;
    } else {
      head_ = n.next;
    }
    if (n.next != kNil) {
      nodes_[n.next].prev = n.prev;
    } else {
      tail_ = n.prev;
    }
  }

  void push_front(std::uint32_t idx) {
    Node& n = nodes_[idx];
    n.prev = kNil;
    n.next = head_;
    if (head_ != kNil) nodes_[head_].prev = idx;
    head_ = idx;
    if (tail_ == kNil) tail_ = idx;
  }

  std::size_t lines_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> free_;
  FlatTable<std::uint32_t> map_;
  std::uint32_t head_ = kNil, tail_ = kNil;
  std::uint32_t last_node_ = kNil;
  std::uint64_t last_evicted_ = ~0ull;
};

/// Per-cache transfer counters.
struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;       ///< blocks transferred *into* the cache
  std::uint64_t evictions = 0;    ///< blocks transferred *out of* the cache
  std::uint64_t invalidations = 0;  ///< coherence-induced removals (L1 only)
};

/// The whole-hierarchy simulator.
class CacheSim {
 public:
  /// Validating constructor; re-checks `cfg` (a default-constructed or
  /// hand-mutated MachineConfig would otherwise index empty level tables)
  /// and throws obliv::Error on violation.  Prefer make() on untrusted
  /// input.
  explicit CacheSim(MachineConfig cfg);

  /// Non-throwing companion: validates the config and builds the simulator,
  /// returning kInvalidConfig/kUnsupported for bad machines and
  /// kResourceExhausted when table allocation fails (including injected
  /// failures at fault::InjectSite::kAllocSim).
  static Result<CacheSim> make(MachineConfig cfg) noexcept;

  // counters1_ points into counters_[0]; moves keep vector heap buffers so
  // the pointer survives, but copies would leave it dangling.
  CacheSim(const CacheSim&) = delete;
  CacheSim& operator=(const CacheSim&) = delete;
  CacheSim(CacheSim&&) = default;
  CacheSim& operator=(CacheSim&&) = default;

  /// Simulates core `core` touching `words` consecutive words starting at
  /// word address `addr` (read if !write).  Equivalent to access_run().
  void access(std::uint32_t core, std::uint64_t addr, std::uint32_t words,
              bool write) {
    access_run(core, addr, words, write);
  }

  /// Batched entry point: simulates the whole run of B_1 blocks covered by
  /// [addr, addr + words) in one call.  Observable counters are identical
  /// to per-word access() calls over the same range collapsed at B_1
  /// granularity (each covered block is touched exactly once per call).
  ///
  /// The body here is the L0 fast path, inlined into callers: a repeat
  /// touch of the core's most recent B_1 block (and, for writes, one it
  /// holds exclusively) is a single compare + two counter increments.
  /// Everything else tail-calls the out-of-line slow path.
  void access_run(std::uint32_t core, std::uint64_t addr, std::uint32_t words,
                  bool write) {
    accesses_ += words > 0 ? words : 1;
    const std::uint64_t end = addr + (words > 1 ? words - 1 : 0);
    std::uint64_t first, last;
    if (b1_shift_ != kNoShift) {
      first = addr >> b1_shift_;
      last = end >> b1_shift_;
    } else {
      first = addr / b1_;
      last = end / b1_;
    }
    if (first == last) {
      L0Entry* set = &l0_[core * kL0Ways];
      if (set[0].block == first && (!write || set[0].exclusive)) {
        ++counters1_[core].hits;
        return;
      }
      // Second way inline: two interleaved streams (one loaded, one stored)
      // alternate between slots 0 and 1 on every access.
      if (set[1].block == first && (!write || set[1].exclusive)) {
        const L0Entry hit = set[1];
        set[1] = set[0];
        set[0] = hit;
        l0_dirty_[core] = 1;  // LRU move deferred until the next slow path
        ++counters1_[core].hits;
        return;
      }
    }
    access_blocks(core, first, last, write);
  }

  const MachineConfig& config() const { return cfg_; }

  /// Counters of cache `idx` at 1-based `level`.
  const CacheCounters& counters(std::uint32_t level, std::uint32_t idx) const;

  /// The paper's per-level cache complexity: max over the q_i caches at
  /// `level` of (misses + evictions).
  std::uint64_t level_max_transfers(std::uint32_t level) const;

  /// Max over caches at `level` of misses only (block reads).
  std::uint64_t level_max_misses(std::uint32_t level) const;

  /// Sum of misses over all caches at `level`.
  std::uint64_t level_total_misses(std::uint32_t level) const;

  /// Number of coherence ping-pong events (write hitting a B_1 block held
  /// by other L1s).
  std::uint64_t pingpong_events() const { return pingpong_; }

  /// Total simulated word accesses (the workload-invariant throughput
  /// numerator: a batched access_run over `words` words counts `words`,
  /// exactly like per-word calls over the same range would).
  std::uint64_t total_accesses() const { return accesses_; }

  /// Attaches an event tracer (nullptr detaches).  Misses, evictions and
  /// ping-pongs are then emitted as obs events attributed to the tracer's
  /// current task context; the L0/L1 hit fast paths never emit, so the
  /// traced slowdown is bounded by the miss rate.  Emission sits behind
  /// `if constexpr (obs::kTracingCompiledIn)`, so an OBLIV_TRACING=OFF
  /// build pays nothing.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// Zeroes all counters but keeps cache contents (warm restart).
  void reset_stats();

  /// Empties every cache and zeroes counters (cold restart).
  void clear();

 private:
  /// One slot of a core's L0 filter: a B_1 block known to be resident in
  /// the core's private L1 at LRU node `node`.  `exclusive` means the
  /// sharer mask is known to be exactly this core, so even writes need no
  /// coherence probe.  Each core owns kL0Ways slots kept in MRU order, and
  /// slots are cleared whenever their block leaves the L1 (eviction or
  /// invalidation), so a slot hit is always an exact L1 hit.  The slots
  /// are, by construction, the core's kL0Ways most recently used distinct
  /// blocks, so the L1's LRU-list moves for slot hits are *deferred*: list
  /// order among the top-kL0Ways blocks cannot affect an eviction decision
  /// until the next install, and the slow path settles the deferred order
  /// (flush, in slot order) before it touches the L1 -- reproducing
  /// exactly the list an eager implementation would have.  Multiple ways
  /// matter because the MO kernels interleave 2-3 sequential streams
  /// (e.g. scan reads v[2i], v[2i+1] and writes t[i]), which would thrash
  /// a single-entry filter every access.
  struct L0Entry {
    std::uint64_t block = ~0ull;
    std::uint32_t node = 0;
    bool exclusive = false;
  };
  static constexpr std::uint32_t kL0Ways = 4;

  /// Out-of-line slow path of access_run(): touches blocks [first, last].
  void access_blocks(std::uint32_t core, std::uint64_t first,
                     std::uint64_t last, bool write);

  /// One B_1-block touch: L0 filter, coherence, hierarchy walk.
  /// `run_memo` (one slot per level, ~0 = none) carries the last block
  /// touched per upper level within the current access_run() call; pass
  /// nullptr for single-block accesses.
  void touch_block(std::uint32_t core, std::uint64_t blk1, bool write,
                   std::uint64_t* run_memo);

  /// Write-path coherence: invalidate other sharers (counting one
  /// ping-pong if any existed) and make `core` the sole sharer.
  void coherence_write(std::uint32_t core, std::uint64_t blk1);

  /// Clears `blk1` from `core`'s L0 set if present (block left the L1).
  void l0_drop(std::uint32_t core, std::uint64_t blk1);

  /// Block id of `word` at `level` (1-based).
  std::uint64_t block_of(std::uint64_t word, std::uint32_t level) const {
    const std::uint8_t s = shift_[level - 1];
    return s != kNoShift ? word >> s : word / cfg_.block(level);
  }

  static constexpr std::uint8_t kNoShift = 0xff;

  MachineConfig cfg_;
  bool multicore_ = false;
  // Hot copies for the inline fast path: B_1 and its log2 (or kNoShift),
  // and the raw row of L1 counters (counters_[0].data(); vectors never
  // resize after construction, and moves keep heap buffers, so the pointer
  // stays valid -- copying is deleted below to keep that true).
  std::uint64_t b1_ = 1;
  std::uint8_t b1_shift_ = 0;
  CacheCounters* counters1_ = nullptr;
  // caches_[level-1][idx]
  std::vector<std::vector<LruCache>> caches_;
  std::vector<std::vector<CacheCounters>> counters_;
  // cache_idx_[level-1][core]: cfg_.cache_of(core, level), precomputed.
  std::vector<std::vector<std::uint32_t>> cache_idx_;
  // log2(B_i) when B_i is a power of two, else kNoShift.
  std::vector<std::uint8_t> shift_;
  // l0_[core * kL0Ways + k]: core's L0 filter slots in MRU order.
  std::vector<L0Entry> l0_;
  // l0_dirty_[core]: nonzero when L0 slot order has diverged from the L1's
  // LRU-list order (moves deferred by L0 hits; settled before any install).
  std::vector<std::uint8_t> l0_dirty_;
  // Scratch for access_run(): last block touched per level in the current
  // run (index level-1; ~0 = none).  Member to avoid per-call allocation.
  std::vector<std::uint64_t> run_memo_;
  SharerTable sharers_;
  std::uint64_t pingpong_ = 0;
  std::uint64_t accesses_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace obliv::hm
