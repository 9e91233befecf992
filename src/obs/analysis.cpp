#include "obs/analysis.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace obliv::obs {

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

// ---------------------------------------------------------------------------
// Chrome JSON parsing (the exporter's own format: one event per line)
// ---------------------------------------------------------------------------

/// Finds `"key":<uint>` inside `obj` and parses the integer; returns
/// `fallback` when the key is absent.
std::uint64_t field_u64(std::string_view obj, std::string_view key,
                        std::uint64_t fallback = 0) {
  std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = obj.find(pat);
  if (at == std::string_view::npos) return fallback;
  std::size_t i = at + pat.size();
  std::uint64_t v = 0;
  bool any = false;
  while (i < obj.size() && obj[i] >= '0' && obj[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(obj[i] - '0');
    ++i;
    any = true;
  }
  return any ? v : fallback;
}

/// Maps an exported event name (kind name plus optional ".<detail>" suffix)
/// back to its EventKind; false when the name is not one of ours.
bool kind_of_name(std::string_view name, EventKind& kind) {
  static constexpr EventKind kAll[] = {
      EventKind::kTaskSpawn, EventKind::kTaskSteal, EventKind::kTaskComplete,
      EventKind::kHintDispatch, EventKind::kAnchor, EventKind::kTaskBegin,
      EventKind::kTaskEnd, EventKind::kMiss, EventKind::kPingPong,
      EventKind::kSuperstep, EventKind::kJobAdmit, EventKind::kJobBegin,
      EventKind::kJobEnd};
  for (EventKind k : kAll) {
    const std::string_view base = event_name(k);
    if (name == base ||
        (name.size() > base.size() && name.substr(0, base.size()) == base &&
         name[base.size()] == '.')) {
      kind = k;
      return true;
    }
  }
  return false;
}

}  // namespace

Result<TraceData> parse_chrome_trace(std::string_view json) {
  if (json.find("\"traceEvents\"") == std::string_view::npos) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "not a chrome trace: no traceEvents key");
  }
  TraceData data;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string_view::npos) eol = json.size();
    const std::string_view line = json.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find("\"ph\":\"i\"") == std::string_view::npos) continue;
    constexpr std::string_view kName = "{\"name\":\"";
    const std::size_t ns = line.find(kName);
    if (ns == std::string_view::npos) continue;
    const std::size_t ne = line.find('"', ns + kName.size());
    if (ne == std::string_view::npos) continue;
    const std::string_view name = line.substr(ns + kName.size(),
                                              ne - ns - kName.size());
    EventKind kind;
    if (!kind_of_name(name, kind)) continue;
    Event e;
    e.kind = kind;
    e.tid = static_cast<std::uint32_t>(field_u64(line, "tid"));
    e.ts = field_u64(line, "ts");
    e.a = field_u64(line, "a");
    e.b = field_u64(line, "b");
    e.c = field_u64(line, "c");
    e.detail = static_cast<std::uint8_t>(field_u64(line, "detail"));
    data.events.push_back(e);
  }
  const std::size_t other = json.rfind("\"otherData\":");
  if (other == std::string_view::npos) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "not a chrome trace: no otherData block");
  }
  const std::string_view tail = json.substr(other);
  data.dropped_events = field_u64(tail, "dropped_events");
  // Per-ring stats (absent in traces exported before they existed).
  std::size_t rpos = tail.find("\"rings\":[");
  if (rpos != std::string_view::npos) {
    rpos += 9;
    while (rpos < tail.size() && tail[rpos] == '{') {
      std::size_t rend = tail.find('}', rpos);
      if (rend == std::string_view::npos) break;
      const std::string_view obj = tail.substr(rpos, rend - rpos + 1);
      data.rings.push_back(
          RingStat{field_u64(obj, "pushed"), field_u64(obj, "dropped")});
      rpos = rend + 1;
      if (rpos < tail.size() && tail[rpos] == ',') ++rpos;
    }
  }
  return data;
}

TraceData capture_trace(const Tracer& tracer) {
  TraceData data;
  for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) {
    tracer.ring(r).for_each(
        [&](const Event& e) { data.events.push_back(e); });
    data.rings.push_back(
        RingStat{tracer.ring(r).pushed(), tracer.ring(r).dropped()});
  }
  data.dropped_events = tracer.events_dropped();
  return data;
}

// ---------------------------------------------------------------------------
// DAG reconstruction + span recomputation
// ---------------------------------------------------------------------------

namespace {

struct PendingAnchor {
  std::uint8_t reason = 0;
  std::uint32_t level = 0;
  std::uint32_t idx = 0;
  std::uint64_t space_words = 0;
};

/// Builder state for one run (root task begin .. root task end).
struct RunBuilder {
  std::vector<TaskStats> tasks;
  std::vector<std::uint64_t> child_incl;  ///< per task: sum children work_incl
  std::vector<std::uint64_t> stack;       ///< open task ids
  std::vector<std::uint64_t> finish_order;
  std::unordered_map<std::uint64_t, PendingAnchor> pending_anchor;
  std::uint32_t levels = 0;

  TaskStats& task(std::uint64_t id) { return tasks[id]; }

  void ensure_level(TaskStats& t, std::uint32_t level) {
    if (t.misses.size() < level) {
      t.misses.resize(level, 0);
      t.evictions.resize(level, 0);
    }
    levels = std::max(levels, level);
  }
};

/// Recomputes one finished task's span under both weightings, applying the
/// executor's per-construct composition rules to the (already finalized)
/// children.
void compute_task_span(RunBuilder& b, TaskStats& t,
                       const std::vector<std::uint64_t>& weights) {
  std::uint64_t excl_mem = t.work_excl;
  for (std::size_t l = 0; l < t.misses.size() && l < weights.size(); ++l) {
    excl_mem += weights[l] * t.misses[l];
  }
  t.span = t.work_excl;
  t.span_mem = excl_mem;
  if (t.children.empty()) return;

  // Children are in creation order; construct k owns those with id in
  // [constructs[k].first_child, constructs[k+1].first_child).
  std::size_t ci = 0;
  for (std::size_t k = 0; k < t.constructs.size(); ++k) {
    const std::uint64_t next_fc = (k + 1 < t.constructs.size())
                                      ? t.constructs[k + 1].first_child
                                      : ~std::uint64_t(0);
    const std::uint8_t hint = t.constructs[k].hint;
    std::uint64_t contrib = 0, contrib_mem = 0;
    // SB / CGC=>SB: tasks assigned to the same anchor cache queue behind
    // each other -- sum spans per anchor key, take the max across keys.
    // CGC: every segment starts at the construct's span base (even when
    // segments share a core) -- plain max over children.
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>> keyed;
    while (ci < t.children.size() && t.children[ci] < next_fc) {
      const TaskStats& c = b.task(t.children[ci]);
      if (hint == 0) {  // CGC
        contrib = std::max(contrib, c.span);
        contrib_mem = std::max(contrib_mem, c.span_mem);
      } else {  // SB or CGC=>SB
        const std::uint64_t key =
            c.has_anchor ? ((std::uint64_t(c.anchor_level) << 32) |
                            c.anchor_idx)
                         : (~std::uint64_t(0) - c.id);  // unkeyed: own lane
        auto& acc = keyed[key];
        acc.first += c.span;
        acc.second += c.span_mem;
      }
      ++ci;
    }
    for (const auto& [key, acc] : keyed) {
      contrib = std::max(contrib, acc.first);
      contrib_mem = std::max(contrib_mem, acc.second);
    }
    t.span += contrib;
    t.span_mem += contrib_mem;
  }
  // Children outside any construct would mean a hint event was lost; the
  // drop gate makes that impossible, but account them sequentially rather
  // than silently under-counting the critical path.
  for (; ci < t.children.size(); ++ci) {
    t.span += b.task(t.children[ci]).span;
    t.span_mem += b.task(t.children[ci]).span_mem;
  }
}

RunAnalysis finalize_run(RunBuilder& b, const AnalysisOptions& opts) {
  RunAnalysis run;
  run.levels = b.levels;
  run.miss_weights = opts.miss_weights;
  if (run.miss_weights.empty()) {
    std::uint64_t w = 4;  // weight_l = 4^l synthetic cost model
    for (std::uint32_t l = 1; l <= b.levels; ++l, w *= 4) {
      run.miss_weights.push_back(w);
    }
  }
  // Children finish before their parents, so finish order is a valid
  // bottom-up evaluation order for the span recurrences.
  for (std::uint64_t id : b.finish_order) {
    compute_task_span(b, b.task(id), run.miss_weights);
  }

  run.tasks = std::move(b.tasks);
  const TaskStats& root = run.tasks[0];
  run.work = root.work_incl;
  run.span = root.span;
  run.recorded_span = root.recorded_span;
  run.mem_span = root.span_mem;

  run.total_misses.assign(run.levels, 0);
  run.total_evictions.assign(run.levels, 0);
  run.rollup_reason.assign(RunAnalysis::kReasonCount, {});
  for (auto& row : run.rollup_reason) row.assign(run.levels, {});
  for (const TaskStats& t : run.tasks) {
    run.max_depth = std::max(run.max_depth, t.depth);
    if (t.span != t.recorded_span) ++run.span_mismatches;
    if (t.depth >= run.rollup_depth.size()) {
      run.rollup_depth.resize(t.depth + 1);
    }
    auto& drow = run.rollup_depth[t.depth];
    if (drow.size() < run.levels) drow.resize(run.levels);
    const std::uint32_t reason =
        t.has_anchor ? t.anchor_reason : RunAnalysis::kReasonRoot;
    auto& rrow = run.rollup_reason[std::min<std::uint32_t>(
        reason, RunAnalysis::kReasonCount - 1)];
    for (std::size_t l = 0; l < run.levels; ++l) {
      const std::uint64_t m = l < t.misses.size() ? t.misses[l] : 0;
      const std::uint64_t e = l < t.evictions.size() ? t.evictions[l] : 0;
      run.total_misses[l] += m;
      run.total_evictions[l] += e;
      drow[l].misses += m;
      drow[l].evictions += e;
      ++drow[l].tasks;
      rrow[l].misses += m;
      rrow[l].evictions += e;
      ++rrow[l].tasks;
    }
    if (run.levels == 0) {
      // Still count tasks in the depth rollup when no cache events exist.
      if (drow.empty()) drow.resize(1);
      ++drow[0].tasks;
    }
  }
  run.span_matches_recorded = run.span_mismatches == 0;

  run.mem_work = run.work;
  for (std::size_t l = 0; l < run.levels; ++l) {
    run.mem_work += run.miss_weights[l] * run.total_misses[l];
  }
  auto ratio = [](std::uint64_t w, std::uint64_t s) {
    if (s == 0) return w == 0 ? 1.0 : static_cast<double>(w);
    return static_cast<double>(w) / static_cast<double>(s);
  };
  run.parallelism = ratio(run.work, run.span);
  run.mem_parallelism = ratio(run.mem_work, run.mem_span);

  for (std::uint32_t p : opts.speedup_p) {
    if (p == 0) continue;
    SpeedupRow row;
    row.p = p;
    const double w = static_cast<double>(run.work);
    const double wm = static_cast<double>(run.mem_work);
    const double tp = w / p + static_cast<double>(run.span);
    const double tpm = wm / p + static_cast<double>(run.mem_span);
    row.predicted_speedup = tp > 0 ? w / tp : 1.0;
    row.predicted_speedup_mem = tpm > 0 ? wm / tpm : 1.0;
    run.speedups.push_back(row);
  }
  return run;
}

}  // namespace

Result<std::vector<RunAnalysis>> analyze(const TraceData& trace,
                                         const AnalysisOptions& opts) {
  std::uint64_t dropped = trace.dropped_events;
  for (const RingStat& r : trace.rings) {
    if (trace.dropped_events == 0) dropped += r.dropped;
  }
  if (dropped > 0) {
    return Status::error(
        ErrorCode::kInvalidArgument,
        "trace is truncated (flight-recorder rings dropped " +
            std::to_string(dropped) +
            " events); span analysis needs a complete stream -- enlarge the "
            "ring (Tracer capacity) and re-record");
  }

  std::vector<RunAnalysis> runs;
  RunBuilder b;
  for (const Event& e : trace.events) {
    switch (e.kind) {
      case EventKind::kTaskBegin: {
        if (b.stack.empty()) {
          if (e.a != 0) {
            return Status::error(ErrorCode::kInvalidArgument,
                                 "broken nesting: first task of a run has "
                                 "id " + std::to_string(e.a));
          }
          b = RunBuilder{};
        }
        const std::uint64_t id = e.a;
        if (id != b.tasks.size()) {
          return Status::error(ErrorCode::kInvalidArgument,
                               "non-dense task id " + std::to_string(id));
        }
        TaskStats t;
        t.id = id;
        t.parent = e.c;
        t.level = static_cast<std::uint32_t>(e.b);
        t.depth = static_cast<std::uint32_t>(b.stack.size());
        t.begin_ts = e.ts;
        if (auto it = b.pending_anchor.find(id);
            it != b.pending_anchor.end()) {
          t.has_anchor = true;
          t.anchor_reason = it->second.reason;
          t.anchor_level = it->second.level;
          t.anchor_idx = it->second.idx;
          t.space_words = it->second.space_words;
          b.pending_anchor.erase(it);
        }
        if (!b.stack.empty()) {
          b.task(b.stack.back()).children.push_back(id);
        }
        b.tasks.push_back(std::move(t));
        b.child_incl.push_back(0);
        b.stack.push_back(id);
        break;
      }
      case EventKind::kTaskEnd: {
        if (b.stack.empty() || b.stack.back() != e.a) {
          return Status::error(ErrorCode::kInvalidArgument,
                               "broken nesting: end of task " +
                                   std::to_string(e.a) +
                                   " does not match the open task");
        }
        TaskStats& t = b.task(e.a);
        t.end_ts = e.ts;
        t.recorded_span = e.b;
        t.work_incl = t.end_ts - t.begin_ts;
        t.work_excl = t.work_incl - b.child_incl[t.id];
        b.finish_order.push_back(t.id);
        b.stack.pop_back();
        if (!b.stack.empty()) {
          b.child_incl[b.stack.back()] += t.work_incl;
        } else {
          runs.push_back(finalize_run(b, opts));
          b = RunBuilder{};
        }
        break;
      }
      case EventKind::kHintDispatch: {
        if (!b.stack.empty()) {
          b.task(b.stack.back())
              .constructs.push_back(
                  TaskStats::Construct{e.detail, e.a, e.c});
        }
        break;
      }
      case EventKind::kAnchor: {
        PendingAnchor pa;
        pa.reason = e.detail;
        pa.level = static_cast<std::uint32_t>(e.b);
        pa.idx = e.tid - 100 * pa.level;  // inverse of cache_lane()
        pa.space_words = e.a;
        b.pending_anchor[e.c] = pa;
        break;
      }
      case EventKind::kMiss: {
        if (e.c < b.tasks.size() && e.detail >= 1) {
          TaskStats& t = b.task(e.c);
          b.ensure_level(t, e.detail);
          ++t.misses[e.detail - 1];
          if (e.b != kNoEviction) ++t.evictions[e.detail - 1];
        }
        break;
      }
      case EventKind::kPingPong: {
        if (e.c < b.tasks.size()) ++b.task(e.c).pingpongs;
        break;
      }
      default:
        // Native-layer and NO events carry no DAG structure.
        break;
    }
  }
  if (!b.stack.empty()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "trace ends with " + std::to_string(b.stack.size()) +
                             " unfinished tasks (partial run)");
  }
  if (runs.empty()) {
    return Status::error(ErrorCode::kInvalidArgument,
                         "trace contains no task begin/end events (was the "
                         "tracer attached to a SimExecutor?)");
  }
  return runs;
}

Result<std::vector<RunAnalysis>> analyze_tracer(const Tracer& tracer,
                                                const AnalysisOptions& opts) {
  return analyze(capture_trace(tracer), opts);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::string render_report(const RunAnalysis& run, std::string_view title) {
  std::string out;
  append(out, "== span report: %.*s ==\n", static_cast<int>(title.size()),
         title.data());
  append(out, "tasks %zu  max depth %u  cache levels %u\n", run.tasks.size(),
         run.max_depth, run.levels);
  append(out,
         "work %" PRIu64 "  span %" PRIu64 "  parallelism %.3f\n",
         run.work, run.span, run.parallelism);
  if (run.span_matches_recorded) {
    append(out,
           "span check: recomputed == executor-recorded for all %zu tasks\n",
           run.tasks.size());
  } else {
    append(out,
           "span check: MISMATCH on %" PRIu64 " tasks (recomputed %" PRIu64
           " vs recorded %" PRIu64 ")\n",
           run.span_mismatches, run.span, run.recorded_span);
  }
  std::string wdesc;
  for (std::size_t l = 0; l < run.miss_weights.size(); ++l) {
    append(wdesc, "%sL%zu=%" PRIu64, l == 0 ? "" : ",", l + 1,
           run.miss_weights[l]);
  }
  append(out,
         "mem-weighted (miss weights %s): work %" PRIu64 "  span %" PRIu64
         "  parallelism %.3f\n",
         wdesc.empty() ? "none" : wdesc.c_str(), run.mem_work, run.mem_span,
         run.mem_parallelism);
  append(out, "predicted speedup (Brent: T_p = W/p + S):\n");
  append(out, "  %6s  %12s  %12s\n", "p", "work-clock", "mem-weighted");
  for (const SpeedupRow& row : run.speedups) {
    append(out, "  %6u  %12.3f  %12.3f\n", row.p, row.predicted_speedup,
           row.predicted_speedup_mem);
  }

  append(out, "miss attribution by recursion depth:\n");
  append(out, "  %5s  %6s", "depth", "tasks");
  for (std::uint32_t l = 1; l <= run.levels; ++l) {
    append(out, "  L%u.miss  L%u.evict", l, l);
  }
  out += "\n";
  for (std::size_t d = 0; d < run.rollup_depth.size(); ++d) {
    const auto& row = run.rollup_depth[d];
    if (row.empty()) continue;
    append(out, "  %5zu  %6" PRIu64, d, row[0].tasks);
    for (std::size_t l = 0; l < run.levels; ++l) {
      append(out, "  %7" PRIu64 "  %8" PRIu64, row[l].misses,
             row[l].evictions);
    }
    out += "\n";
  }

  for (std::uint32_t l = 1; l <= run.levels; ++l) {
    append(out, "miss attribution at L%u by anchor reason (phase):\n", l);
    for (std::uint32_t r = 0; r < RunAnalysis::kReasonCount; ++r) {
      const auto& row = run.rollup_reason[r];
      if (row.size() < l || row[l - 1].tasks == 0) continue;
      const std::string_view rname =
          r == RunAnalysis::kReasonRoot
              ? std::string_view("root")
              : anchor_reason_name(static_cast<AnchorReason>(r));
      append(out, "  %-20.*s  tasks %6" PRIu64 "  miss %8" PRIu64
                  "  evict %8" PRIu64 "\n",
             static_cast<int>(rname.size()), rname.data(), row[l - 1].tasks,
             row[l - 1].misses, row[l - 1].evictions);
    }
  }
  return out;
}

std::string render_histograms(const CounterRegistry& counters) {
  std::string out;
  counters.for_each_histogram([&](const std::string& n, const Histogram& h) {
    append(out,
           "%s: count=%" PRIu64 " sum=%" PRIu64 " mean=%" PRIu64
           " min=%" PRIu64 " max=%" PRIu64 " p50=%" PRIu64 " p90=%" PRIu64
           " p99=%" PRIu64 "\n",
           n.c_str(), h.count(), h.sum(), h.mean(), h.min(), h.max(),
           h.percentile(50), h.percentile(90), h.percentile(99));
  });
  return out;
}

}  // namespace obliv::obs
