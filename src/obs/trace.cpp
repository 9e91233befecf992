#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

namespace obliv::obs {

std::string_view event_name(EventKind kind) {
  switch (kind) {
    case EventKind::kTaskSpawn: return "task.spawn";
    case EventKind::kTaskSteal: return "task.steal";
    case EventKind::kTaskComplete: return "task.complete";
    case EventKind::kHintDispatch: return "hint.dispatch";
    case EventKind::kAnchor: return "anchor";
    case EventKind::kTaskBegin: return "task.begin";
    case EventKind::kTaskEnd: return "task.end";
    case EventKind::kMiss: return "miss";
    case EventKind::kPingPong: return "pingpong";
    case EventKind::kSuperstep: return "superstep";
    case EventKind::kJobAdmit: return "job.admit";
    case EventKind::kJobBegin: return "job.begin";
    case EventKind::kJobEnd: return "job.end";
    case EventKind::kJobCancel: return "job.cancel";
    case EventKind::kJobShed: return "job.shed";
  }
  return "unknown";
}

std::string_view anchor_reason_name(AnchorReason reason) {
  switch (reason) {
    case AnchorReason::kSbFit: return "sb-fit";
    case AnchorReason::kSbQueued: return "sb-queued-at-anchor";
    case AnchorReason::kSlice: return "slice";
    case AnchorReason::kCgcSegment: return "cgc-segment";
    case AnchorReason::kCgcSbSpread: return "cgcsb-spread";
  }
  return "unknown";
}

std::string_view hint_name(std::uint8_t hint) {
  // Mirrors sched::Hint (hints.hpp); taken as a raw byte so obs does not
  // depend on the scheduler headers.
  switch (hint) {
    case 0: return "CGC";
    case 1: return "SB";
    case 2: return "CGC=>SB";
  }
  return "?";
}

namespace {

void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

/// Emits one trace_event JSON object.  All sim events are instants ("i",
/// thread scope); names encode kind + detail so the timeline is readable
/// without expanding args.
void append_event(std::string& out, const Event& e, std::uint32_t pid,
                  bool& first) {
  if (!first) out += ",\n";
  first = false;
  std::string name(event_name(e.kind));
  switch (e.kind) {
    case EventKind::kMiss:
      name += ".L" + std::to_string(e.detail);
      break;
    case EventKind::kAnchor:
      name += ".";
      name += anchor_reason_name(static_cast<AnchorReason>(e.detail));
      break;
    case EventKind::kHintDispatch:
      name += ".";
      name += hint_name(e.detail);
      break;
    default:
      break;
  }
  append(out,
         "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%u,\"tid\":%u,"
         "\"ts\":%" PRIu64 ",\"args\":{\"a\":%" PRIu64 ",\"b\":%" PRIu64
         ",\"c\":%" PRIu64 ",\"detail\":%u}}",
         name.c_str(), pid, e.tid, e.ts, e.a, e.b, e.c, unsigned(e.detail));
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer) {
  std::string out;
  out.reserve(1 << 16);
  out += "{\"traceEvents\":[\n";
  bool first = true;
  // Lane-name metadata first so viewers label rows before any event lands.
  for (const auto& [tid, name] : tracer.lane_names()) {
    if (!first) out += ",\n";
    first = false;
    append(out,
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%u,"
           "\"args\":{\"name\":\"%s\"}}",
           tid, name.c_str());
  }
  // Events: ring-major, oldest retained first -- a deterministic order for
  // deterministic producers (the sim layers write only ring 0).
  for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) {
    tracer.ring(r).for_each(
        [&](const Event& e) { append_event(out, e, /*pid=*/0, first); });
  }
  // Counters as one batch of Chrome counter samples at the final timestamp
  // (registry order; values are end-of-run aggregates).
  std::uint64_t ts_end = 0;
  for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) {
    tracer.ring(r).for_each(
        [&](const Event& e) { ts_end = std::max(ts_end, e.ts); });
  }
  tracer.counters().for_each([&](const std::string& n, std::uint64_t v) {
    if (!first) out += ",\n";
    first = false;
    append(out,
           "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":%" PRIu64
           ",\"args\":{\"value\":%" PRIu64 "}}",
           n.c_str(), ts_end, v);
  });
  // Histograms as multi-series counter samples: Chrome/Perfetto plot each
  // arg key as its own series under the histogram's name.
  tracer.counters().for_each_histogram(
      [&](const std::string& n, const Histogram& h) {
        if (!first) out += ",\n";
        first = false;
        append(out,
               "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":%"
               PRIu64 ",\"args\":{\"count\":%" PRIu64 ",\"sum\":%" PRIu64
               ",\"min\":%" PRIu64 ",\"max\":%" PRIu64 ",\"p50\":%" PRIu64
               ",\"p90\":%" PRIu64 ",\"p99\":%" PRIu64 "}}",
               n.c_str(), ts_end, h.count(), h.sum(), h.min(), h.max(),
               h.percentile(50), h.percentile(90), h.percentile(99));
      });
  // otherData keeps the aggregate drop count first (older tooling keys on
  // it), then per-ring pushed/dropped so a truncated stream is diagnosable
  // per producer and machine-checkable by the analyzer.
  append(out, "\n],\"otherData\":{\"dropped_events\":%" PRIu64 ",\"rings\":[",
         tracer.events_dropped());
  for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) {
    append(out, "%s{\"pushed\":%" PRIu64 ",\"dropped\":%" PRIu64 "}",
           r == 0 ? "" : ",", tracer.ring(r).pushed(),
           tracer.ring(r).dropped());
  }
  out += "]}}\n";
  return out;
}

bool write_chrome_trace(const std::string& path, const Tracer& tracer) {
  if (tracer.events_dropped() > 0) {
    std::cerr << "obs: warning: trace is truncated -- flight-recorder rings "
                 "overwrote "
              << tracer.events_dropped() << " events (";
    for (std::uint32_t r = 0; r < tracer.ring_count(); ++r) {
      if (tracer.ring(r).dropped() == 0) continue;
      std::cerr << "ring " << r << ": " << tracer.ring(r).dropped() << "/"
                << tracer.ring(r).pushed() << " ";
    }
    std::cerr << "); span analysis will refuse this trace\n";
  }
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "obs: cannot write trace to " << path << "\n";
    return false;
  }
  const std::string json = chrome_trace_json(tracer);
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  return static_cast<bool>(f);
}

std::string resolve_trace_out(int argc, char** argv,
                              std::string_view fallback) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view kFlag = "--trace-out=";
    if (arg.substr(0, kFlag.size()) == kFlag) {
      return std::string(arg.substr(kFlag.size()));
    }
  }
  if (const char* env = std::getenv("OBLIV_TRACE_OUT");
      env != nullptr && env[0] != '\0') {
    return env;
  }
  return std::string(fallback);
}

}  // namespace obliv::obs
