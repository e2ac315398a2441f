// Span-based wall-clock tracer for the Clara pipeline.
//
// Usage: wrap a phase in an RAII scope —
//
//   void Mapper::map(...) {
//     CLARA_TRACE_SCOPE("mapping/solve");
//     ...
//   }
//
// Scopes nest naturally (per-thread parent stack) and record wall-clock
// spans into the process-wide Tracer. Tracing is off by default: a
// disabled scope is one relaxed atomic load. When enabled, the recorded
// spans export as
//
//   * Chrome trace-event JSON (to_chrome_json) — load the file at
//     chrome://tracing or https://ui.perfetto.dev;
//   * an ASCII flame summary (flame_summary) — per span path: call
//     count, total/self wall time.
//
// Span names follow the "<module>/<phase>" convention used by the
// metrics registry (docs/observability.md).
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace clara::obs {

/// Nanoseconds since the process-wide obs epoch (the first call). Spans
/// and flight-recorder events both read this clock, so a trace and a
/// flight dump of the same run line up on one timeline.
std::int64_t now_ns();

/// Dense process-wide id of the calling thread (0, 1, 2, ... in order of
/// first use). Spans and flight-recorder events both carry it as their
/// Chrome "tid".
std::uint32_t thread_id();

struct TraceSpan {
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  std::string name;
  std::uint32_t tid = 0;     // thread_id() of the recording thread
  std::uint32_t parent = kNoParent;  // index into the tracer's span list
  std::uint32_t depth = 0;
  std::int64_t start_ns = 0;  // now_ns() at open
  std::int64_t dur_ns = -1;   // -1 while the span is still open
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its index. Pair with
  /// end_span on the same thread (TraceScope does this).
  std::size_t begin_span(std::string name);
  void end_span(std::size_t index);

  [[nodiscard]] std::vector<TraceSpan> snapshot() const;
  [[nodiscard]] std::size_t span_count() const;

  /// Chrome trace-event JSON ("X" complete events, ts/dur in us).
  [[nodiscard]] std::string to_chrome_json() const;
  /// ASCII flame summary: one row per distinct span path, sorted by
  /// total time, at most `max_rows` rows.
  [[nodiscard]] std::string flame_summary(std::size_t max_rows = 24) const;

  /// Drops all recorded spans (open scopes on other threads must not be
  /// live — call between pipeline runs, as the tests do).
  void clear();

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
};

/// Process-wide tracer used by the CLARA_TRACE_SCOPE instrumentation.
Tracer& tracer();

class TraceScope {
 public:
  explicit TraceScope(const char* name) {
    if (tracer().enabled()) {
      index_ = tracer().begin_span(name);
      armed_ = true;
    }
  }
  ~TraceScope() {
    if (armed_) tracer().end_span(index_);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::size_t index_ = 0;
  bool armed_ = false;
};

/// Escapes a string for embedding in a JSON string literal (shared by
/// the trace and metrics exporters).
std::string json_escape(const std::string& s);

/// One Chrome trace-event record. Shared by the span tracer and the
/// flight recorder so both layers export through the exact same
/// serializer (and the same schema guarantees: ts/dur in non-negative
/// microseconds, pid fixed at 1, dense tids).
struct ChromeEvent {
  std::string name;
  char ph = 'X';             // 'X' complete, 'i' instant
  std::uint32_t tid = 0;
  double ts_us = 0.0;
  double dur_us = 0.0;       // 'X' only
  std::string args_json;     // raw body of the args object ("\"k\":1"), may be empty
};

/// Serializes events into the Chrome trace-event JSON envelope
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}). `extra_json`, when
/// non-empty, is spliced into the top-level object verbatim (used by the
/// flight recorder to stamp the dump reason).
std::string chrome_trace_json(const std::vector<ChromeEvent>& events,
                              const std::string& extra_json = {});

#define CLARA_OBS_CONCAT_IMPL(a, b) a##b
#define CLARA_OBS_CONCAT(a, b) CLARA_OBS_CONCAT_IMPL(a, b)
#define CLARA_TRACE_SCOPE(name) \
  ::clara::obs::TraceScope CLARA_OBS_CONCAT(clara_trace_scope_, __LINE__)(name)

}  // namespace clara::obs
