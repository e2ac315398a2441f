// Flight recorder — always-on, lock-free, per-thread event rings.
//
// Metrics say *how much*, traces say *where time went when tracing was
// switched on*; the flight recorder answers "what just happened" after
// the fact. Every thread that records gets a fixed-size ring buffer of
// timestamped events (task start/stop, steals, queue overflows, solver
// wave barriers, analysis-cache hits/misses, fault fires). Recording is
// a handful of relaxed atomic stores into the calling thread's own ring
// — no locks, no allocation after the first event — so it stays enabled
// in production. The rings keep the most recent kRingCapacity events per
// thread; older ones are overwritten.
//
// The recorder dumps automatically (once per process, to
// $CLARA_FLIGHT_DIR or the working directory) when something goes
// wrong: an analysis fails, a solver deadline expires, or a fault/
// injection site fires. Dumps are Chrome trace-event JSON produced by
// the same exporter as the span tracer (obs/trace), so
// chrome://tracing and ui.perfetto.dev open them directly.
//
// Event schema: docs/observability.md.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace clara::obs {

enum class FlightEventKind : std::uint8_t {
  kTaskStart = 0,      // pool task body begins; a = lane
  kTaskStop = 1,       // pool task body ends; a = lane, b = duration ns
  kSteal = 2,          // successful deque steal; a = thief lane, b = victim
  kQueueOverflow = 3,  // worker deque full, task spilled to injector; a = lane
  kWaveEnter = 4,      // B&B wave relaxations start; a = wave index, b = width
  kWaveExit = 5,       // B&B wave relaxations done; a = wave index, b = wall ns
  kCacheHit = 6,       // analysis-cache hit; a = stage ordinal, b = key digest
  kCacheMiss = 7,      // analysis-cache miss; a = stage ordinal, b = key digest
  kFaultFire = 8,      // fault/ injection site fired; a = site hash, b = key
  kMark = 9,           // free-form caller marker
};

const char* to_string(FlightEventKind kind);

/// One recorded event, as read back by snapshot(). `tid` is the
/// recording thread's obs::thread_id(), the Chrome export's tid field
/// and the same id the span tracer gives that thread.
struct FlightEvent {
  std::int64_t ts_ns = 0;  // obs::now_ns() when recorded
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t tid = 0;
  FlightEventKind kind = FlightEventKind::kMark;
};

class FlightRecorder {
 public:
  static constexpr std::size_t kRingCapacity = 1 << 12;  // events kept per thread

  FlightRecorder();
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Recording toggle. Enabled by default; a disabled record() is one
  /// relaxed atomic load.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Appends an event to the calling thread's ring (registering the ring
  /// on first use). Lock-free after registration; overwrites the oldest
  /// event once the ring is full.
  void record(FlightEventKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

  /// Best-effort copy of every ring's surviving events, oldest first.
  /// Events being overwritten concurrently are skipped, never torn.
  [[nodiscard]] std::vector<FlightEvent> snapshot() const;

  /// Total events ever recorded (including overwritten ones).
  [[nodiscard]] std::uint64_t total_recorded() const;

  /// Logically drops all recorded events (snapshot/export see only
  /// events recorded afterwards). Rings and thread registrations stay.
  void clear();

  /// Chrome trace-event JSON via the shared obs/trace exporter:
  /// task start/stop pairs become complete ("X") spans named
  /// "flight/task", everything else thread-scoped instant events named
  /// "flight/<kind>".
  [[nodiscard]] std::string to_chrome_json(const std::string& reason = {}) const;

  /// Writes to_chrome_json(reason) to `path`. False on I/O failure.
  bool dump_to_file(const std::string& path, const std::string& reason) const;

  /// Directory for automatic dumps; empty = $CLARA_FLIGHT_DIR, else ".".
  void set_dump_dir(std::string dir);

  /// The failure hook: dumps the rings to
  /// "<dir>/clara_flight_<reason>.json" the *first* time it is called
  /// (later calls are no-ops until reset_auto_dump(), so one failing run
  /// produces one dump, not thousands). Returns the path written, or
  /// empty when throttled/disabled/unwritable.
  std::string auto_dump(const std::string& reason);

  /// Re-arms auto_dump and forgets the last dump path (tests).
  void reset_auto_dump();
  [[nodiscard]] std::string last_dump_path() const;

 private:
  struct Ring;
  Ring* ring_for_this_thread();

  std::atomic<bool> enabled_{true};
  std::atomic<bool> auto_dumped_{false};
  std::atomic<std::int64_t> epoch_ns_{0};  // clear() raises this watermark
  const std::uint64_t instance_id_;

  mutable std::mutex mu_;  // guards rings_/dump bookkeeping, not recording
  std::vector<std::unique_ptr<Ring>> rings_;
  std::string dump_dir_;
  std::string last_dump_path_;
};

/// Process-wide recorder used by the built-in instrumentation. First use
/// also installs the pool event hook (common/parallel) so scheduler
/// events flow in.
FlightRecorder& recorder();

/// Convenience: recorder().record(...) on the process-wide instance.
void record(FlightEventKind kind, std::uint64_t a = 0, std::uint64_t b = 0);

}  // namespace clara::obs
