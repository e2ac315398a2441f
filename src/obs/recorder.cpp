#include "obs/recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "obs/trace.hpp"

namespace clara::obs {

namespace {

std::atomic<std::uint64_t> g_next_instance_id{1};

std::string sanitize_reason(const std::string& reason) {
  std::string out;
  out.reserve(reason.size());
  for (const char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '-' || c == '_';
    out += ok ? c : '_';
  }
  return out.empty() ? std::string("dump") : out;
}

}  // namespace

const char* to_string(FlightEventKind kind) {
  switch (kind) {
    case FlightEventKind::kTaskStart: return "task_start";
    case FlightEventKind::kTaskStop: return "task_stop";
    case FlightEventKind::kSteal: return "steal";
    case FlightEventKind::kQueueOverflow: return "queue_overflow";
    case FlightEventKind::kWaveEnter: return "wave_enter";
    case FlightEventKind::kWaveExit: return "wave_exit";
    case FlightEventKind::kCacheHit: return "cache_hit";
    case FlightEventKind::kCacheMiss: return "cache_miss";
    case FlightEventKind::kFaultFire: return "fault_fire";
    case FlightEventKind::kMark: return "mark";
  }
  return "unknown";
}

/// One thread's ring. Every slot field is an atomic so concurrent
/// snapshot reads of a slot being overwritten are races on values, never
/// on memory: `seq` (index+1 when the slot is fully written, 0 while
/// in-flight) is checked on both sides of the field reads, so a torn
/// slot is skipped instead of surfaced.
struct FlightRecorder::Ring {
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::int64_t> ts_ns{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint8_t> kind{0};
  };

  explicit Ring(std::uint32_t id) : tid(id) {}

  const std::uint32_t tid;
  std::atomic<std::uint64_t> head{0};
  std::array<Slot, kRingCapacity> slots;
};

FlightRecorder::FlightRecorder()
    : instance_id_(g_next_instance_id.fetch_add(1, std::memory_order_relaxed)) {}

FlightRecorder::~FlightRecorder() = default;

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() {
  // Instance ids are never reused, so a stale cache entry for a
  // destroyed recorder can never match a live one.
  struct CacheEntry {
    std::uint64_t instance_id;
    Ring* ring;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const auto& entry : cache) {
    if (entry.instance_id == instance_id_) return entry.ring;
  }
  std::lock_guard<std::mutex> lock(mu_);
  rings_.push_back(std::make_unique<Ring>(thread_id()));
  Ring* ring = rings_.back().get();
  cache.push_back({instance_id_, ring});
  return ring;
}

void FlightRecorder::record(FlightEventKind kind, std::uint64_t a, std::uint64_t b) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = ring_for_this_thread();
  const std::uint64_t i = ring->head.load(std::memory_order_relaxed);  // owner-only counter
  Ring::Slot& slot = ring->slots[i & (kRingCapacity - 1)];
  slot.seq.store(0, std::memory_order_release);  // invalidate for concurrent readers
  slot.ts_ns.store(now_ns(), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.seq.store(i + 1, std::memory_order_release);
  ring->head.store(i + 1, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t epoch = epoch_ns_.load(std::memory_order_acquire);
  std::vector<FlightEvent> out;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t begin = head > kRingCapacity ? head - kRingCapacity : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      const Ring::Slot& slot = ring->slots[i & (kRingCapacity - 1)];
      if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;
      FlightEvent event;
      event.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      event.a = slot.a.load(std::memory_order_relaxed);
      event.b = slot.b.load(std::memory_order_relaxed);
      event.kind = static_cast<FlightEventKind>(slot.kind.load(std::memory_order_relaxed));
      event.tid = ring->tid;
      if (slot.seq.load(std::memory_order_acquire) != i + 1) continue;  // overwritten mid-read
      if (event.ts_ns < epoch) continue;                                // cleared
      out.push_back(event);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) { return x.ts_ns < y.ts_ns; });
  return out;
}

std::uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->head.load(std::memory_order_relaxed);
  return total;
}

void FlightRecorder::clear() { epoch_ns_.store(now_ns(), std::memory_order_release); }

std::string FlightRecorder::to_chrome_json(const std::string& reason) const {
  const auto events = snapshot();
  std::vector<ChromeEvent> chrome;
  chrome.reserve(events.size());
  // Pair task_start/task_stop per recorder thread into complete spans;
  // everything else (and unpaired starts) exports as instant events.
  std::vector<std::vector<const FlightEvent*>> open_starts;
  for (const auto& event : events) {
    if (event.tid >= open_starts.size()) open_starts.resize(event.tid + 1);
    if (event.kind == FlightEventKind::kTaskStart) {
      open_starts[event.tid].push_back(&event);
      continue;
    }
    if (event.kind == FlightEventKind::kTaskStop && !open_starts[event.tid].empty()) {
      const FlightEvent* start = open_starts[event.tid].back();
      open_starts[event.tid].pop_back();
      ChromeEvent span;
      span.name = "flight/task";
      span.ph = 'X';
      span.tid = event.tid;
      span.ts_us = static_cast<double>(start->ts_ns) / 1e3;
      span.dur_us = static_cast<double>(std::max<std::int64_t>(0, event.ts_ns - start->ts_ns)) / 1e3;
      span.args_json = strf("\"lane\":%llu,\"body_ns\":%llu",
                            static_cast<unsigned long long>(event.a),
                            static_cast<unsigned long long>(event.b));
      chrome.push_back(std::move(span));
      continue;
    }
    ChromeEvent instant;
    instant.name = std::string("flight/") + to_string(event.kind);
    instant.ph = 'i';
    instant.tid = event.tid;
    instant.ts_us = static_cast<double>(event.ts_ns) / 1e3;
    instant.args_json = strf("\"a\":%llu,\"b\":%llu", static_cast<unsigned long long>(event.a),
                             static_cast<unsigned long long>(event.b));
    chrome.push_back(std::move(instant));
  }
  for (const auto& stack : open_starts) {
    for (const FlightEvent* start : stack) {
      ChromeEvent instant;
      instant.name = "flight/task_start";
      instant.ph = 'i';
      instant.tid = start->tid;
      instant.ts_us = static_cast<double>(start->ts_ns) / 1e3;
      chrome.push_back(std::move(instant));
    }
  }
  std::string extra;
  if (!reason.empty()) {
    extra = strf("\"clara_flight\":{\"reason\":\"%s\",\"events\":%zu}",
                 json_escape(reason).c_str(), events.size());
  }
  return chrome_trace_json(chrome, extra);
}

bool FlightRecorder::dump_to_file(const std::string& path, const std::string& reason) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << to_chrome_json(reason.empty() ? std::string("manual") : reason);
  return static_cast<bool>(out);
}

void FlightRecorder::set_dump_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(mu_);
  dump_dir_ = std::move(dir);
}

std::string FlightRecorder::auto_dump(const std::string& reason) {
  if (!enabled()) return {};
  if (auto_dumped_.exchange(true, std::memory_order_acq_rel)) return {};  // once per process
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dir = dump_dir_;
  }
  if (dir.empty()) {
    if (const char* env = std::getenv("CLARA_FLIGHT_DIR")) dir = env;
  }
  if (dir.empty()) dir = ".";
  const std::string path = dir + "/clara_flight_" + sanitize_reason(reason) + ".json";
  if (!dump_to_file(path, reason)) return {};
  {
    std::lock_guard<std::mutex> lock(mu_);
    last_dump_path_ = path;
  }
  std::fprintf(stderr, "flight recorder: dumped to %s (reason: %s)\n", path.c_str(),
               reason.c_str());
  return path;
}

void FlightRecorder::reset_auto_dump() {
  auto_dumped_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(mu_);
  last_dump_path_.clear();
}

std::string FlightRecorder::last_dump_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_dump_path_;
}

namespace {

void pool_event_hook(parallel::PoolEvent event, std::uint64_t lane, std::uint64_t arg) {
  switch (event) {
    case parallel::PoolEvent::kTaskStart: record(FlightEventKind::kTaskStart, lane, arg); break;
    case parallel::PoolEvent::kTaskStop: record(FlightEventKind::kTaskStop, lane, arg); break;
    case parallel::PoolEvent::kSteal: record(FlightEventKind::kSteal, lane, arg); break;
    case parallel::PoolEvent::kQueueOverflow:
      record(FlightEventKind::kQueueOverflow, lane, arg);
      break;
  }
}

}  // namespace

FlightRecorder& recorder() {
  // Leaked deliberately: worker threads may still record during static
  // destruction. The pool hook is installed exactly once, after the
  // instance is fully constructed.
  static FlightRecorder* instance = [] {
    auto* r = new FlightRecorder();
    parallel::set_pool_event_hook(&pool_event_hook);
    return r;
  }();
  return *instance;
}

void record(FlightEventKind kind, std::uint64_t a, std::uint64_t b) {
  recorder().record(kind, a, b);
}

}  // namespace clara::obs
