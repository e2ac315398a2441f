#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace clara::obs {

namespace {

/// Per-thread stack of open span indices (parent tracking).
std::vector<std::size_t>& open_stack() {
  thread_local std::vector<std::size_t> stack;
  return stack;
}

}  // namespace

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - epoch).count();
}

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::size_t Tracer::begin_span(std::string name) {
  auto& stack = open_stack();
  TraceSpan span;
  span.name = std::move(name);
  span.tid = thread_id();
  span.depth = static_cast<std::uint32_t>(stack.size());
  span.start_ns = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  span.parent =
      stack.empty() ? TraceSpan::kNoParent : static_cast<std::uint32_t>(stack.back());
  const std::size_t index = spans_.size();
  spans_.push_back(std::move(span));
  stack.push_back(index);
  return index;
}

void Tracer::end_span(std::size_t index) {
  const std::int64_t end_ns = now_ns();
  auto& stack = open_stack();
  // RAII scopes unwind in LIFO order; tolerate a mismatched index (e.g.
  // clear() raced an open scope) by searching.
  if (!stack.empty() && stack.back() == index) {
    stack.pop_back();
  } else {
    const auto it = std::find(stack.rbegin(), stack.rend(), index);
    if (it != stack.rend()) stack.erase(std::next(it).base());
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (index >= spans_.size()) return;  // cleared while open
  spans_[index].dur_ns = std::max<std::int64_t>(0, end_ns - spans_[index].start_ns);
}

std::vector<TraceSpan> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::string chrome_trace_json(const std::vector<ChromeEvent>& events,
                              const std::string& extra_json) {
  std::ostringstream os;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& event : events) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << json_escape(event.name) << "\",\"ph\":\"" << event.ph
       << "\",\"cat\":\"clara\",\"pid\":1,\"tid\":" << event.tid
       << strf(",\"ts\":%.3f", std::max(0.0, event.ts_us));
    if (event.ph == 'X') os << strf(",\"dur\":%.3f", std::max(0.0, event.dur_us));
    if (event.ph == 'i') os << ",\"s\":\"t\"";  // thread-scoped instant
    if (!event.args_json.empty()) os << ",\"args\":{" << event.args_json << "}";
    os << "}";
  }
  os << "]";
  if (!extra_json.empty()) os << "," << extra_json;
  os << ",\"displayTimeUnit\":\"ms\"}";
  return os.str();
}

std::string Tracer::to_chrome_json() const {
  const auto spans = snapshot();
  std::vector<ChromeEvent> events;
  events.reserve(spans.size());
  for (const auto& span : spans) {
    if (span.dur_ns < 0) continue;  // still open — not exportable
    ChromeEvent event;
    event.name = span.name;
    event.ph = 'X';
    event.tid = span.tid;
    event.ts_us = static_cast<double>(span.start_ns) / 1e3;
    event.dur_us = static_cast<double>(span.dur_ns) / 1e3;
    event.args_json = strf("\"depth\":%u", span.depth);
    events.push_back(std::move(event));
  }
  return chrome_trace_json(events);
}

std::string Tracer::flame_summary(std::size_t max_rows) const {
  const auto spans = snapshot();

  // Full path per span ("parent > child"), plus per-span child time for
  // the self-time column.
  std::vector<std::string> paths(spans.size());
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    paths[i] = spans[i].parent == TraceSpan::kNoParent
                   ? spans[i].name
                   : paths[spans[i].parent] + " > " + spans[i].name;
    if (spans[i].parent != TraceSpan::kNoParent && spans[i].dur_ns > 0) {
      child_ns[spans[i].parent] += spans[i].dur_ns;
    }
  }

  struct Row {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
    std::uint32_t depth = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].dur_ns < 0) continue;
    Row& row = rows[paths[i]];
    ++row.count;
    row.total_ns += spans[i].dur_ns;
    row.self_ns += std::max<std::int64_t>(0, spans[i].dur_ns - child_ns[i]);
    row.depth = spans[i].depth;
  }

  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  if (sorted.size() > max_rows) sorted.resize(max_rows);

  TextTable table({"span", "count", "total ms", "self ms", "mean us"});
  for (const auto& [path, row] : sorted) {
    table.add_row({std::string(2 * row.depth, ' ') + path, strf("%llu", (unsigned long long)row.count),
                   strf("%.3f", static_cast<double>(row.total_ns) / 1e6),
                   strf("%.3f", static_cast<double>(row.self_ns) / 1e6),
                   strf("%.1f", static_cast<double>(row.total_ns) / 1e3 /
                                    static_cast<double>(row.count))});
  }
  return table.render();
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace clara::obs
