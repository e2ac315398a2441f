// The analysis service — one entry point behind every front end.
//
// Service::handle() turns a core::Request into a core::Response: it
// resolves the NF (corpus name or inline CIR), the LNIC profile, and
// the workload, runs the Analyzer, and fills the response with the
// deterministic analysis summary. The built-in profiles and their
// Analyzers are built once per Service; a spec workload resolves
// through the analysis cache's summary stage, so a warm request
// generates no trace (a warm validate replays the last validate trace
// the service kept, and a trace file is read and summarized afresh on
// every request). The CLI
// calls handle() in-process; the daemon (serve/daemon) calls it from
// pool tasks, one per request line, so the Service must be safe to call
// concurrently — it keeps no per-request mutable state and never
// touches process-global knobs (fault plans apply per-request to a copy
// of the profile via fault::apply_to_profile).
//
// Admission control: a counting gate bounds concurrently-executing
// requests; beyond max_inflight, handle() immediately answers with
// ErrorCode::kOverloaded instead of queueing — the client retries, the
// server never builds an unbounded backlog.
//
// Observability: serve/requests and serve/errors counters (labelled by
// kind / error code), serve/rejected, and a serve/latency_us histogram
// per kind, all through obs::metrics() — visible in every exposition
// format including Prometheus.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>

#include "core/clara.hpp"
#include "core/request.hpp"

namespace clara::serve {

/// Counting admission gate: try_acquire() fails once `limit` holders
/// exist (limit 0 = unlimited). Shared by every connection of a daemon.
class InflightGate {
 public:
  explicit InflightGate(std::size_t limit) : limit_(limit) {}

  bool try_acquire() {
    if (limit_ == 0) return true;
    std::size_t current = inflight_.load(std::memory_order_relaxed);
    while (current < limit_) {
      if (inflight_.compare_exchange_weak(current, current + 1, std::memory_order_acquire)) {
        return true;
      }
    }
    return false;
  }

  void release() {
    if (limit_ != 0) inflight_.fetch_sub(1, std::memory_order_release);
  }

  [[nodiscard]] std::size_t inflight() const {
    return inflight_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::size_t> inflight_{0};
  std::size_t limit_;
};

struct ServiceOptions {
  /// Concurrently-executing request cap (0 = unlimited). Requests
  /// beyond it are rejected with kOverloaded, never queued.
  std::size_t max_inflight = 64;
  /// Backoff hint stamped on every kOverloaded rejection
  /// (Response::retry_after_ms); 0 = no hint.
  double retry_after_ms = 5.0;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});

  /// Handles one request synchronously on the calling thread. Never
  /// throws; every failure (including overload rejection) is an
  /// ok=false Response with a typed error code. Identical requests
  /// yield byte-identical response payloads at every jobs level.
  core::Response handle(const core::Request& request);

  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  core::Response dispatch(const core::Request& request) const;

  ServiceOptions options_;
  InflightGate gate_;
  // One per built-in NIC profile. A deque never moves what it holds, and
  // an Analyzer cannot move.
  std::deque<core::Analyzer> analyzers_;
};

}  // namespace clara::serve
