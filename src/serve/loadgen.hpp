// Serve load generator — `clara bench serve` and perf_micro's serve
// section.
//
// Hammers a clarad endpoint with a deterministic mix of analyze /
// sweep / repair / validate requests over many concurrent connections
// and reports client-observed latency percentiles. With no --connect
// target it spawns its own in-process daemon on a temporary socket,
// which additionally lets it measure what an external client cannot:
// the analysis cache hit rates and ILP solve counts of the cold
// (first-touch) pass versus the warm hammering phase — the numbers that
// prove a warm daemon answers repeated analyses without re-solving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "core/request.hpp"

namespace clara::serve {

struct LoadGenOptions {
  /// Socket of an already-running daemon; empty = spawn one in-process.
  std::string connect;
  /// Socket path for the spawned daemon (empty = derive from pid).
  std::string socket_path;
  /// Total warm-phase requests across all connections.
  std::size_t requests = 1200;
  std::size_t connections = 16;
  /// Admission cap for the spawned daemon.
  std::size_t max_inflight = 256;
  /// Chaos mode: arm the serve fault sites (torn writes, connection
  /// resets, accept failures, slow reads) with a default seeded plan
  /// unless one is already installed, run the in-process daemon with a
  /// read deadline, and assert the client retry loop absorbs every
  /// injected fault — the contract is one well-formed response or one
  /// typed client error per request, zero silent drops.
  bool chaos = false;
};

struct LoadGenReport {
  std::size_t requests = 0;   // warm-phase requests attempted
  std::size_t ok = 0;         // ok=true responses
  std::size_t failed = 0;     // ok=false responses (overloaded included)
  std::size_t overloaded = 0; // subset of failed with kOverloaded
  /// Requests whose retries were exhausted by transport errors — they
  /// still ended in a typed client error, never a hang.
  std::size_t client_errors = 0;
  /// Requests with no outcome at all (no response, no typed error).
  /// Must stay zero — a nonzero value means a request was silently
  /// dropped, which the chaos gate treats as failure.
  std::size_t dropped_requests = 0;
  /// Extra attempts the client retry loop spent absorbing faults and
  /// overload rejections (serve_retries in BENCH_perf.json).
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  /// Connections that could not be established or died mid-run. The
  /// `clara bench serve` acceptance bar is zero.
  std::size_t dropped_connections = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  /// In-process daemon only (zero when hammering an external server):
  /// analysis-cache hit rate and ILP solves during each phase.
  bool in_process = false;
  double cold_hit_rate = 0.0;
  double warm_hit_rate = 0.0;
  std::uint64_t cold_ilp_solves = 0;
  std::uint64_t warm_ilp_solves = 0;

  [[nodiscard]] std::string render() const;
};

/// The deterministic request mix: small workloads (2k packets), four
/// distinct analyses plus one sweep, one repair, and one validate, so
/// the daemon exercises every endpoint under load while staying fast
/// enough to hammer by the thousand once the cache is warm.
std::vector<core::Request> build_mix();

/// Runs the generator. Errors only on setup failure (cannot spawn or
/// reach the daemon); per-request failures land in the report.
Result<LoadGenReport> run_loadgen(const LoadGenOptions& options);

}  // namespace clara::serve
