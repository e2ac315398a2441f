#include "serve/loadgen.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include <optional>

#include "common/strings.hpp"
#include "core/cache.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"

namespace clara::serve {

std::vector<core::Request> build_mix() {
  std::vector<core::Request> mix;
  const char* kWorkload = "tcp=0.8 flows=2000 payload=300 pps=60000 packets=2000 seed=42";
  for (const char* nf : {"lpm", "nat", "rewrite", "meter"}) {
    core::Request request;
    request.kind = core::RequestKind::kAnalyze;
    request.nf = nf;
    request.workload = kWorkload;
    mix.push_back(std::move(request));
  }
  {
    core::Request request;
    request.kind = core::RequestKind::kSweep;
    request.nf = "nat";
    request.workload = kWorkload;
    request.sweep_pps = {40'000.0, 80'000.0};
    mix.push_back(std::move(request));
  }
  {
    core::Request request;
    request.kind = core::RequestKind::kRepair;
    request.nf = "nat";
    request.workload = kWorkload;
    request.fault_plan = "fail-unit csum\n";
    mix.push_back(std::move(request));
  }
  {
    core::Request request;
    request.kind = core::RequestKind::kValidate;
    request.nf = "rewrite";
    request.workload = kWorkload;
    mix.push_back(std::move(request));
  }
  return mix;
}

namespace {

using Clock = std::chrono::steady_clock;

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted.size());
  std::size_t index = static_cast<std::size_t>(std::ceil(rank));
  if (index > 0) --index;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

double hit_rate(const core::CacheStats& before, const core::CacheStats& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  const double total = hits + misses;
  return total > 0.0 ? hits / total : 0.0;
}

struct WorkerTally {
  std::vector<double> latencies_us;
  std::size_t ok = 0;
  std::size_t failed = 0;
  std::size_t overloaded = 0;
  std::size_t client_errors = 0;
  std::size_t dropped_requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  bool dropped = false;
};

/// The default chaos plan armed by --chaos when no --fault-plan is
/// installed: all four serve sites, seeded, with a slow-read stall
/// (factor=, ms) comfortably past the daemon's read deadline. every=N
/// keys on the FNV digest of the wire id (uniform), so roughly 1/N of
/// requests hit each site — deterministically, per id.
constexpr const char* kDefaultChaosPlan =
    "seed 42\n"
    "site serve/torn_write every=5\n"
    "site serve/conn_reset every=37\n"
    "site serve/accept_fail every=6\n"
    "site serve/slow_read every=53 factor=250\n";

/// Read deadline of the in-process chaos daemon; the slow_read stall
/// above must exceed it so the injected stall actually trips it.
constexpr double kChaosReadDeadlineMs = 100.0;

}  // namespace

std::string LoadGenReport::render() const {
  std::string out;
  out += strf("serve loadgen: %zu requests, %zu ok, %zu failed (%zu overloaded), "
              "%zu client error(s), %zu silently dropped request(s), "
              "%zu dropped connection(s)\n",
              requests, ok, failed, overloaded, client_errors, dropped_requests,
              dropped_connections);
  out += strf("client retry loop: %llu retries, %llu reconnects\n",
              (unsigned long long)retries, (unsigned long long)reconnects);
  out += strf("latency (client-observed): p50 %.0f us, p99 %.0f us, p99.9 %.0f us\n", p50_us,
              p99_us, p999_us);
  if (in_process) {
    out += strf("analysis cache: cold hit rate %.2f (%llu ILP solves), warm hit rate %.2f "
                "(%llu ILP solves)\n",
                cold_hit_rate, (unsigned long long)cold_ilp_solves, warm_hit_rate,
                (unsigned long long)warm_ilp_solves);
  }
  return out;
}

Result<LoadGenReport> run_loadgen(const LoadGenOptions& options) {
  LoadGenReport report;
  // Chaos: arm the serve fault sites process-wide for the duration of
  // the run (restored on exit), unless the caller already installed a
  // plan via --fault-plan.
  std::optional<fault::ScopedPlan> chaos_plan;
  if (options.chaos && !fault::active()) {
    auto plan = fault::FaultPlan::parse(kDefaultChaosPlan);
    if (!plan) return plan.error();
    chaos_plan.emplace(std::move(plan).value());
  }
  std::unique_ptr<Daemon> daemon;
  std::string endpoint = options.connect;
  if (endpoint.empty()) {
    report.in_process = true;
    DaemonOptions daemon_options;
    daemon_options.socket_path = options.socket_path.empty()
                                     ? strf("/tmp/clara-serve-%d.sock", (int)::getpid())
                                     : options.socket_path;
    daemon_options.max_inflight = options.max_inflight;
    if (options.chaos) daemon_options.read_deadline_ms = kChaosReadDeadlineMs;
    daemon = std::make_unique<Daemon>(daemon_options);
    if (auto status = daemon->start(); !status) return status.error();
    endpoint = daemon->socket_path();
  }
  // Hang-guards: under chaos every socket operation gets a timeout so an
  // injected fault can never wedge the gate; transport errors surface as
  // typed client errors through the retry loop instead.
  const ClientOptions client_options =
      options.chaos ? ClientOptions{5000.0, 5000.0, 10000.0} : ClientOptions{};
  const RetryOptions retry_options{};

  const std::vector<core::Request> mix = build_mix();
  auto& solves = obs::metrics().counter("ilp/solves");

  // Cold pass: one client touches every distinct request once, so the
  // warm phase below measures the steady state of a long-lived daemon.
  {
    const auto stats_before = core::analysis_cache().stats();
    const std::uint64_t solves_before = solves.value();
    auto client = Client::connect(endpoint, client_options);
    if (!client) return client.error();
    for (std::size_t i = 0; i < mix.size(); ++i) {
      core::Request request = mix[i];
      request.id = strf("cold-%zu", i);
      RetryStats stats;
      auto response = client.value().call_with_retry(request, retry_options, &stats);
      report.retries += stats.retries;
      report.reconnects += stats.reconnects;
      if (!response) {
        // Even the cold pass tolerates exhausted retries under chaos;
        // without a plan armed this is a hard setup failure as before.
        if (!options.chaos) return response.error();
        ++report.client_errors;
      }
    }
    if (report.in_process) {
      report.cold_hit_rate = hit_rate(stats_before, core::analysis_cache().stats());
      report.cold_ilp_solves = solves.value() - solves_before;
    }
  }

  // Warm phase: `connections` concurrent clients round-robin the mix.
  const auto warm_stats_before = core::analysis_cache().stats();
  const std::uint64_t warm_solves_before = solves.value();
  const std::size_t connections = std::max<std::size_t>(1, options.connections);
  std::vector<WorkerTally> tallies(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (std::size_t w = 0; w < connections; ++w) {
    const std::size_t begin = options.requests * w / connections;
    const std::size_t end = options.requests * (w + 1) / connections;
    workers.emplace_back([&, w, begin, end] {
      WorkerTally& tally = tallies[w];
      auto client = Client::connect(endpoint, client_options);
      if (!client) {
        tally.dropped = true;
        tally.dropped_requests = end - begin;
        return;
      }
      for (std::size_t i = begin; i < end; ++i) {
        core::Request request = mix[i % mix.size()];
        request.id = strf("warm-%zu", i);
        const auto t0 = Clock::now();
        RetryStats stats;
        auto response = client.value().call_with_retry(request, retry_options, &stats);
        tally.retries += stats.retries;
        tally.reconnects += stats.reconnects;
        if (!response) {
          // Retries exhausted: a typed client error, not a silent drop —
          // the connection is already re-established lazily on the next
          // request by the retry loop, so the worker keeps going.
          ++tally.client_errors;
          continue;
        }
        tally.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0).count());
        if (response.value().ok) {
          ++tally.ok;
        } else {
          ++tally.failed;
          if (response.value().error_code == ErrorCode::kOverloaded) ++tally.overloaded;
        }
      }
    });
  }
  for (auto& worker : workers) worker.join();

  std::vector<double> latencies;
  for (const auto& tally : tallies) {
    report.ok += tally.ok;
    report.failed += tally.failed;
    report.overloaded += tally.overloaded;
    report.client_errors += tally.client_errors;
    report.dropped_requests += tally.dropped_requests;
    report.retries += tally.retries;
    report.reconnects += tally.reconnects;
    if (tally.dropped) ++report.dropped_connections;
    latencies.insert(latencies.end(), tally.latencies_us.begin(), tally.latencies_us.end());
  }
  report.requests = options.requests;
  std::sort(latencies.begin(), latencies.end());
  report.p50_us = percentile(latencies, 0.50);
  report.p99_us = percentile(latencies, 0.99);
  report.p999_us = percentile(latencies, 0.999);
  if (report.in_process) {
    report.warm_hit_rate = hit_rate(warm_stats_before, core::analysis_cache().stats());
    report.warm_ilp_solves = solves.value() - warm_solves_before;
  }
  if (daemon) daemon->stop();
  return report;
}

}  // namespace clara::serve
