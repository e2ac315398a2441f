// perfbench_harness — client of the clarad end-to-end benchmark, and the
// daemon's host for its traced runs. perfbench/run.py builds and runs it.
//
//   perfbench_harness --socket=<path> --templates=<file> --seed=<n>
//                     --seconds=<s> --connections=<n> --jobs=<n>
//                     [--unique] [--serve]
//
// Each line of <file> is one clara-serve/1 request whose workload spec
// leaves out the trace seed. The harness appends a seed drawn from --seed:
// one per template, or with --unique a fresh one per request, so that no
// two requests share a cache key. It primes the daemon with one pass over
// the templates on one connection, then measures two closed-loop phases of
// --seconds/2 each (0 = prime only). In both, every client sends its next
// request as soon as the previous answer arrives, cycling through the
// templates in a seeded order:
//   idle    one client, so each request has the daemon to itself: the
//           round trip of a lone caller;
//   loaded  --connections clients, more than the daemon has pool workers,
//           so requests queue: the rate the daemon sustains when saturated.
//
// Checks: every response is ok, echoes its request's id and kind, and
// carries a plausible prediction; repeats of one request answer
// byte-identically; and after the phases the primed responses (plus, with
// --unique, each phase's first answer per template) are compared byte for
// byte with an in-process, cache-bypassing recompute through serve::Service.
//
// --serve hosts the daemon in this process (serve::Daemon, the engine
// clarad wraps) and reports per-layer numbers from Clara's own spans and
// counters, taken over the timed phases only: the pipeline split of the
// idle phase with the span tracer on, and Service::handle time and the
// wait outside it under load, with the tracer off. --jobs sets the pool
// size of whatever runs in-process.
//
// Prints one JSON object on stdout; diagnostics go to stderr.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/request.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/service.hpp"

namespace {

using namespace clara;
using Clock = std::chrono::steady_clock;
using Layers = std::vector<std::pair<std::string, double>>;

struct Options {
  std::string socket;
  std::string templates;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  std::size_t connections = 1;
  std::size_t jobs = 1;
  bool unique = false;
  bool serve = false;
};

/// One request and the daemon's answer, re-serialized.
struct Exchange {
  core::Request request;
  std::string response;
};

/// What one client, a phase, or the prime pass observed.
struct Tally {
  std::vector<double> latencies_ms;  // successful requests only
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;  // the first few failures
  std::vector<Exchange> first;      // --unique: a phase's first answer per template

  void fail(std::string message) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(message));
  }
  void merge(Tally&& other) {
    latencies_ms.insert(latencies_ms.end(), other.latencies_ms.begin(), other.latencies_ms.end());
    attempted += other.attempted;
    failed += other.failed;
    for (auto& e : other.errors) {
      if (errors.size() < 8) errors.push_back(std::move(e));
    }
    for (auto& x : other.first) first.push_back(std::move(x));
  }
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) / static_cast<double>(values.size());
}

/// Trace seed of one request: a pure function of the run seed, the
/// template, and the (client slot, round) pair — (0, 0) for primed and
/// repeated requests — so a seed always regenerates the same stream.
/// 40 bits keep it inside the workload-spec parser's integer range.
std::uint64_t trace_seed(std::uint64_t seed, std::uint64_t tmpl, std::uint64_t slot,
                         std::uint64_t round) {
  return Fnv1a().mix(seed).mix(tmpl).mix(slot).mix(round).digest() >> 24;
}

core::Request instantiate(const std::vector<core::Request>& templates, std::size_t tmpl,
                          std::uint64_t seed) {
  core::Request request = templates[tmpl];
  request.id = strf("t%zu", tmpl);
  request.workload += strf(" seed=%llu", static_cast<unsigned long long>(seed));
  return request;
}

/// Empty when `response` is a well-formed success for `request`.
std::string check(const core::Request& request, const core::Response& response) {
  const std::string who = request.id + " (" + to_string(request.kind) + " " + request.nf + ")";
  if (response.id != request.id) return who + ": answered as id " + response.id;
  if (!response.ok) {
    return who + ": [" + to_string(response.error_code) + "] " + response.error;
  }
  if (response.kind != request.kind) return who + ": answered as kind " + to_string(response.kind);
  if (!(std::isfinite(response.mean_latency_us) && response.mean_latency_us > 0.0) ||
      !(response.throughput_pps > 0.0) || response.classes.empty()) {
    return who + ": empty prediction";
  }
  if (request.kind == core::RequestKind::kValidate &&
      !(response.simulated_cycles > 0.0 && std::isfinite(response.rel_err) &&
        response.rel_err < 0.5)) {
    return who + strf(": validation out of range (rel_err %g)", response.rel_err);
  }
  if (request.kind == core::RequestKind::kSweep) {
    if (response.sweep.size() != request.sweep_pps.size()) return who + ": sweep points missing";
    for (const auto& point : response.sweep) {
      if (!point.ok || !(point.mean_latency_us > 0.0)) return who + ": sweep point failed";
    }
  }
  if (request.kind == core::RequestKind::kRepair && !response.repaired) {
    return who + ": repair answered without a repaired mapping";
  }
  return {};
}

/// Sends `request` and records the outcome; `response_json` receives the
/// answer when it passed check(). Returns false when the connection is
/// unusable afterwards.
bool exchange(serve::Client& client, const core::Request& request, Tally& tally,
              std::string& response_json) {
  ++tally.attempted;
  const auto t0 = Clock::now();
  auto response = client.call(request);
  const double ms = ms_since(t0);
  if (!response) {
    tally.fail(request.id + ": " + response.error().message);
    return false;
  }
  if (std::string problem = check(request, response.value()); !problem.empty()) {
    tally.fail(std::move(problem));
    return true;
  }
  response_json = response.value().to_json();
  tally.latencies_ms.push_back(ms);
  return true;
}

serve::ClientOptions client_options() {
  serve::ClientOptions options;
  options.connect_timeout_ms = 10'000.0;
  options.send_timeout_ms = 30'000.0;
  options.recv_timeout_ms = 30'000.0;
  return options;
}

/// One pass over the templates on a fresh connection: warms the daemon's
/// caches and lazy state, and yields the reference answer per template.
Tally prime(const Options& opt, const std::vector<core::Request>& templates,
            std::vector<Exchange>& primed) {
  Tally tally;
  auto client = serve::Client::connect(opt.socket, client_options());
  if (!client) {
    tally.fail("connect: " + client.error().message);
    return tally;
  }
  for (std::size_t t = 0; t < templates.size(); ++t) {
    Exchange x{instantiate(templates, t, trace_seed(opt.seed, t, 0, 0)), {}};
    if (!exchange(client.value(), x.request, tally, x.response)) break;
    primed.push_back(std::move(x));
  }
  return tally;
}

/// Fisher-Yates with the repo's deterministic generator (std::shuffle's
/// algorithm is implementation-defined).
void shuffle(std::vector<std::size_t>& order, std::uint64_t seed, std::uint64_t slot,
             std::uint64_t round) {
  Rng rng(Fnv1a().mix(std::string_view("order")).mix(seed).mix(slot).mix(round).digest());
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
}

/// A closed-loop client in `slot` (>= 1, distinct per client of a run, so
/// --unique seeds never repeat) until `deadline`. With `keep_first`, it
/// keeps its first --unique answer per template for verify().
void run_client(const Options& opt, const std::vector<core::Request>& templates,
                const std::vector<Exchange>& primed, std::uint64_t slot, bool keep_first,
                serve::Client client, Clock::time_point deadline, Tally& tally) {
  std::vector<std::size_t> order(templates.size());
  std::vector<bool> seen(templates.size(), false);
  std::string response;
  for (std::uint64_t round = 0;; ++round) {
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    shuffle(order, opt.seed, slot, round);
    for (const std::size_t t : order) {
      if (Clock::now() >= deadline) return;
      const std::uint64_t seed = opt.unique ? trace_seed(opt.seed, t, slot, round)
                                            : trace_seed(opt.seed, t, 0, 0);
      const core::Request request = instantiate(templates, t, seed);
      response.clear();
      const std::size_t failed_before = tally.failed;
      if (!exchange(client, request, tally, response)) return;
      if (tally.failed != failed_before) continue;
      if (!opt.unique) {
        if (response != primed[t].response) {
          tally.fail(request.id + ": repeated request answered differently");
        }
      } else if (keep_first && !seen[t]) {
        seen[t] = true;
        tally.first.push_back({request, response});
      }
    }
  }
}

/// One timed phase: `clients` closed-loop clients in slots first_slot,
/// first_slot + 1, ... for `seconds`. Its tally holds the phase's
/// latencies; elapsed_s is its wall time.
struct Phase {
  Tally tally;
  double elapsed_s = 0.0;
};

Phase run_phase(const Options& opt, const std::vector<core::Request>& templates,
                const std::vector<Exchange>& primed, std::uint64_t first_slot,
                std::size_t clients, double seconds) {
  Phase phase;
  std::vector<serve::Client> connected;
  for (std::size_t k = 0; k < clients; ++k) {
    auto client = serve::Client::connect(opt.socket, client_options());
    if (!client) {
      phase.tally.fail("connect: " + client.error().message);
      return phase;
    }
    connected.push_back(std::move(client).value());
  }
  std::vector<Tally> tallies(clients);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  for (std::size_t k = 0; k < clients; ++k) {
    threads.emplace_back(run_client, std::cref(opt), std::cref(templates), std::cref(primed),
                         first_slot + k, k == 0, std::move(connected[k]), deadline,
                         std::ref(tallies[k]));
  }
  for (auto& thread : threads) thread.join();
  phase.elapsed_s = ms_since(start) / 1e3;
  for (auto& tally : tallies) phase.tally.merge(std::move(tally));
  return phase;
}

/// Recomputes each exchange in-process with the cache bypassed; the
/// daemon's answer must match byte for byte. Returns the mismatch count.
std::size_t verify(const std::vector<Exchange>& exchanges, Tally& tally) {
  serve::Service service;
  std::size_t mismatches = 0;
  for (const auto& x : exchanges) {
    core::Request request = x.request;
    request.options.use_cache = false;
    if (service.handle(request).to_json() != x.response) {
      ++mismatches;
      if (tally.errors.size() < 8) {
        tally.errors.push_back(x.request.id + ": daemon answer differs from in-process recompute");
      }
    }
  }
  return mismatches;
}

/// Service::handle's summed time (ms) and request count since the last
/// metrics reset.
std::pair<double, double> handled() {
  double ms = 0.0;
  double count = 0.0;
  for (const char* kind : {"analyze", "sweep", "repair", "validate"}) {
    const auto moments =
        obs::metrics().histogram("serve/latency_us", std::string("kind=") + kind).moments();
    ms += moments.sum() / 1e3;
    count += static_cast<double>(moments.count());
  }
  return {ms, std::max(count, 1.0)};
}

/// Summed duration (ms) of the spans called `name`, less their direct
/// children called one of `excluded`.
double span_ms(const std::vector<obs::TraceSpan>& spans, const std::string& name,
               const std::vector<std::string>& excluded = {}) {
  std::int64_t ns = 0;
  for (const auto& span : spans) {
    if (span.dur_ns < 0) continue;
    if (span.name == name) ns += span.dur_ns;
    if (span.parent != obs::TraceSpan::kNoParent && spans[span.parent].name == name &&
        std::find(excluded.begin(), excluded.end(), span.name) != excluded.end()) {
      ns -= span.dur_ns;
    }
  }
  return static_cast<double>(ns) / 1e6;
}

/// The pipeline split of the traced idle phase, each a mean per handled
/// request. Layers nest: map_ms includes ilp_ms and covers both fresh
/// solves and repairs, repair_ms includes the repair's mapping and
/// prediction, and predict_ms counts every prediction wherever it ran.
/// service_ms is what Service::handle spends outside analysis, sweep,
/// repair and simulation (NF build, trace generation, response fill);
/// transport_ms is the round trip outside Service::handle (wire codec,
/// socket, dispatch).
Layers idle_layers(const Tally& idle) {
  const auto spans = obs::tracer().snapshot();
  const auto [handle_ms, n] = handled();
  const double analyze = span_ms(spans, "core/analyze");
  const double sweep = span_ms(spans, "core/sweep");
  const double repair = span_ms(spans, "core/repair");
  const double simulate = span_ms(spans, "nicsim/run");
  auto& registry = obs::metrics();
  double hits = 0.0;
  for (const char* stage : {"lowered", "graph", "map"}) {
    hits += static_cast<double>(
        registry.counter("cache/hits", std::string("stage=") + stage).value());
  }
  return {
      {"transport_ms", mean(idle.latencies_ms) - handle_ms / n},
      {"handle_ms", handle_ms / n},
      {"service_ms", (handle_ms - analyze - sweep - repair - simulate) / n},
      {"analyze_self_ms", span_ms(spans, "core/analyze", {"mapping/map", "predict/run"}) / n},
      {"map_ms", (span_ms(spans, "mapping/map") + span_ms(spans, "mapping/repair")) / n},
      {"ilp_ms", span_ms(spans, "ilp/branch_and_bound") / n},
      {"predict_ms", span_ms(spans, "predict/run") / n},
      {"repair_ms", repair / n},
      {"sweep_ms", sweep / n},
      {"simulate_ms", simulate / n},
      {"cache_hits_per_req", hits / n},
      {"ilp_solves_per_req", static_cast<double>(registry.counter("ilp/solves").value()) / n},
  };
}

/// The loaded phase, untraced: Service::handle time per request under
/// contention, and the rest of the round trip — waiting for a pool
/// worker plus transport.
Layers loaded_layers(const Tally& loaded) {
  const auto [handle_ms, n] = handled();
  return {
      {"loaded_handle_ms", handle_ms / n},
      {"loaded_wait_ms", mean(loaded.latencies_ms) - handle_ms / n},
  };
}

bool parse_options(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--socket") {
      opt.socket = value;
    } else if (key == "--templates") {
      opt.templates = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--connections") {
      opt.connections = static_cast<std::size_t>(std::max(1L, std::atol(value.c_str())));
    } else if (key == "--jobs") {
      opt.jobs = static_cast<std::size_t>(std::max(1L, std::atol(value.c_str())));
    } else if (key == "--unique") {
      opt.unique = true;
    } else if (key == "--serve") {
      opt.serve = true;
    } else {
      std::fprintf(stderr, "perfbench_harness: unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  if (opt.socket.empty() || opt.templates.empty() || !(opt.seconds >= 0.0)) {
    std::fprintf(stderr, "perfbench_harness: --socket, --templates and --seconds>=0 required\n");
    return false;
  }
  return true;
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ",";
    out += json_quote(items[i]);
  }
  return out + "]";
}

std::string json_numbers(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += json_number(values[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return 2;
  std::signal(SIGPIPE, SIG_IGN);
  parallel::set_jobs(opt.jobs);

  std::vector<core::Request> templates;
  std::ifstream in(opt.templates);
  if (!in) {
    std::fprintf(stderr, "perfbench_harness: cannot open %s\n", opt.templates.c_str());
    return 2;
  }
  for (std::string line; std::getline(in, line);) {
    if (trim(line).empty()) continue;
    auto request = core::Request::from_json(line);
    if (!request) {
      std::fprintf(stderr, "perfbench_harness: bad template: %s\n",
                   request.error().message.c_str());
      return 2;
    }
    templates.push_back(std::move(request).value());
  }
  if (templates.empty()) {
    std::fprintf(stderr, "perfbench_harness: no templates in %s\n", opt.templates.c_str());
    return 2;
  }

  // --serve: the daemon lives here, configured like a standalone clarad.
  std::unique_ptr<serve::Daemon> daemon;
  if (opt.serve) {
    serve::DaemonOptions options;
    options.socket_path = opt.socket;
    options.read_deadline_ms = 30'000.0;
    daemon = std::make_unique<serve::Daemon>(options);
    if (auto status = daemon->start(); !status) {
      std::fprintf(stderr, "perfbench_harness: %s\n", status.error().message.c_str());
      return 1;
    }
  }

  std::vector<Exchange> primed;
  const auto prime_start = Clock::now();
  Tally session = prime(opt, templates, primed);
  const double prime_s = ms_since(prime_start) / 1e3;

  // Between phases no request is in flight, so resetting the registry and
  // the tracer confines the per-layer numbers to the phase that follows.
  Phase idle;
  Phase loaded;
  Layers layers;
  if (opt.seconds > 0.0 && session.failed == 0) {
    if (daemon) {
      obs::metrics().reset();
      obs::tracer().clear();
      obs::tracer().set_enabled(true);
    }
    idle = run_phase(opt, templates, primed, 1, 1, opt.seconds / 2);
    if (daemon) {
      obs::tracer().set_enabled(false);
      layers = idle_layers(idle.tally);
      obs::metrics().reset();
    }
    if (idle.tally.failed == 0) {
      loaded = run_phase(opt, templates, primed, 2, opt.connections, opt.seconds / 2);
      if (daemon) {
        const Layers more = loaded_layers(loaded.tally);
        layers.insert(layers.end(), more.begin(), more.end());
      }
    }
  }
  if (daemon) daemon->stop();
  const std::vector<double> idle_ms = idle.tally.latencies_ms;
  const std::vector<double> loaded_ms = loaded.tally.latencies_ms;
  session.merge(std::move(idle.tally));
  session.merge(std::move(loaded.tally));

  std::size_t verified = 0;
  std::size_t mismatches = 0;
  if (opt.seconds > 0.0 && session.failed == 0) {
    mismatches = verify(primed, session) + verify(session.first, session);
    verified = primed.size() + session.first.size();
  }

  std::string out = "{";
  out += strf("\"correct\":%s", session.failed == 0 && mismatches == 0 ? "true" : "false");
  out += strf(",\"attempted\":%zu,\"failed\":%zu,\"verified\":%zu", session.attempted,
              session.failed, verified);
  out += ",\"prime_s\":" + json_number(prime_s);
  out += ",\"errors\":" + json_list(session.errors);
  out += ",\"idle_ms\":" + json_numbers(idle_ms);
  out += ",\"loaded_ms\":" + json_numbers(loaded_ms);
  out += ",\"loaded_s\":" + json_number(loaded.elapsed_s);
  out += ",\"layers\":{";
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (i != 0) out += ",";
    out += json_quote(layers[i].first) + ":" + json_number(layers[i].second);
  }
  out += "}}\n";
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}
