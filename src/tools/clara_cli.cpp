// clara — command-line front end.
//
//   clara list-nfs                      list the built-in NF corpus
//   clara list-nics                     list LNIC profiles
//   clara print --nf <name> [--lowered] print an NF's CIR (optionally
//                                       after substitution + patterns)
//   clara analyze --nf <name>|--nf-file <f.cir> [--nic <profile>]
//                 [--workload "<spec>"] [--greedy] [--no-patterns]
//                 [--paths] [--energy] [--partial]
//   clara simulate --nf <name> [--workload "<spec>"]
//                                       run the hand-ported NF on the
//                                       simulated device
//   clara microbench                    extract device parameters
//   clara trace-gen --workload "<spec>" --out <file.cltr>
//   clara trace-info <file.cltr>
//
// Workload spec syntax: "tcp=0.8 flows=10000 payload=300 pps=60000
// packets=50000 zipf=1.0 arrivals=deterministic seed=42".
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cir/printer.hpp"
#include "cir/verify.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "obs/accuracy.hpp"
#include "obs/benchdiff.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "ilp/instances.hpp"
#include "ilp/solver.hpp"
#include "core/cache.hpp"
#include "core/clara.hpp"
#include "core/adversarial.hpp"
#include "core/request.hpp"
#include "core/sweep.hpp"
#include "fault/fault.hpp"
#include "frontend/p4lite.hpp"
#include "microbench/microbench.hpp"
#include "nf/corpus.hpp"
#include "nicsim/sim.hpp"
#include "passes/api_subst.hpp"
#include "passes/patterns.hpp"
#include "serve/client.hpp"
#include "serve/loadgen.hpp"
#include "serve/service.hpp"
#include "workload/analysis.hpp"
#include "workload/trace_io.hpp"

namespace {

using namespace clara;

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
  /// Non-empty when parsing rejected an option (unknown key).
  std::string error;

  [[nodiscard]] bool has(const std::string& key) const { return options.count(key) > 0; }
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback = {}) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
};

/// Every option key any command accepts. parse_args rejects keys outside
/// this list — a typo like --sweep-psp used to be silently ignored and
/// the run would quietly do less than asked.
const std::vector<std::string>& known_option_keys() {
  static const std::vector<std::string> kKeys = {
      "band", "breakdown", "cache", "cache-entries", "chaos", "connect", "csum-sw", "derate-unit",
      "energy", "fail-unit", "fault-plan", "flight-out", "greedy", "jobs", "lowered",
      "max-inflight", "max-rel-err", "metrics-format", "metrics-out", "nf", "nf-file", "nf-p4",
      "nic", "no-flow-cache", "no-optimize", "no-patterns", "out", "partial", "paths",
      "pivot-threshold", "serve-connections", "serve-requests", "socket", "sweep-pps",
      "threshold", "time-budget-ms", "trace", "trace-out", "validate", "workload"};
  return kKeys;
}

/// True for options that take no value (bare --flag form).
bool is_bare_flag(const std::string& key) {
  return key == "lowered" || key == "greedy" || key == "no-patterns" || key == "no-optimize" ||
         key == "paths" || key == "energy" || key == "partial" || key == "csum-sw" ||
         key == "no-flow-cache" || key == "breakdown" || key == "validate" || key == "chaos";
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token == "--help" || token == "-h") {
      args.command = "help";
    } else if (starts_with(token, "--")) {
      std::string key = token.substr(2);
      std::string value;
      bool has_value = false;
      if (const auto eq = key.find('='); eq != std::string::npos) {
        value = key.substr(eq + 1);
        key = key.substr(0, eq);
        has_value = true;
      }
      const auto& known = known_option_keys();
      if (std::find(known.begin(), known.end(), key) == known.end()) {
        args.error = strf("unknown option --%s", key.c_str());
        const std::string suggestion = closest_match(key, known);
        if (!suggestion.empty()) args.error += strf(" (did you mean --%s?)", suggestion.c_str());
        args.error += "\nvalid options:";
        for (const auto& k : known) args.error += " --" + k;
        return args;
      }
      if (has_value) {
        args.options[key] = std::move(value);
      } else if (is_bare_flag(key)) {
        args.options[key] = "1";
      } else if (i + 1 < argc) {
        args.options[key] = argv[++i];
      } else {
        args.options[key] = "";
      }
    } else if (args.command.empty()) {
      args.command = std::move(token);
    } else {
      args.positional.push_back(std::move(token));
    }
  }
  return args;
}

/// Builds the process-wide fault plan from --fault-plan / --fail-unit /
/// --derate-unit and installs it before any command runs. Returns false
/// after reporting the error on stderr.
bool install_fault_plan(const Args& args) {
  fault::FaultPlan plan;
  if (args.has("fault-plan")) {
    std::ifstream in(args.get("fault-plan"));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.get("fault-plan").c_str());
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto parsed = fault::FaultPlan::parse(buffer.str());
    if (!parsed) {
      std::fprintf(stderr, "fault-plan error: %s\n", parsed.error().message.c_str());
      return false;
    }
    plan = std::move(parsed).value();
  }
  for (const auto& item : split(args.get("fail-unit"), ',')) {
    const auto name = trim(item);
    if (!name.empty()) plan.failed_units.emplace_back(name);
  }
  for (const auto& item : split(args.get("derate-unit"), ',')) {
    const auto spec = trim(item);
    if (spec.empty()) continue;
    const auto colon = spec.find(':');
    const auto pct = colon == std::string_view::npos
                         ? std::nullopt
                         : parse_double(spec.substr(colon + 1));
    if (!pct || *pct <= 0.0 || *pct > 100.0) {
      std::fprintf(stderr, "--derate-unit expects name:pct with pct in (0,100], got '%s'\n",
                   std::string(spec).c_str());
      return false;
    }
    plan.derated_units.emplace_back(std::string(spec.substr(0, colon)), *pct);
  }
  if (!plan.empty()) fault::set_plan(std::move(plan));
  return true;
}

// --- Local NF loading (print / adversarial) -----------------------------------
//
// The analysis commands no longer load NFs in-process — they build a
// core::Request and let the Service resolve the NF (the corpus itself
// lives in nf::corpus, shared with the daemon). load_nf remains for the
// commands that genuinely need a local cir::Function.

std::optional<cir::Function> load_nf(const Args& args) {
  if (args.has("nf-p4")) {
    std::ifstream in(args.get("nf-p4"));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.get("nf-p4").c_str());
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto fn = frontend::compile_p4lite(buffer.str());
    if (!fn) {
      std::fprintf(stderr, "p4lite error: %s\n", fn.error().message.c_str());
      return std::nullopt;
    }
    return std::move(fn).value();
  }
  if (args.has("nf-file")) {
    std::ifstream in(args.get("nf-file"));
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", args.get("nf-file").c_str());
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    auto mod = cir::parse_module(buffer.str());
    if (!mod) {
      std::fprintf(stderr, "parse error: %s\n", mod.error().message.c_str());
      return std::nullopt;
    }
    if (auto status = cir::verify(mod.value()); !status) {
      std::fprintf(stderr, "verification error: %s\n", status.error().message.c_str());
      return std::nullopt;
    }
    if (mod.value().functions.empty()) {
      std::fprintf(stderr, "module has no functions\n");
      return std::nullopt;
    }
    return mod.value().functions.front();
  }
  const std::string name = args.get("nf");
  if (const nf::NfEntry* entry = nf::find_nf(name)) return entry->build();
  std::fprintf(stderr, "unknown NF '%s' (try: clara list-nfs)\n", name.c_str());
  return std::nullopt;
}

std::optional<lnic::NicProfile> load_nic(const Args& args) {
  const std::string name = args.get("nic", "netronome-agilio-cx");
  for (auto& profile : lnic::all_profiles()) {
    if (profile.name == name) return std::move(profile);
  }
  std::fprintf(stderr, "unknown NIC '%s' (try: clara list-nics)\n", name.c_str());
  return std::nullopt;
}

std::optional<workload::Trace> load_trace(const Args& args) {
  if (args.has("trace")) {
    auto trace = workload::read_trace(args.get("trace"));
    if (!trace) {
      std::fprintf(stderr, "trace error: %s\n", trace.error().message.c_str());
      return std::nullopt;
    }
    return std::move(trace).value();
  }
  const std::string spec = args.get("workload", "tcp=0.8 flows=10000 payload=300 pps=60000 packets=20000");
  auto profile = workload::parse_profile(spec);
  if (!profile) {
    std::fprintf(stderr, "workload error: %s\n", profile.error().message.c_str());
    return std::nullopt;
  }
  // Echo the effective seed so any run can be reproduced exactly.
  std::fprintf(stderr, "workload seed %llu: %s\n", (unsigned long long)profile.value().seed,
               profile.value().serialize().c_str());
  return workload::generate_trace(profile.value());
}

// --- Thin-client plumbing -----------------------------------------------------

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Pulls one `key=value` out of a serialized workload spec
/// ("tcp=0.8 flows=10000 ... seed=42") — the response echoes the
/// effective profile, so the client never re-derives defaults.
std::string spec_value(const std::string& spec, std::string_view key) {
  for (const auto& token : split(spec, ' ')) {
    const std::string_view t = trim(token);
    if (t.size() > key.size() + 1 && t.substr(0, key.size()) == key && t[key.size()] == '=') {
      return std::string(t.substr(key.size() + 1));
    }
  }
  return {};
}

/// Sends requests either to an in-process Service (the default) or to a
/// running clarad when --connect=<socket> is given. Both paths are the
/// same entry point the daemon serves — the CLI builds Requests and
/// renders Responses, it never reaches into the pipeline itself.
class RequestRunner {
 public:
  explicit RequestRunner(const Args& args) : connect_(args.get("connect")) {}

  std::optional<core::Response> run(core::Request request) {
    request.id = strf("cli-%zu", next_id_++);
    if (connect_.empty()) return service_.handle(request);
    if (!client_) {
      auto client = serve::Client::connect(connect_);
      if (!client) {
        std::fprintf(stderr, "connect %s: %s\n", connect_.c_str(),
                     client.error().message.c_str());
        return std::nullopt;
      }
      client_.emplace(std::move(client).value());
    }
    // Retrying call: the CLI survives a daemon restart mid-sweep — the
    // retry loop reconnects on transport errors and honors the server's
    // retry_after_ms hint on kOverloaded.
    auto response = client_->call_with_retry(request);
    if (!response) {
      std::fprintf(stderr, "clarad: %s\n", response.error().message.c_str());
      return std::nullopt;
    }
    return std::move(response).value();
  }

 private:
  std::string connect_;
  std::size_t next_id_ = 0;
  serve::Service service_{serve::ServiceOptions{0}};  // CLI side: no admission cap
  std::optional<serve::Client> client_;
};

/// Builds the Request all analyze variants share from the CLI flags.
/// Only file I/O (--nf-file / --nf-p4) happens client-side; a remote
/// daemon sees the same inline CIR a local run does.
std::optional<core::Request> build_analyze_request(const Args& args) {
  core::Request request;
  request.nf = args.get("nf");
  if (args.has("nf-p4")) {
    const auto text = read_text_file(args.get("nf-p4"));
    if (!text) return std::nullopt;
    auto fn = frontend::compile_p4lite(*text);
    if (!fn) {
      std::fprintf(stderr, "p4lite error: %s\n", fn.error().message.c_str());
      return std::nullopt;
    }
    cir::Module mod;
    mod.name = fn.value().name;
    mod.functions.push_back(std::move(fn).value());
    request.nf_cir = cir::print_module(mod);
  } else if (args.has("nf-file")) {
    const auto text = read_text_file(args.get("nf-file"));
    if (!text) return std::nullopt;
    request.nf_cir = *text;  // the server parses and verifies
  }
  request.nic = args.get("nic", "netronome-agilio-cx");
  if (args.has("trace")) {
    request.trace_file = args.get("trace");
  } else if (args.has("workload")) {
    request.workload = args.get("workload");
  }
  if (args.has("greedy")) request.options.stages.set(core::PipelineStages::kIlp, false);
  if (args.has("no-patterns")) request.options.stages.set(core::PipelineStages::kPatterns, false);
  if (args.has("no-optimize")) request.options.stages.set(core::PipelineStages::kOptimize, false);
  if (args.has("time-budget-ms")) {
    const auto budget = parse_double(args.get("time-budget-ms"));
    if (!budget) {
      std::fprintf(stderr, "--time-budget-ms must be a number of milliseconds (e.g. 50)\n");
      return std::nullopt;
    }
    request.options.map.time_budget_ms = *budget;
  }
  request.energy = args.has("energy");
  request.breakdown = args.has("breakdown");
  request.partial = args.has("partial");
  request.paths = args.has("paths");
  return request;
}

// --- Commands -----------------------------------------------------------------

int cmd_list_nfs() {
  TextTable table({"name", "description"});
  for (const auto& entry : nf::corpus()) table.add_row({entry.name, entry.description});
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_list_nics() {
  TextTable table({"name", "compute units", "memory regions", "clock"});
  for (const auto& profile : lnic::all_profiles()) {
    table.add_row({profile.name, strf("%zu", profile.graph.compute_units().size()),
                   strf("%zu", profile.graph.memory_regions().size()),
                   strf("%.1f MHz", profile.params.scalar(lnic::keys::kClockHz) / 1e6)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}

int cmd_print(const Args& args) {
  auto fn = load_nf(args);
  if (!fn) return 1;
  if (args.has("lowered")) {
    passes::substitute_framework_apis(*fn);
    passes::collapse_packet_loops(*fn);
  }
  cir::Module mod;
  mod.name = fn->name;
  mod.functions.push_back(std::move(*fn));
  std::printf("%s", cir::print_module(mod).c_str());
  return 0;
}

int cmd_analyze(const Args& args) {
  auto base = build_analyze_request(args);
  if (!base) return 1;
  // --sweep-pps=10000,60000,200000: every number goes on; the service checks its range.
  std::vector<double> loads;
  if (args.has("sweep-pps")) {
    for (const auto& item : split(args.get("sweep-pps"), ',')) {
      const auto pps = parse_double(trim(item));
      if (!pps) {
        std::fprintf(stderr, "--sweep-pps: '%s' is not a number\n", item.c_str());
        return 2;
      }
      loads.push_back(*pps);
    }
  }
  // --max-rel-err=0.15: checked before any request is sent.
  std::optional<double> max_rel_err;
  if (args.has("max-rel-err")) {
    max_rel_err = parse_double(args.get("max-rel-err"));
    if (!max_rel_err || *max_rel_err <= 0.0) {
      std::fprintf(stderr, "--max-rel-err must be a positive fraction (e.g. 0.15)\n");
      return 2;
    }
  }
  RequestRunner runner(args);

  core::Request first = *base;
  first.kind = args.has("validate") ? core::RequestKind::kValidate : core::RequestKind::kAnalyze;
  const auto first_response = runner.run(first);
  if (!first_response) return 1;
  const core::Response& a = *first_response;
  if (!a.ok) {
    std::fprintf(stderr, "analysis failed [%s]: %s\n", to_string(a.error_code), a.error.c_str());
    return 1;
  }
  // Echo the effective workload (seed included) so any run can be
  // reproduced exactly — the server resolves defaults and seeds.
  std::fprintf(stderr, "workload seed %s: %s\n", spec_value(a.workload, "seed").c_str(),
               a.workload.c_str());
  if (a.degraded) {
    std::fprintf(stderr, "NOTE: solver time budget expired; the mapping is best-effort (degraded)\n");
  }

  std::printf("NF '%s' on %s  (%llu calls substituted, %llu loops collapsed, %s mapper)\n",
              a.nf_name.c_str(), a.nic.c_str(), (unsigned long long)a.substituted,
              (unsigned long long)a.patterns, a.greedy_mapper ? "greedy" : "ILP");
  std::printf("predicted mean latency : %.0f cycles (%.2f us)\n", a.mean_latency_cycles,
              a.mean_latency_us);
  std::printf("idealized throughput   : %.0f pps (bottleneck: %s)\n", a.throughput_pps,
              a.bottleneck.c_str());
  std::printf("model hit rates        : EMEM cache %.2f, flow cache %.2f\n",
              a.emem_cache_hit_rate, a.flow_cache_hit_rate);
  std::printf("\nper-packet-type profile:\n");
  TextTable classes({"class", "share", "latency (cyc)"});
  for (const auto& cls : a.classes) {
    classes.add_row({cls.name, strf("%.1f%%", cls.fraction * 100), strf("%.0f", cls.latency_cycles)});
  }
  std::printf("%s\n%s", classes.render().c_str(), a.report.c_str());

  if (!a.breakdown_text.empty()) {
    std::printf("\npredicted latency attribution (sums to the mean):\n%s",
                a.breakdown_text.c_str());
  }

  // --validate: the response carries the per-component error attribution
  // (the accuracy ledger's single-NF view). With --max-rel-err, an error
  // beyond the threshold dumps the flight recorder and fails the run.
  if (args.has("validate")) {
    std::printf("\npredicted-vs-simulated validation (workload seed %s):\n%s",
                spec_value(a.workload, "seed").c_str(), a.validation_text.c_str());
    if (max_rel_err) {
      if (a.rel_err > *max_rel_err) {
        const std::string dump = obs::recorder().auto_dump("accuracy");
        std::fprintf(stderr, "FAIL: relative error %.2f%% exceeds --max-rel-err=%.2f%%%s%s\n",
                     a.rel_err * 100.0, *max_rel_err * 100.0,
                     dump.empty() ? "" : "; flight recorder dumped to ", dump.c_str());
        return 1;
      }
      std::printf("validation PASS: relative error %.2f%% within --max-rel-err=%.2f%%\n",
                  a.rel_err * 100.0, *max_rel_err * 100.0);
    }
  }

  // Degraded mode: when the installed fault plan (--fail-unit /
  // --derate-unit / --fault-plan) names unit faults, issue a repair
  // request with the same pipeline options and report the delta against
  // the healthy run above. Armed injection sites stay process-local.
  const auto& fplan = fault::plan();
  if (!fplan.failed_units.empty() || !fplan.derated_units.empty()) {
    fault::FaultPlan unit_plan;
    unit_plan.failed_units = fplan.failed_units;
    unit_plan.derated_units = fplan.derated_units;
    core::Request repair = *base;
    repair.kind = core::RequestKind::kRepair;
    repair.fault_plan = unit_plan.serialize();
    const auto repaired = runner.run(repair);
    if (!repaired) return 1;
    const core::Response& r = *repaired;
    if (!r.ok) {
      std::fprintf(stderr, "repair failed [%s]: %s\n", to_string(r.error_code), r.error.c_str());
      return 1;
    }
    std::printf("\ndegraded mode (unit faults applied to %s):\n", r.nic.c_str());
    std::printf("repair                 : %llu node(s) re-solved, %llu pinned%s\n",
                (unsigned long long)r.repair_displaced, (unsigned long long)r.repair_pinned,
                r.degraded ? " (best-effort: solver budget expired)" : "");
    std::printf("predicted mean latency : %.0f cycles (%.2f us, healthy %.2f us)\n",
                r.mean_latency_cycles, r.mean_latency_us, a.mean_latency_us);
    std::printf("idealized throughput   : %.0f pps (bottleneck: %s)\n", r.throughput_pps,
                r.bottleneck.c_str());
    std::printf("\n%s", r.report.c_str());
  }

  if (args.has("energy")) {
    const auto pps = parse_double(spec_value(a.workload, "pps"));
    std::printf("\nenergy: %.0f nJ/packet dynamic, %.1f W at %.0f pps (%.0f nJ/packet incl. idle)\n",
                a.energy_nj_per_packet, a.energy_watts, pps.value_or(0.0),
                a.energy_nj_per_packet_total);
  }
  if (!a.partial_text.empty()) std::printf("\n%s", a.partial_text.c_str());
  if (!a.paths_text.empty()) std::printf("\n%s", a.paths_text.c_str());

  if (!loads.empty()) {
    core::Request sweep_request = *base;
    sweep_request.kind = core::RequestKind::kSweep;
    sweep_request.sweep_pps = std::move(loads);
    const auto swept = runner.run(sweep_request);
    if (!swept) return 1;
    if (!swept->ok) {
      std::fprintf(stderr, "sweep failed [%s]: %s\n", to_string(swept->error_code),
                   swept->error.c_str());
      return 1;
    }
    std::printf("\nload sensitivity (mapping fixed, workload regenerated per point):\n");
    TextTable sweep_table({"offered pps", "mean latency (us)", "worst case (cyc)", "bottleneck"});
    for (const auto& point : swept->sweep) {
      if (!point.ok) {
        sweep_table.add_row({strf("%.0f", point.pps), "error: " + point.error, "", ""});
        continue;
      }
      sweep_table.add_row({strf("%.0f", point.pps), strf("%.2f", point.mean_latency_us),
                           strf("%.0f", point.worst_case_cycles), point.bottleneck});
    }
    std::printf("%s", sweep_table.render().c_str());
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  auto trace = load_trace(args);
  if (!trace) return 1;
  const std::string name = args.get("nf");
  const auto simulated =
      nf::simulate(name, *trace, {.csum_accel = !args.has("csum-sw"), .flow_cache = !args.has("no-flow-cache")});
  if (!simulated) {
    std::fprintf(stderr, "%s\n", simulated.error().message.c_str());
    return 1;
  }
  const nicsim::RunStats& stats = simulated.value();
  std::printf("simulated '%s': %llu packets, %llu drops\n", name.c_str(),
              (unsigned long long)stats.packets, (unsigned long long)stats.drops);
  std::printf("latency  : mean %.0f  p50 %.0f  p99 %.0f cycles\n", stats.mean_latency(),
              stats.latency.percentile(0.5), stats.p99_latency());
  std::printf("queueing : mean wait %.0f cycles; achieved %.0f pps\n", stats.queue_wait.mean(),
              stats.achieved_pps);
  std::printf("caches   : EMEM hit %.2f, flow cache hit %.2f\n", stats.emem_cache_hit_rate,
              stats.flow_cache_hit_rate);
  std::printf("energy   : %.0f nJ/packet, %.1f W\n", stats.energy_nj_per_packet, stats.energy_watts);
  if (args.has("breakdown")) {
    std::printf("\nmeasured latency attribution (sums to the mean):\n%s", stats.breakdown.render().c_str());
  }
  return 0;
}

int cmd_adversarial(const Args& args) {
  auto fn = load_nf(args);
  auto nic = load_nic(args);
  if (!fn || !nic) return 1;
  auto seed = workload::parse_profile(
      args.get("workload", "tcp=0.8 flows=1000 payload=300 pps=60000 packets=5000"));
  if (!seed) {
    std::fprintf(stderr, "workload error: %s\n", seed.error().message.c_str());
    return 1;
  }
  core::Analyzer analyzer(std::move(*nic));
  const auto result = core::find_adversarial_workload(analyzer, *fn, seed.value());
  if (!result) {
    std::fprintf(stderr, "%s\n", result.error().message.c_str());
    return 1;
  }
  const auto& r = result.value();
  std::printf("seed latency  : %.0f cycles\n", r.seed_latency_cycles);
  std::printf("worst latency : %.0f cycles (%.1fx) after %zu evaluations\n", r.worst_latency_cycles,
              r.worst_latency_cycles / r.seed_latency_cycles, r.evaluations);
  std::printf("worst workload: %s\n", r.worst.serialize().c_str());
  if (!r.trajectory.empty()) {
    std::printf("ascent:\n");
    for (const auto& step : r.trajectory) {
      std::printf("  %8.0f cyc  %s\n", step.latency_cycles, step.profile.c_str());
    }
  }
  return 0;
}

int cmd_microbench() {
  const auto databook = lnic::netronome_agilio_cx().params;
  const auto extraction = microbench::extract_parameters(nicsim::netronome_config(), databook);
  std::printf("measurement log:\n%s\nextracted parameters:\n%s", extraction.report.c_str(),
              extraction.params.serialize().c_str());
  return 0;
}

int cmd_trace_gen(const Args& args) {
  auto trace = load_trace(args);
  if (!trace) return 1;
  const std::string out = args.get("out", "trace.cltr");
  if (auto status = workload::write_trace(*trace, out); !status) {
    std::fprintf(stderr, "%s\n", status.error().message.c_str());
    return 1;
  }
  std::printf("wrote %zu packets to %s\n", trace->size(), out.c_str());
  return 0;
}

int cmd_trace_info(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: clara trace-info <file.cltr>\n");
    return 1;
  }
  auto trace = workload::read_trace(args.positional[0]);
  if (!trace) {
    std::fprintf(stderr, "%s\n", trace.error().message.c_str());
    return 1;
  }
  const auto analysis = workload::analyze_trace(trace.value());
  std::printf("%s", analysis.render().c_str());
  std::printf("profile        : %s\n", trace.value().profile.serialize().c_str());
  return 0;
}

int run_command(const Args& args);  // forward: profile re-enters the dispatcher

/// clara bench <scenario> — runs one benchmark scenario in-process (the
/// same models bench/perf_micro times), so `clara profile bench ...`
/// can attribute a known parallel workload. clara bench diff compares
/// two BENCH_perf.json runs and exits nonzero on regression.
int cmd_bench(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr,
                 "usage: clara bench diff <old.json> <new.json> [--threshold=0.10] [--pivot-threshold=0.05] [--band=0.02]\n"
                 "       clara bench milp_branch_and_bound | sweep_replay\n");
    return 1;
  }
  const std::string scenario = args.positional[0];

  if (scenario == "diff") {
    if (args.positional.size() != 3) {
      std::fprintf(stderr,
                   "usage: clara bench diff <old.json> <new.json> [--threshold=0.10] [--pivot-threshold=0.05] [--band=0.02]\n");
      return 2;
    }
    obs::BenchDiffOptions options;
    if (args.has("threshold")) {
      const auto t = parse_double(args.get("threshold"));
      if (!t || *t <= 0.0) {
        std::fprintf(stderr, "--threshold must be a positive fraction (e.g. 0.10)\n");
        return 2;
      }
      options.threshold = *t;
    }
    if (args.has("pivot-threshold")) {
      const auto t = parse_double(args.get("pivot-threshold"));
      if (!t || *t <= 0.0) {
        std::fprintf(stderr, "--pivot-threshold must be a positive fraction (e.g. 0.05)\n");
        return 2;
      }
      options.pivot_threshold = *t;
    }
    obs::AccuracyDiffOptions accuracy_options;
    if (args.has("band")) {
      const auto b = parse_double(args.get("band"));
      if (!b || *b <= 0.0) {
        std::fprintf(stderr, "--band must be a positive fraction of error points (e.g. 0.02)\n");
        return 2;
      }
      accuracy_options.mean_band = *b;
      accuracy_options.p95_band = 2.0 * *b;
    }
    const auto report =
        obs::diff_bench_files(args.positional[1], args.positional[2], options, accuracy_options);
    if (!report) {
      std::fprintf(stderr, "bench diff: %s\n", report.error().message.c_str());
      return 2;
    }
    std::printf("%s", report.value().render(options.threshold).c_str());
    return report.value().has_regression() ? 1 : 0;
  }

  const auto t0 = std::chrono::steady_clock::now();
  const auto wall_ms = [&t0] {
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  if (scenario == "milp_branch_and_bound") {
    // The market-split instance perf_micro times (see docs/performance.md).
    const auto model = ilp::make_market_split(20, 3);
    ilp::SolveOptions options;
    options.max_nodes = 10'000;
    options.jobs = parallel::jobs();
    const auto solution = ilp::solve_milp(model, options);
    std::printf("milp_branch_and_bound: objective %.3f, %zu nodes, %zu pivots, %.2f ms (jobs=%zu)\n",
                solution.objective, solution.nodes_explored, solution.pivots, wall_ms(),
                parallel::jobs());
    return 0;
  }
  if (scenario == "sweep_replay") {
    const auto eval = [](const core::SweepPoint& point, core::SweepResult& result) {
      auto profile = workload::parse_profile("tcp=0.8 flows=2000 payload=300 packets=4000").value();
      profile.pps = point.load_pps;
      profile.seed = point.seed;
      const auto trace = workload::generate_trace(profile);
      result.value = nf::simulate("nat", trace).value().mean_latency();
    };
    std::vector<double> loads;
    for (std::size_t i = 0; i < 8; ++i) loads.push_back(20'000.0 + 20'000.0 * static_cast<double>(i));
    core::SweepOptions options;
    options.jobs = parallel::jobs();
    const auto points = core::run_sweep(core::make_grid(loads, {}, 42), eval, options);
    std::printf("sweep_replay: %zu points, %.2f ms (jobs=%zu)\n", points.size(), wall_ms(),
                parallel::jobs());
    return 0;
  }
  if (scenario == "serve") {
    serve::LoadGenOptions options;
    options.connect = args.get("connect");
    options.socket_path = args.get("socket");
    if (args.has("serve-requests")) {
      const long n = std::atol(args.get("serve-requests").c_str());
      if (n < 1) {
        std::fprintf(stderr, "--serve-requests must be a positive integer\n");
        return 2;
      }
      options.requests = static_cast<std::size_t>(n);
    }
    if (args.has("serve-connections")) {
      const long n = std::atol(args.get("serve-connections").c_str());
      if (n < 1) {
        std::fprintf(stderr, "--serve-connections must be a positive integer\n");
        return 2;
      }
      options.connections = static_cast<std::size_t>(n);
    }
    if (args.has("max-inflight")) {
      const long n = std::atol(args.get("max-inflight").c_str());
      if (n < 0) {
        std::fprintf(stderr, "--max-inflight must be >= 0 (0 = unlimited)\n");
        return 2;
      }
      options.max_inflight = static_cast<std::size_t>(n);
    }
    options.chaos = args.has("chaos");
    const auto report = serve::run_loadgen(options);
    if (!report) {
      std::fprintf(stderr, "bench serve: %s\n", report.error().message.c_str());
      return 2;
    }
    std::printf("%s", report.value().render().c_str());
    // The acceptance bar: every connection survives and the daemon
    // answered work (overload rejections are typed responses, not drops).
    if (report.value().dropped_connections > 0 || report.value().ok == 0) {
      std::fprintf(stderr, "FAIL: %zu dropped connection(s), %zu ok responses\n",
                   report.value().dropped_connections, report.value().ok);
      return 1;
    }
    // The chaos contract: every request ends in exactly one well-formed
    // response or one typed client error — zero silent drops.
    const auto& r = report.value();
    if (r.dropped_requests > 0 || r.ok + r.failed + r.client_errors != r.requests) {
      std::fprintf(stderr,
                   "FAIL: request accounting broken — %zu ok + %zu failed + %zu client "
                   "error(s) != %zu requests (%zu silently dropped)\n",
                   r.ok, r.failed, r.client_errors, r.requests, r.dropped_requests);
      return 1;
    }
    return 0;
  }
  std::fprintf(stderr,
               "unknown bench scenario '%s' (diff, milp_branch_and_bound, sweep_replay, serve)\n",
               scenario.c_str());
  return 2;
}

/// clara profile <command...> — runs any other command and prints the
/// pool self-profile table for its whole run: per-lane task-body /
/// scheduling / barrier-wait attribution (docs/observability.md).
int cmd_profile(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: clara profile <command> [args...]\n");
    return 1;
  }
  Args inner = args;
  inner.command = args.positional.front();
  inner.positional.assign(args.positional.begin() + 1, args.positional.end());
  if (inner.command == "profile") {
    std::fprintf(stderr, "clara profile does not nest\n");
    return 1;
  }
  obs::ProfileScope scope;
  const int rc = run_command(inner);
  std::printf("\nself-profile (clara %s):\n%s", inner.command.c_str(),
              scope.finish().render().c_str());
  return rc;
}

void usage() {
  std::printf(
      "clara — performance clarity for SmartNIC offloading\n\n"
      "commands:\n"
      "  list-nfs | list-nics\n"
      "  print    --nf <name> [--lowered]\n"
      "  analyze  --nf <name>|--nf-file <f.cir>|--nf-p4 <f.p4nf> [--nic <profile>]\n"
      "           [--workload \"<spec>\"]\n"
      "           [--trace <f.cltr>] [--greedy] [--no-patterns] [--no-optimize]\n"
      "           [--paths] [--energy] [--partial]\n"
      "           [--validate]           run the simulator alongside the predictor and\n"
      "                                  print the per-component error attribution\n"
      "           [--max-rel-err=<x>]    with --validate: fail (and dump the flight\n"
      "                                  recorder) when relative error exceeds x\n"
      "           [--sweep-pps <a,b,c>]  predictor sensitivity sweep over offered loads\n"
      "           [--time-budget-ms=<N>] ILP deadline; on expiry the best mapping found\n"
      "                                  so far is returned, flagged degraded\n"
      "           [--fail-unit=<a,b>]    mark LNIC units/regions offline, then repair\n"
      "                                  the healthy mapping incrementally\n"
      "           [--derate-unit=<name:pct,...>]  derate units to pct%% of nominal\n"
      "           [--fault-plan=<f>]     load a fault plan (docs/robustness.md):\n"
      "                                  armed injection sites + unit faults\n"
      "  simulate --nf <name> [--workload \"<spec>\"] [--csum-sw] [--no-flow-cache]\n"
      "  adversarial --nf <name> [--nic <profile>] [--workload \"<spec>\"]\n"
      "  microbench\n"
      "  trace-gen  --workload \"<spec>\" --out <f.cltr>\n"
      "  trace-info <f.cltr>\n"
      "  profile  <command> [args...]   run any command, then print the pool\n"
      "                                 self-profile (task body / scheduling /\n"
      "                                 barrier-wait per lane)\n"
      "  bench    milp_branch_and_bound | sweep_replay   run one benchmark scenario\n"
      "  bench    serve [--connect=<sock>] [--serve-requests=<N>]\n"
      "                 [--serve-connections=<N>] [--max-inflight=<N>]\n"
      "                 [--chaos [--fault-plan=<f>]]\n"
      "                                 --chaos arms the serve fault sites (torn\n"
      "                                 writes, connection resets, accept failures,\n"
      "                                 slow reads; default seeded plan unless\n"
      "                                 --fault-plan installs one) and asserts every\n"
      "                                 request ends in one well-formed response or\n"
      "                                 one typed client error — zero silent drops\n"
      "                                 hammer a clarad daemon (spawned in-process\n"
      "                                 unless --connect) with a mixed request load;\n"
      "                                 prints client-observed latency percentiles;\n"
      "                                 exit 1 on any dropped connection\n"
      "  bench    diff <old.json> <new.json> [--threshold=0.10] [--pivot-threshold=0.05] [--band=0.02]\n"
      "                                 compare two tracked benchmark runs (perf or\n"
      "                                 accuracy schema, auto-detected); exit 1 on\n"
      "                                 regression beyond the threshold/band, 2 on error\n\n"
      "global:\n"
      "  --connect=<socket>      analyze: send requests to a running clarad over its\n"
      "                          Unix socket instead of analyzing in-process (the CLI\n"
      "                          is a thin client of the same Request/Response API —\n"
      "                          see docs/api.md \"Wire protocol\")\n"
      "  --jobs=<N>              concurrency level for parallel phases (default:\n"
      "                          CLARA_JOBS or hardware threads; 1 = fully serial)\n"
      "  --cache=on|off          content-addressed analysis cache (default: on);\n"
      "                          repeated analyses and sweep points reuse lowered\n"
      "                          IR, dataflow graphs, and ILP mappings\n"
      "  --cache-entries=<N>     cache capacity per stage, in entries (default 256)\n\n"
      "observability (any command):\n"
      "  --trace-out=<f.json>    record pipeline spans; write Chrome trace-event JSON\n"
      "                          (open at chrome://tracing) + flame summary on stderr\n"
      "  --metrics-out=<f>       dump the metrics registry (.json -> JSON, else text)\n"
      "  --metrics-format=<fmt>  json | text | prom (Prometheus text exposition);\n"
      "                          overrides the extension; prom with no --metrics-out\n"
      "                          prints to stdout\n"
      "  --flight-out=<f.json>   dump the flight recorder (Chrome trace JSON) at exit\n"
      "  --breakdown             per-packet latency attribution (analyze: predicted;\n"
      "                          simulate: measured; components sum to the mean)\n");
}

int run_command(const Args& args) {
  if (args.command == "list-nfs") return cmd_list_nfs();
  if (args.command == "list-nics") return cmd_list_nics();
  if (args.command == "print") return cmd_print(args);
  if (args.command == "analyze") return cmd_analyze(args);
  if (args.command == "simulate") return cmd_simulate(args);
  if (args.command == "adversarial") return cmd_adversarial(args);
  if (args.command == "microbench") return cmd_microbench();
  if (args.command == "trace-gen") return cmd_trace_gen(args);
  if (args.command == "trace-info") return cmd_trace_info(args);
  if (args.command == "bench") return cmd_bench(args);
  if (args.command == "profile") return cmd_profile(args);
  usage();
  return args.command.empty() || args.command == "help" || args.command == "--help" ? 0 : 1;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (!args.error.empty()) {
    std::fprintf(stderr, "%s\n", args.error.c_str());
    return 2;
  }
  core::CacheConfig cache_config;
  if (args.has("cache")) {
    const std::string mode = args.get("cache");
    if (mode != "on" && mode != "off") {
      std::fprintf(stderr, "--cache must be 'on' or 'off' (got '%s')\n", mode.c_str());
      return 2;
    }
    cache_config.enabled = mode == "on";
  }
  if (args.has("cache-entries")) {
    const long n = std::atol(args.get("cache-entries").c_str());
    if (n < 1) {
      std::fprintf(stderr, "--cache-entries must be a positive integer\n");
      return 2;
    }
    cache_config.max_entries = static_cast<std::size_t>(n);
  }
  core::analysis_cache().configure(cache_config);
  if (!install_fault_plan(args)) return 2;
  if (args.has("jobs")) {
    const long n = std::atol(args.get("jobs").c_str());
    if (n < 1) {
      std::fprintf(stderr, "--jobs must be a positive integer\n");
      return 1;
    }
    parallel::set_jobs(static_cast<std::size_t>(n));
  }
  // Echo the effective concurrency alongside the version so any run's
  // conditions are reproducible from its stderr log.
  std::fprintf(stderr, "clara %s (%s, jobs=%zu)\n", kVersionString, build_info(),
               parallel::jobs());

  const std::string trace_out = args.get("trace-out");
  if (!trace_out.empty()) obs::tracer().set_enabled(true);

  const int rc = run_command(args);

  if (!trace_out.empty()) {
    if (write_file(trace_out, obs::tracer().to_chrome_json())) {
      std::fprintf(stderr, "wrote %zu spans to %s (open at chrome://tracing)\n",
                   obs::tracer().span_count(), trace_out.c_str());
    }
    std::fprintf(stderr, "%s", obs::tracer().flame_summary().c_str());
  }
  const std::string metrics_out = args.get("metrics-out");
  std::string metrics_format = args.get("metrics-format");
  if (!metrics_format.empty() && metrics_format != "json" && metrics_format != "text" &&
      metrics_format != "prom") {
    std::fprintf(stderr, "--metrics-format must be json, text, or prom (got '%s')\n",
                 metrics_format.c_str());
    return 2;
  }
  if (metrics_format.empty() && !metrics_out.empty()) {
    metrics_format = ends_with(metrics_out, ".json") ? "json" : "text";
  }
  if (!metrics_format.empty()) {
    const std::string rendered = metrics_format == "json"   ? obs::metrics().to_json()
                                 : metrics_format == "prom" ? obs::metrics().to_prometheus()
                                                            : obs::metrics().render_text();
    if (metrics_out.empty()) {
      std::printf("%s", rendered.c_str());
    } else if (write_file(metrics_out, rendered)) {
      std::fprintf(stderr, "wrote metrics (%s) to %s\n", metrics_format.c_str(),
                   metrics_out.c_str());
    }
  }
  const std::string flight_out = args.get("flight-out");
  if (!flight_out.empty()) {
    if (obs::recorder().dump_to_file(flight_out, "flight_out")) {
      std::fprintf(stderr, "wrote flight recorder to %s\n", flight_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", flight_out.c_str());
    }
  }
  return rc;
}
