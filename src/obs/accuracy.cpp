#include "obs/accuracy.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/sweep.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "nicsim/sim.hpp"
#include "obs/metrics.hpp"

namespace clara::obs {

namespace {

/// Exact p95 over a small sample set (closest-rank; the per-NF scenario
/// counts are single digits, so interpolation would overstate precision).
double percentile95(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  return strf("%.6f", v);
}

}  // namespace

Result<cir::Function, Error> scenario_function(const ValidationScenario& scenario) {
  if (scenario.nf == "lpm") {
    return nf::build_lpm_nf({.rules = scenario.lpm_rules, .use_flow_cache = scenario.lpm_flow_cache});
  }
  const nf::NfEntry* entry = nf::find_nf(scenario.nf);
  if (entry == nullptr) return make_error(strf("no validation recipe for NF '%s'", scenario.nf.c_str()));
  return entry->build();
}

Result<ScenarioResult, Error> validate_prediction(const core::Analyzer& analyzer,
                                                  const ValidationScenario& scenario,
                                                  const core::Analysis& analysis,
                                                  const workload::Trace& trace) {
  // nicsim models one device: netronome_config() mirrors this profile's
  // databook. Any other NIC would be compared with Netronome cycles.
  if (const std::string& nic = analyzer.profile().name; nic != "netronome-agilio-cx") {
    return make_error(ErrorCode::kParse,
                      strf("no simulator models NIC '%s'; validate runs only on "
                           "netronome-agilio-cx",
                           nic.c_str()));
  }
  const nicsim::SimLease sim;
  auto ported = nf::port(scenario.nf, analysis.lowered, *sim,
                         nf::mapped_levels(analyzer.profile(), analysis.mapping.state_region),
                         {.flow_cache = scenario.lpm_flow_cache});
  if (!ported) return ported.error();
  // A port with an LPM table runs its lookups on the match-action engine;
  // the predictor only books cycles there when the ILP chose that
  // binding. If the mapping kept the walk in software the pair is
  // incomparable (there is no software-walk port), so fail loudly instead
  // of silently attributing the mismatch as model error.
  const auto& tables = ported.value().tables;
  const bool on_engine = std::any_of(tables.begin(), tables.end(), [](const nf::Table& table) {
    return std::holds_alternative<const nicsim::LpmTable*>(table);
  });
  if (on_engine &&
      analysis.prediction.breakdown.cycles[static_cast<std::size_t>(Component::kLpmEngine)] <= 0.0) {
    return make_error(ErrorCode::kParse,
                      strf("mapping for '%s' keeps the LPM walk off the engine; no software port to "
                           "validate against",
                           scenario.name().c_str()));
  }
  const auto stats = sim->run(*ported.value().program, trace);
  if (stats.packets == 0 || stats.mean_latency() <= 0.0) {
    return make_error(strf("simulator delivered no packets for '%s'", scenario.nf.c_str()));
  }

  ScenarioResult result;
  result.scenario = scenario;
  result.seed = trace.profile.seed;
  result.ok = true;
  result.predicted_cycles = analysis.prediction.mean_latency_cycles;
  result.simulated_cycles = stats.mean_latency();
  result.rel_err =
      std::abs(result.predicted_cycles - result.simulated_cycles) / result.simulated_cycles;
  result.predicted = analysis.prediction.breakdown;
  result.simulated = stats.breakdown.means();
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    auto& c = result.components[i];
    c.predicted_cycles = result.predicted.cycles[i];
    c.simulated_cycles = result.simulated.cycles[i];
    c.error_share = std::abs(c.predicted_cycles - c.simulated_cycles) / result.simulated_cycles;
  }
  return result;
}

std::string render_validation(const ScenarioResult& result) {
  TextTable table({"component", "predicted cyc", "simulated cyc", "gap", "share of error"});
  for (std::size_t i = 0; i < kComponentCount; ++i) {
    const auto& c = result.components[i];
    if (c.predicted_cycles <= 0.0 && c.simulated_cycles <= 0.0) continue;
    table.add_row({component_name(static_cast<Component>(i)), strf("%.1f", c.predicted_cycles),
                   strf("%.1f", c.simulated_cycles),
                   strf("%+.1f", c.predicted_cycles - c.simulated_cycles),
                   strf("%.2f%%", c.error_share * 100.0)});
  }
  table.add_row({"total", strf("%.1f", result.predicted_cycles),
                 strf("%.1f", result.simulated_cycles),
                 strf("%+.1f", result.predicted_cycles - result.simulated_cycles),
                 strf("%.2f%%", result.rel_err * 100.0)});
  return table.render();
}

AccuracyLedger::AccuracyLedger(AccuracyOptions options) : options_(options) {}

std::vector<ValidationScenario> AccuracyLedger::default_matrix() {
  std::vector<ValidationScenario> matrix;
  // §4 headline NFs over their figure sweep variables. LPM always ports
  // through the match-action engine with the flow cache (the plan the
  // mapper selects — see validate_prediction's guard); the sweep varies
  // rule-table size plus one skewed-flow point that stresses the cache.
  for (const std::uint64_t rules : {5'000ull, 15'000ull, 30'000ull}) {
    matrix.push_back({"lpm", strf("rules=%llu", (unsigned long long)rules),
                      "tcp=0.8 flows=5000 payload=300 pps=60000 packets=20000", rules, true});
  }
  matrix.push_back({"lpm", "zipf",
                    "tcp=0.8 flows=20000 zipf=0.8 payload=300 pps=60000 packets=20000", 10'000,
                    true});
  for (const int payload : {200, 800, 1400}) {
    matrix.push_back({"nat", strf("payload=%d", payload),
                      strf("tcp=0.8 flows=10000 payload=%d pps=60000 packets=15000", payload)});
  }
  for (const int payload : {200, 800, 1400}) {
    matrix.push_back({"vnf-chain", strf("payload=%d", payload),
                      strf("tcp=0.8 flows=4000 payload=%d pps=60000 packets=15000", payload)});
  }
  // The rest of the ported corpus at a standard workload.
  matrix.push_back({"firewall", "standard",
                    "tcp=1.0 flows=5000 payload=400 pps=60000 packets=12000"});
  matrix.push_back({"heavy-hitter", "standard",
                    "tcp=0.8 flows=5000 payload=400 pps=60000 packets=12000"});
  matrix.push_back({"meter", "standard",
                    "tcp=0.8 flows=5000 payload=400 pps=60000 packets=12000"});
  matrix.push_back({"flow-stats", "standard",
                    "tcp=0.8 flows=5000 payload=400 pps=60000 packets=12000"});
  for (const int payload : {400, 1200}) {
    matrix.push_back({"dpi", strf("payload=%d", payload),
                      strf("tcp=0.8 flows=5000 payload=%d pps=60000 packets=8000", payload)});
  }
  matrix.push_back({"rewrite", "standard",
                    "tcp=0.8 flows=5000 payload=400 pps=60000 packets=8000"});
  matrix.push_back({"crypto-gw", "standard",
                    "tcp=0.8 flows=4000 payload=400 pps=60000 packets=8000"});
  return matrix;
}

AccuracyReport AccuracyLedger::run(const std::vector<ValidationScenario>& matrix,
                                   const lnic::NicProfile& profile) const {
  // One sweep point per scenario; the grid derives per-scenario seed
  // streams from the base seed, and run_sweep returns results in matrix
  // order regardless of scheduling — the determinism contract.
  std::vector<std::vector<double>> params;
  params.reserve(matrix.size());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    params.push_back({static_cast<double>(i)});
  }
  const auto grid = core::make_grid({}, params, options_.seed);

  std::vector<ScenarioResult> slots(matrix.size());
  const auto eval = [&](const core::SweepPoint& point, core::SweepResult& out) {
    const auto& scenario = matrix[point.index];
    ScenarioResult& slot = slots[point.index];
    slot.scenario = scenario;
    slot.seed = point.seed;

    auto parsed = workload::parse_profile(scenario.workload);
    if (!parsed) {
      out.ok = false;
      out.error = slot.error = parsed.error().message;
      return;
    }
    auto wl = parsed.value();
    wl.seed = point.seed;
    if (options_.max_packets > 0) wl.packets = std::min(wl.packets, options_.max_packets);
    const auto trace = workload::generate_trace(wl);

    auto fn = scenario_function(scenario);
    if (!fn) {
      out.ok = false;
      out.error = slot.error = fn.error().message;
      return;
    }
    const core::Analyzer analyzer(profile);
    auto analysis = analyzer.analyze(fn.value(), trace);
    if (!analysis) {
      out.ok = false;
      out.error = slot.error = analysis.error().message;
      return;
    }
    auto result = validate_prediction(analyzer, scenario, analysis.value(), trace);
    if (!result) {
      out.ok = false;
      out.error = slot.error = result.error().message;
      return;
    }
    slot = std::move(result).value();
    slot.seed = point.seed;
    out.value = slot.rel_err;
    out.stats.add(slot.rel_err);
  };

  core::SweepOptions sweep_options;
  sweep_options.jobs = options_.jobs;
  core::SweepFailureSummary failures;
  (void)core::run_sweep(grid, eval, sweep_options, &failures);

  AccuracyReport report;
  report.seed = options_.seed;
  report.scenarios = std::move(slots);

  // Per-NF aggregation in first-appearance order.
  std::vector<std::string> order;
  std::map<std::string, std::vector<const ScenarioResult*>> by_nf;
  for (const auto& s : report.scenarios) {
    if (!s.ok) {
      ++report.failures;
      continue;
    }
    if (!by_nf.count(s.scenario.nf)) order.push_back(s.scenario.nf);
    by_nf[s.scenario.nf].push_back(&s);
  }
  for (const auto& nf_name : order) {
    const auto& results = by_nf[nf_name];
    NfAccuracy agg;
    agg.nf = nf_name;
    agg.scenarios = results.size();
    std::vector<double> errs;
    const double weight = 1.0 / static_cast<double>(results.size());
    for (const auto* r : results) {
      errs.push_back(r->rel_err);
      agg.predicted.add_scaled(r->predicted, weight);
      agg.simulated.add_scaled(r->simulated, weight);
      for (std::size_t i = 0; i < kComponentCount; ++i) {
        agg.error_share[i] += weight * r->components[i].error_share;
      }
    }
    double total = 0.0;
    for (const double e : errs) total += e;
    agg.mean_rel_err = total / static_cast<double>(errs.size());
    agg.p95_rel_err = percentile95(errs);
    agg.max_rel_err = *std::max_element(errs.begin(), errs.end());
    std::size_t worst = 0;
    for (std::size_t i = 1; i < kComponentCount; ++i) {
      if (agg.error_share[i] > agg.error_share[worst]) worst = i;
    }
    agg.worst_component = component_name(static_cast<Component>(worst));
    agg.worst_component_share = agg.error_share[worst];
    report.per_nf.push_back(std::move(agg));
  }
  return report;
}

AccuracyReport AccuracyLedger::run() const {
  return run(default_matrix(), lnic::netronome_agilio_cx());
}

std::string AccuracyReport::render() const {
  TextTable per_nf_table(
      {"NF", "scenarios", "mean err", "p95 err", "max err", "worst component (share)"});
  for (const auto& nf : per_nf) {
    per_nf_table.add_row({nf.nf, strf("%zu", nf.scenarios), strf("%.2f%%", nf.mean_rel_err * 100.0),
                          strf("%.2f%%", nf.p95_rel_err * 100.0),
                          strf("%.2f%%", nf.max_rel_err * 100.0),
                          strf("%s (%.2f%%)", nf.worst_component.c_str(),
                               nf.worst_component_share * 100.0)});
  }
  std::string out = per_nf_table.render();

  TextTable detail({"scenario", "predicted cyc", "simulated cyc", "rel err", "seed"});
  for (const auto& s : scenarios) {
    if (!s.ok) {
      detail.add_row({s.scenario.name(), "error: " + s.error, "", "", ""});
      continue;
    }
    detail.add_row({s.scenario.name(), strf("%.1f", s.predicted_cycles),
                    strf("%.1f", s.simulated_cycles), strf("%.2f%%", s.rel_err * 100.0),
                    strf("%llu", (unsigned long long)s.seed)});
  }
  out += "\n" + detail.render();
  if (failures > 0) out += strf("WARNING: %zu scenario(s) failed\n", failures);
  return out;
}

std::string AccuracyReport::to_json() const {
  std::string out;
  out += "{\n  \"schema\": \"clara-bench-accuracy/1\",\n";
  out += strf("  \"seed\": %llu,\n", (unsigned long long)seed);
  out += strf("  \"failures\": %zu,\n", failures);
  out += "  \"scenarios\": [\n";
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto& s = scenarios[i];
    out += strf(
        "    {\"name\": \"%s\", \"nf\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, "
        "\"ok\": %s, \"predicted_cycles\": %s, \"simulated_cycles\": %s, \"rel_err\": %s}%s\n",
        s.scenario.name().c_str(), s.scenario.nf.c_str(), s.scenario.workload.c_str(),
        (unsigned long long)s.seed, s.ok ? "true" : "false",
        json_number(s.predicted_cycles).c_str(), json_number(s.simulated_cycles).c_str(),
        json_number(s.rel_err).c_str(), i + 1 < scenarios.size() ? "," : "");
  }
  out += "  ],\n  \"nfs\": [\n";
  for (std::size_t i = 0; i < per_nf.size(); ++i) {
    const auto& nf = per_nf[i];
    out += strf(
        "    {\"name\": \"%s\", \"scenarios\": %zu, \"mean_rel_err\": %s, \"p95_rel_err\": %s, "
        "\"max_rel_err\": %s, \"worst_component\": \"%s\", \"worst_component_share\": %s,\n",
        nf.nf.c_str(), nf.scenarios, json_number(nf.mean_rel_err).c_str(),
        json_number(nf.p95_rel_err).c_str(), json_number(nf.max_rel_err).c_str(),
        nf.worst_component.c_str(), json_number(nf.worst_component_share).c_str());
    out += "     \"components\": [\n";
    bool first = true;
    for (std::size_t c = 0; c < kComponentCount; ++c) {
      // Keep the document focused: skip components neither side charges.
      if (nf.predicted.cycles[c] <= 0.0 && nf.simulated.cycles[c] <= 0.0) continue;
      out += strf(
          "       %s{\"name\": \"%s\", \"predicted_cycles\": %s, \"simulated_cycles\": %s, "
          "\"error_share\": %s}",
          first ? "" : ",", component_name(static_cast<Component>(c)),
          json_number(nf.predicted.cycles[c]).c_str(), json_number(nf.simulated.cycles[c]).c_str(),
          json_number(nf.error_share[c]).c_str());
      out += "\n";
      first = false;
    }
    out += strf("     ]}%s\n", i + 1 < per_nf.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

void AccuracyReport::publish_metrics() const {
  double overall = 0.0;
  std::size_t n = 0;
  for (const auto& nf : per_nf) {
    const std::string labels = "nf=" + nf.nf;
    metrics().gauge("accuracy/mean_rel_err", labels).set(nf.mean_rel_err);
    metrics().gauge("accuracy/p95_rel_err", labels).set(nf.p95_rel_err);
    metrics().gauge("accuracy/max_rel_err", labels).set(nf.max_rel_err);
    metrics().gauge("accuracy/worst_component_share", labels).set(nf.worst_component_share);
    overall += nf.mean_rel_err * static_cast<double>(nf.scenarios);
    n += nf.scenarios;
  }
  metrics().gauge("accuracy/overall_mean_rel_err")
      .set(n > 0 ? overall / static_cast<double>(n) : 0.0);
  metrics().gauge("accuracy/scenarios").set(static_cast<double>(n));
  metrics().gauge("accuracy/failed_scenarios").set(static_cast<double>(failures));
}

}  // namespace clara::obs
