#include "fault/fault.hpp"

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace clara::fault {
namespace {

// The installed plan. Readers load the pointer with acquire semantics;
// set_plan publishes a fresh heap plan with release semantics and parks
// the previous one in a retire list (never freed while the process
// lives) so a reader mid-injection can never observe a dangling plan.
// detail::g_active mirrors !plan->empty() so the no-fault hot path is a
// single relaxed load.
std::atomic<const FaultPlan*> g_plan{nullptr};
std::mutex g_install_mu;
std::vector<std::unique_ptr<const FaultPlan>>& retired_plans() {
  static auto* list = new std::vector<std::unique_ptr<const FaultPlan>>();
  return *list;
}

const FaultPlan& empty_plan() {
  static const FaultPlan* p = new FaultPlan();
  return *p;
}

/// Uniform double in [0, 1) from the high 53 bits of a mixed u64.
double to_unit_interval(std::uint64_t v) { return static_cast<double>(v >> 11) * 0x1.0p-53; }

}  // namespace

std::atomic<bool> detail::g_active{false};

const SiteSpec* FaultPlan::find(std::string_view site) const {
  for (const auto& s : sites)
    if (s.site == site) return &s;
  return nullptr;
}

bool FaultPlan::should_fire(std::string_view site, std::uint64_t key) const {
  const SiteSpec* spec = find(site);
  if (spec == nullptr) return false;
  if (spec->at != kNoTrigger && key == spec->at) return true;
  if (spec->every > 0 && key % spec->every == spec->every - 1) return true;
  if (spec->probability > 0.0) {
    // Pure function of (seed, site, key): splitmix64 over the combined
    // digest — no shared counter, so jobs=1/2/8 agree bit-for-bit.
    const std::uint64_t site_hash = Fnv1a().mix(site).digest();
    const std::uint64_t draw = parallel::shard_seed(seed ^ site_hash, key);
    if (to_unit_interval(draw) < spec->probability) return true;
  }
  return false;
}

double FaultPlan::factor_or(std::string_view site, double fallback) const {
  const SiteSpec* spec = find(site);
  if (spec == nullptr || spec->factor <= 0.0) return fallback;
  return spec->factor;
}

void FaultPlan::add_site(SiteSpec spec) {
  for (auto& s : sites) {
    if (s.site == spec.site) {
      s = std::move(spec);
      return;
    }
  }
  sites.push_back(std::move(spec));
}

Result<FaultPlan> FaultPlan::parse(const std::string& text) {
  constexpr std::size_t kMaxPlanBytes = 1u << 20;
  if (text.size() > kMaxPlanBytes) {
    return make_error(ErrorCode::kParse,
                      strf("fault plan too large (%zu bytes, limit %zu)", text.size(),
                           static_cast<std::size_t>(kMaxPlanBytes)));
  }
  FaultPlan plan;
  const auto lines = split(text, '\n');
  for (std::size_t ln = 0; ln < lines.size(); ++ln) {
    std::string_view line = trim(lines[ln]);
    if (const auto hash = line.find('#'); hash != std::string_view::npos)
      line = trim(line.substr(0, hash));
    if (line.empty()) continue;

    std::vector<std::string> tokens;
    for (const auto& tok : split(line, ' '))
      if (!trim(tok).empty()) tokens.emplace_back(trim(tok));

    auto err = [&](const char* what) {
      return make_error(ErrorCode::kParse, strf("fault plan line %zu: %s", ln + 1, what));
    };

    if (tokens[0] == "seed") {
      if (tokens.size() != 2) return err("expected 'seed N'");
      const auto v = parse_int(tokens[1]);
      if (!v || *v < 0) return err("seed must be a non-negative integer");
      plan.seed = static_cast<std::uint64_t>(*v);
    } else if (tokens[0] == "site") {
      if (tokens.size() < 3) return err("expected 'site NAME trigger...'");
      SiteSpec spec;
      spec.site = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const auto eq = tokens[i].find('=');
        if (eq == std::string::npos) return err("site trigger must be key=value");
        const std::string key = tokens[i].substr(0, eq);
        const std::string val = tokens[i].substr(eq + 1);
        if (key == "p") {
          const auto p = parse_double(val);
          if (!p || *p < 0.0 || *p > 1.0) return err("p= must be in [0,1]");
          spec.probability = *p;
        } else if (key == "every") {
          const auto n = parse_int(val);
          if (!n || *n <= 0) return err("every= must be a positive integer");
          spec.every = static_cast<std::uint64_t>(*n);
        } else if (key == "at") {
          const auto n = parse_int(val);
          if (!n || *n < 0) return err("at= must be a non-negative integer");
          spec.at = static_cast<std::uint64_t>(*n);
        } else if (key == "factor") {
          const auto f = parse_double(val);
          if (!f || *f <= 0.0) return err("factor= must be positive");
          spec.factor = *f;
        } else {
          return err("unknown site trigger (expected p=/every=/at=/factor=)");
        }
      }
      if (spec.probability == 0.0 && spec.every == 0 && spec.at == kNoTrigger)
        return err("site needs at least one of p=/every=/at=");
      plan.add_site(std::move(spec));
    } else if (tokens[0] == "fail-unit") {
      if (tokens.size() != 2) return err("expected 'fail-unit NAME'");
      plan.failed_units.push_back(tokens[1]);
    } else if (tokens[0] == "derate-unit") {
      if (tokens.size() != 3) return err("expected 'derate-unit NAME PCT'");
      const auto pct = parse_double(tokens[2]);
      if (!pct || *pct <= 0.0 || *pct > 100.0) return err("derate pct must be in (0,100]");
      plan.derated_units.emplace_back(tokens[1], *pct);
    } else {
      return err("unknown directive (expected seed/site/fail-unit/derate-unit)");
    }
  }
  return plan;
}

std::string FaultPlan::serialize() const {
  std::string out = strf("seed %llu\n", static_cast<unsigned long long>(seed));
  for (const auto& s : sites) {
    out += "site " + s.site;
    if (s.probability > 0.0) out += strf(" p=%.17g", s.probability);
    if (s.every > 0) out += strf(" every=%llu", static_cast<unsigned long long>(s.every));
    if (s.at != kNoTrigger) out += strf(" at=%llu", static_cast<unsigned long long>(s.at));
    if (s.factor > 0.0) out += strf(" factor=%.17g", s.factor);
    out += '\n';
  }
  for (const auto& u : failed_units) out += "fail-unit " + u + "\n";
  for (const auto& [u, pct] : derated_units) out += strf("derate-unit %s %.17g\n", u.c_str(), pct);
  return out;
}

void set_plan(FaultPlan plan) {
  const bool active = !plan.empty();
  auto owned = std::make_unique<const FaultPlan>(std::move(plan));
  const FaultPlan* raw = owned.get();
  std::lock_guard<std::mutex> lock(g_install_mu);
  retired_plans().push_back(std::move(owned));
  g_plan.store(raw, std::memory_order_release);
  detail::g_active.store(active, std::memory_order_release);
}

void clear_plan() { set_plan(FaultPlan{}); }

const FaultPlan& plan() {
  const FaultPlan* p = g_plan.load(std::memory_order_acquire);
  return p != nullptr ? *p : empty_plan();
}

bool detail::inject_armed(std::string_view site, std::uint64_t key) {
  if (!plan().should_fire(site, key)) return false;
  obs::metrics().counter("fault/injected", "site=" + std::string(site)).inc();
  // A firing site is exactly the "something just went wrong" moment the
  // flight recorder exists for: record the fire, then dump the rings
  // (auto_dump throttles itself to once per process).
  obs::record(obs::FlightEventKind::kFaultFire, Fnv1a().mix(site).digest(), key);
  obs::recorder().auto_dump("fault_" + std::string(site));
  return true;
}

double site_factor(std::string_view site, double fallback) {
  if (!active()) return fallback;
  return plan().factor_or(site, fallback);
}

Result<int> apply_to_profile(const FaultPlan& plan, lnic::NicProfile& profile) {
  int touched = 0;
  for (const auto& name : plan.failed_units) {
    auto r = profile.graph.mark_offline(name);
    if (!r.ok()) return r.error();
    touched += r.value();
  }
  for (const auto& [name, pct] : plan.derated_units) {
    auto r = profile.graph.derate_units(name, pct / 100.0);
    if (!r.ok()) return r.error();
    touched += r.value();
  }
  return touched;
}

ScopedPlan::ScopedPlan(FaultPlan p) : previous_(plan()) { set_plan(std::move(p)); }
ScopedPlan::~ScopedPlan() { set_plan(std::move(previous_)); }

}  // namespace clara::fault
