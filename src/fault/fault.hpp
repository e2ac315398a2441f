// Deterministic fault injection (DESIGN.md §13, docs/robustness.md).
//
// A FaultPlan names *injection sites* — fixed strings compiled into the
// code ("nicsim/drop", "ilp/wave_timeout", ...) — and arms each with a
// trigger: an exact invocation count (`at=`), a period (`every=`), or a
// Bernoulli probability (`p=`) drawn from a splitmix64 stream. Whether a
// given invocation fires is a pure function of
//
//     (plan seed, FNV-1a(site name), caller-supplied invocation key)
//
// with no shared mutable counters, so a plan reproduces bit-identically
// at --jobs=1/2/8 and across reruns: callers supply keys that are
// deterministic in their own domain (packet sequence numbers, wave
// indices, cache digests) rather than global arrival order.
//
// A plan may also name LNIC *unit faults* (fail/derate compute units or
// memory regions); those are applied to a NicProfile up front via
// apply_to_profile() and drive the Mapper::repair() incremental re-solve
// path rather than per-invocation injection.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "lnic/profiles.hpp"

namespace clara::fault {

/// Sentinel for "no exact trigger configured".
inline constexpr std::uint64_t kNoTrigger = ~std::uint64_t{0};

/// One armed injection site. Triggers combine with OR: the site fires
/// when the key matches `at`, when the key falls on the `every` period,
/// or when the per-key Bernoulli draw lands under `probability`.
struct SiteSpec {
  std::string site;                  // e.g. "nicsim/drop"
  double probability = 0.0;          // p= in [0,1]
  std::uint64_t every = 0;           // every=N: fire when key % N == N-1
  std::uint64_t at = kNoTrigger;     // at=K: fire exactly at key K
  double factor = 0.0;               // payload (latency multiplier, derate, ...)
};

/// A parsed fault plan: a seed, a set of armed sites, and a set of LNIC
/// unit faults. Value type; installed process-wide with set_plan().
struct FaultPlan {
  std::uint64_t seed = 0;
  std::vector<SiteSpec> sites;
  std::vector<std::string> failed_units;                    // unit/region names or prefixes
  std::vector<std::pair<std::string, double>> derated_units;  // (name, pct of nominal in (0,100])

  [[nodiscard]] bool empty() const {
    return sites.empty() && failed_units.empty() && derated_units.empty();
  }

  /// The armed spec for `site`, or nullptr when the plan does not arm it.
  [[nodiscard]] const SiteSpec* find(std::string_view site) const;

  /// Pure trigger decision for (site, key) under this plan's seed.
  [[nodiscard]] bool should_fire(std::string_view site, std::uint64_t key) const;

  /// The site's payload factor, or `fallback` when unset/not armed.
  [[nodiscard]] double factor_or(std::string_view site, double fallback) const;

  void add_site(SiteSpec spec);

  /// Parses the textual plan format (docs/robustness.md):
  ///   seed 42
  ///   site nicsim/drop p=0.01
  ///   site ilp/wave_timeout at=2
  ///   site nicsim/emem_spike every=64 factor=8
  ///   fail-unit csum
  ///   derate-unit npu0 50
  /// '#' starts a comment; blank lines are ignored. Errors carry
  /// ErrorCode::kParse.
  static Result<FaultPlan> parse(const std::string& text);

  /// Round-trips through parse(): emits the plan in the textual format.
  [[nodiscard]] std::string serialize() const;
};

/// Installs `plan` as the process-wide plan consulted by inject().
/// Thread-safe; retired plans stay alive for the process lifetime so
/// in-flight readers never observe a dangling pointer. Installing an
/// empty plan (or clear_plan()) restores the zero-overhead fast path.
void set_plan(FaultPlan plan);
void clear_plan();

/// The currently installed plan (an empty static plan when none is set).
const FaultPlan& plan();

namespace detail {
/// Mirrors !plan().empty(); set_plan() stores it after the plan.
extern std::atomic<bool> g_active;
/// inject() once a plan is installed: the trigger decision and the fire.
bool inject_armed(std::string_view site, std::uint64_t key);
}  // namespace detail

/// True when a non-empty plan is installed. Single relaxed atomic load —
/// the hot-path guard inlined into every injection site.
inline bool active() { return detail::g_active.load(std::memory_order_relaxed); }

/// The injection-site hook: true when the installed plan fires `site`
/// for invocation `key`. Bumps the `fault/injected` counter (labelled
/// site=...) on fire. With no plan installed it is the inline guard
/// alone, no call.
inline bool inject(std::string_view site, std::uint64_t key) {
  return active() && detail::inject_armed(site, key);
}

/// Payload factor for `site` from the installed plan (e.g. the latency
/// multiplier of a contention spike), or `fallback`.
double site_factor(std::string_view site, double fallback);

/// Applies the plan's unit faults to a profile: marks failed_units
/// offline and derates derated_units. Returns the number of units
/// touched; errors (kUnknownCall) when a name matches nothing.
Result<int> apply_to_profile(const FaultPlan& plan, lnic::NicProfile& profile);

/// RAII guard for tests: installs a plan, restores the previous plan on
/// scope exit.
class ScopedPlan {
 public:
  explicit ScopedPlan(FaultPlan plan);
  ~ScopedPlan();
  ScopedPlan(const ScopedPlan&) = delete;
  ScopedPlan& operator=(const ScopedPlan&) = delete;

 private:
  FaultPlan previous_;
};

}  // namespace clara::fault
