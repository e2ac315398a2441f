#include "workload/profile.hpp"

#include <sstream>

#include "common/json.hpp"
#include "common/strings.hpp"

namespace clara::workload {

std::string WorkloadProfile::serialize() const {
  // Doubles print shortest-round-trip, so parse(serialize()) restores
  // every field exactly.
  std::ostringstream os;
  os << "tcp=" << json_number(tcp_fraction) << " flows=" << flows
     << " zipf=" << json_number(zipf_alpha);
  os << " payload=" << payload_min;
  if (payload_max != payload_min) os << ":" << payload_max;
  os << " pps=" << json_number(pps) << " packets=" << packets;
  os << " arrivals=" << (arrivals == ArrivalProcess::kPoisson ? "poisson" : "deterministic");
  os << " seed=" << seed;
  return os.str();
}

Result<WorkloadProfile> parse_profile(const std::string& text) {
  WorkloadProfile p;
  for (const auto& raw : split(text, ' ')) {
    const auto token = trim(raw);
    if (token.empty()) continue;
    const auto eq = token.find('=');
    if (eq == std::string_view::npos) return make_error(strf("profile: expected key=value, got '%s'", std::string(token).c_str()));
    const auto key = token.substr(0, eq);
    const auto value = token.substr(eq + 1);

    if (key == "tcp") {
      const auto v = parse_double(value);
      if (!v || *v < 0.0 || *v > 1.0) return make_error("profile: tcp must be in [0,1]");
      p.tcp_fraction = *v;
    } else if (key == "flows") {
      const auto v = parse_int(value);
      if (!v || *v <= 0) return make_error("profile: flows must be positive");
      p.flows = static_cast<std::uint32_t>(*v);
    } else if (key == "zipf") {
      const auto v = parse_double(value);
      if (!v || *v < 0.0) return make_error("profile: zipf must be >= 0");
      p.zipf_alpha = *v;
    } else if (key == "payload") {
      const auto colon = value.find(':');
      if (colon == std::string_view::npos) {
        const auto v = parse_int(value);
        if (!v || *v < 0 || *v > 9000) return make_error("profile: bad payload");
        p.payload_min = p.payload_max = static_cast<std::uint16_t>(*v);
      } else {
        const auto lo = parse_int(value.substr(0, colon));
        const auto hi = parse_int(value.substr(colon + 1));
        if (!lo || !hi || *lo < 0 || *hi < *lo || *hi > 9000) return make_error("profile: bad payload range");
        p.payload_min = static_cast<std::uint16_t>(*lo);
        p.payload_max = static_cast<std::uint16_t>(*hi);
      }
    } else if (key == "pps") {
      const auto v = parse_double(value);
      if (!v || *v <= 0.0) return make_error("profile: pps must be positive");
      p.pps = *v;
    } else if (key == "packets") {
      const auto v = parse_int(value);
      if (!v || *v <= 0) return make_error("profile: packets must be positive");
      p.packets = static_cast<std::uint64_t>(*v);
    } else if (key == "arrivals") {
      if (value == "poisson") {
        p.arrivals = ArrivalProcess::kPoisson;
      } else if (value == "deterministic") {
        p.arrivals = ArrivalProcess::kDeterministic;
      } else {
        return make_error("profile: arrivals must be poisson or deterministic");
      }
    } else if (key == "seed") {
      const auto v = parse_int(value);
      if (!v || *v < 0) return make_error("profile: bad seed");
      p.seed = static_cast<std::uint64_t>(*v);
    } else {
      return make_error(strf("profile: unknown key '%s'", std::string(key).c_str()));
    }
  }
  return p;
}

}  // namespace clara::workload
