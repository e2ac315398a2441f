#include "lnic/params.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/hash.hpp"
#include "common/strings.hpp"

namespace clara::lnic {

PiecewiseLinear::PiecewiseLinear(std::vector<std::pair<double, double>> points) : points_(std::move(points)) {
  std::sort(points_.begin(), points_.end());
  assert(!points_.empty());
}

double PiecewiseLinear::eval(double x) const {
  assert(!points_.empty());
  if (x <= points_.front().first) return points_.front().second;
  if (x >= points_.back().first) return points_.back().second;
  // Find the segment containing x.
  for (std::size_t i = 1; i < points_.size(); ++i) {
    if (x <= points_[i].first) {
      const auto& [x0, y0] = points_[i - 1];
      const auto& [x1, y1] = points_[i];
      if (x1 == x0) return y1;
      const double t = (x - x0) / (x1 - x0);
      return y0 + t * (y1 - y0);
    }
  }
  return points_.back().second;
}

void ParameterStore::set_scalar(const std::string& key, double value) { scalars_[key] = value; }
void ParameterStore::set_curve(const std::string& key, PiecewiseLinear curve) { curves_[key] = std::move(curve); }

double ParameterStore::scalar(std::string_view key) const {
  const auto it = scalars_.find(key);
  assert(it != scalars_.end() && "missing scalar parameter");
  return it != scalars_.end() ? it->second : 0.0;
}

std::optional<double> ParameterStore::try_scalar(std::string_view key) const {
  const auto it = scalars_.find(key);
  if (it == scalars_.end()) return std::nullopt;
  return it->second;
}

const PiecewiseLinear* ParameterStore::try_curve(std::string_view key) const {
  const auto it = curves_.find(key);
  return it == curves_.end() ? nullptr : &it->second;
}

double ParameterStore::eval(std::string_view key, double x) const {
  if (const auto* curve = try_curve(key)) return curve->eval(x);
  return scalar(key);
}

bool ParameterStore::has(std::string_view key) const {
  return scalars_.contains(key) || curves_.contains(key);
}

std::vector<std::string> ParameterStore::keys() const {
  std::vector<std::string> out;
  out.reserve(scalars_.size() + curves_.size());
  for (const auto& [k, _] : scalars_) out.push_back(k);
  for (const auto& [k, _] : curves_) out.push_back(k);
  std::sort(out.begin(), out.end());
  return out;
}

std::string ParameterStore::serialize() const {
  std::ostringstream os;
  for (const auto& [k, v] : scalars_) os << k << " = " << strf("%.17g", v) << "\n";
  for (const auto& [k, curve] : curves_) {
    os << k << " = [";
    bool first = true;
    for (const auto& [x, y] : curve.points()) {
      if (!first) os << ", ";
      first = false;
      os << "(" << strf("%.17g", x) << ", " << strf("%.17g", y) << ")";
    }
    os << "]\n";
  }
  return os.str();
}

std::uint64_t ParameterStore::digest() const {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(scalars_.size()));
  for (const auto& [k, v] : scalars_) h.mix(std::string_view(k)).mix(v);
  h.mix(static_cast<std::uint64_t>(curves_.size()));
  for (const auto& [k, curve] : curves_) {
    h.mix(std::string_view(k)).mix(static_cast<std::uint64_t>(curve.points().size()));
    for (const auto& [x, y] : curve.points()) h.mix(x).mix(y);
  }
  return h.digest();
}

Result<ParameterStore> ParameterStore::parse(const std::string& text) {
  ParameterStore store;
  std::size_t line_no = 0;
  for (const auto& raw_line : split(text, '\n')) {
    ++line_no;
    const auto line = trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      return make_error(strf("params line %zu: expected 'key = value'", line_no));
    }
    const std::string key{trim(line.substr(0, eq))};
    const auto value = trim(line.substr(eq + 1));
    if (key.empty()) return make_error(strf("params line %zu: empty key", line_no));

    if (!value.empty() && value.front() == '[') {
      if (value.back() != ']') return make_error(strf("params line %zu: unterminated curve", line_no));
      std::vector<std::pair<double, double>> points;
      // Parse "(x, y)" pairs inside the brackets.
      std::string_view body = value.substr(1, value.size() - 2);
      while (true) {
        const auto open = body.find('(');
        if (open == std::string_view::npos) break;
        const auto close = body.find(')', open);
        if (close == std::string_view::npos) return make_error(strf("params line %zu: unterminated point", line_no));
        const auto pair_text = body.substr(open + 1, close - open - 1);
        const auto comma = pair_text.find(',');
        if (comma == std::string_view::npos) return make_error(strf("params line %zu: point needs 'x, y'", line_no));
        const auto x = parse_double(trim(pair_text.substr(0, comma)));
        const auto y = parse_double(trim(pair_text.substr(comma + 1)));
        if (!x || !y) return make_error(strf("params line %zu: bad number in point", line_no));
        points.emplace_back(*x, *y);
        body = body.substr(close + 1);
      }
      if (points.empty()) return make_error(strf("params line %zu: empty curve", line_no));
      store.set_curve(key, PiecewiseLinear(std::move(points)));
    } else {
      const auto v = parse_double(value);
      if (!v) return make_error(strf("params line %zu: bad scalar '%.*s'", line_no, (int)value.size(), value.data()));
      store.set_scalar(key, *v);
    }
  }
  return store;
}

const std::vector<std::string>& required_keys() {
  static const std::vector<std::string> kKeys = {
      keys::kMemReadLocal,   keys::kMemWriteLocal,   keys::kMemReadCtm,    keys::kMemWriteCtm,
      keys::kMemReadImem,    keys::kMemWriteImem,    keys::kMemReadEmem,   keys::kMemWriteEmem,
      keys::kEmemCacheHit,   keys::kInstrAlu,        keys::kInstrMul,      keys::kInstrDiv,
      keys::kInstrBranch,    keys::kInstrMove,       keys::kInstrFpEmulation,
      keys::kParseBase,      keys::kParsePerByte,    keys::kCsumAccel,     keys::kCsumSwExtra,
      keys::kCryptoAccel,    keys::kCryptoSwFactor,  keys::kLpmDram,       keys::kFlowCacheHit,
      keys::kFlowCacheCapacity, keys::kIngressDmaBase, keys::kIngressDmaPerByte, keys::kEgressBase,
      keys::kCtmPacketResidency, keys::kSpillPerByte, keys::kHubService,   keys::kClockHz,
  };
  return kKeys;
}

Status validate_params(const ParameterStore& params) {
  for (const auto& key : required_keys()) {
    if (!params.has(key)) return make_error("missing required parameter: " + key);
  }
  return {};
}

}  // namespace clara::lnic
