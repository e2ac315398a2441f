// Abstract workload profiles — paper §3.5.
//
// "The user may provide a 'workload profile' to describe the target
// traffic — e.g., a pcap trace or a more abstract profile such as
// '80% TCP vs 20% UDP' or '10k concurrent TCP flows with 300-byte
// average packet size'." This type is that profile, with a textual
// syntax for tools:
//
//   tcp=0.8 flows=10000 payload=300 zipf=1.1 pps=60000 packets=1000000
//   payload=200:1400     (uniform range)
#pragma once

#include <cstdint>
#include <string>

#include "common/result.hpp"

namespace clara::workload {

/// Spec limits shared outside the field list: the `pps` range (sweep points
/// and trace files), and the `zipf` and `packets` caps (trace files).
inline constexpr double kMinPps = 1.0, kMaxPps = 1e9;
inline constexpr double kMaxZipf = 8.0;
inline constexpr std::uint64_t kMaxPackets = std::uint64_t{1} << 24;

enum class ArrivalProcess {
  kDeterministic,  // fixed inter-arrival = 1/pps
  kPoisson,        // exponential inter-arrivals with mean 1/pps
};

struct WorkloadProfile {
  double tcp_fraction = 0.8;
  /// Number of concurrent flows; flow popularity is Zipf(zipf_alpha)
  /// (alpha = 0 gives uniform).
  std::uint32_t flows = 10'000;
  double zipf_alpha = 1.0;
  /// Payload size range [payload_min, payload_max]; equal = fixed size.
  std::uint16_t payload_min = 300;
  std::uint16_t payload_max = 300;
  /// Offered load in packets per second.
  double pps = 60'000.0;
  /// Trace length.
  std::uint64_t packets = 100'000;
  ArrivalProcess arrivals = ArrivalProcess::kDeterministic;
  std::uint64_t seed = 42;

  /// Textual form; parse_profile(serialize()) restores every field exactly.
  [[nodiscard]] std::string serialize() const;
  /// Every field at full precision, seed included: equal digests, equal traces.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Parses "key=value" pairs separated by whitespace. A value outside its
/// key's closed range, or an unknown key, is kParse naming the key;
/// omitted keys keep their defaults, a repeated key its last value.
Result<WorkloadProfile> parse_profile(const std::string& text);

}  // namespace clara::workload
