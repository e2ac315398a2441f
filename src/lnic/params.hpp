// Parameterizing the LNIC — paper §3.2.
//
// The LNIC graph is the "skeleton"; this store annotates it with
// architectural and performance parameters: memory access latencies,
// per-instruction-class cycle counts, accelerator cost curves, queue
// service rates. Parameters are obtained from databooks (profile defaults)
// or microbenchmarks (src/microbench overwrites the defaults with fitted
// values), as a one-time effort per NIC, and are reusable across NFs.
//
// Two value shapes are supported:
//   scalar  — a single number ("mem.read.ctm = 50")
//   curve   — a piecewise-linear function of one argument
//             ("accel.csum.cycles = [(0,60),(1000,300),(1500,430)]"),
//             used where cost is a function of data size or table size.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace clara::lnic {

/// Monotone-x piecewise-linear curve with linear interpolation between
/// points and clamped extrapolation at the ends (the conservative choice
/// for cost curves measured over a bounded sweep).
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  explicit PiecewiseLinear(std::vector<std::pair<double, double>> points);

  [[nodiscard]] double eval(double x) const;
  [[nodiscard]] const std::vector<std::pair<double, double>>& points() const { return points_; }
  [[nodiscard]] bool empty() const { return points_.empty(); }

  /// A curve that is the constant `v` everywhere.
  static PiecewiseLinear constant(double v) { return PiecewiseLinear({{0.0, v}}); }

 private:
  std::vector<std::pair<double, double>> points_;  // sorted by x
};

class ParameterStore {
 public:
  void set_scalar(const std::string& key, double value);
  void set_curve(const std::string& key, PiecewiseLinear curve);

  // Lookups take any string-like key (the keys:: constants included)
  // without building a std::string: the maps compare transparently.

  /// Hard lookup; asserts in debug builds and returns 0 in release when
  /// absent — profiles are expected to be complete, tests enforce it.
  [[nodiscard]] double scalar(std::string_view key) const;
  [[nodiscard]] std::optional<double> try_scalar(std::string_view key) const;

  [[nodiscard]] const PiecewiseLinear* try_curve(std::string_view key) const;

  /// Evaluates `key` at `x`: a curve if one is registered, otherwise the
  /// scalar value (constant in x). Asserts when the key is entirely absent.
  [[nodiscard]] double eval(std::string_view key, double x) const;

  [[nodiscard]] bool has(std::string_view key) const;
  [[nodiscard]] std::vector<std::string> keys() const;

  /// Text serialization (one `key = value` per line; curves as point
  /// lists). Round-trips exactly enough for persistence of fitted
  /// parameters.
  [[nodiscard]] std::string serialize() const;
  static Result<ParameterStore> parse(const std::string& text);

  /// FNV-1a over every scalar's key and bit pattern and every curve's key
  /// and points, without the text form: equal stores, equal digests.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::map<std::string, double, std::less<>> scalars_;
  std::map<std::string, PiecewiseLinear, std::less<>> curves_;
};

/// Well-known parameter keys. Profiles must define all of these; the
/// microbenchmark extractor writes the same keys.
namespace keys {

// Memory access latency (cycles) per level, from an on-island NPU; NUMA
// edge weights in the graph scale these for remote access.
inline constexpr const char* kMemReadLocal = "mem.read.local";
inline constexpr const char* kMemWriteLocal = "mem.write.local";
inline constexpr const char* kMemReadCtm = "mem.read.ctm";
inline constexpr const char* kMemWriteCtm = "mem.write.ctm";
inline constexpr const char* kMemReadImem = "mem.read.imem";
inline constexpr const char* kMemWriteImem = "mem.write.imem";
inline constexpr const char* kMemReadEmem = "mem.read.emem";
inline constexpr const char* kMemWriteEmem = "mem.write.emem";
// Hit latency of the cache fronting EMEM.
inline constexpr const char* kEmemCacheHit = "mem.emem.cache_hit";

// NPU instruction classes (cycles per instruction).
inline constexpr const char* kInstrAlu = "npu.instr.alu";
inline constexpr const char* kInstrMul = "npu.instr.mul";
inline constexpr const char* kInstrDiv = "npu.instr.div";
inline constexpr const char* kInstrBranch = "npu.instr.branch";
inline constexpr const char* kInstrMove = "npu.instr.move";  // metadata modification, 2-5 cycles
// Software emulation penalty multiplier for instructions the datapath
// lacks (e.g., no FPU on NPU cores — paper §3.4).
inline constexpr const char* kInstrFpEmulation = "npu.instr.fp_emulation";

// Header parsing: base + per-byte (the ~150-cycle CTM->local copy path).
inline constexpr const char* kParseBase = "npu.parse.base";
inline constexpr const char* kParsePerByte = "npu.parse.per_byte";

// Accelerator cost curves.
inline constexpr const char* kCsumAccel = "accel.csum.cycles";        // f(bytes)
inline constexpr const char* kCsumSwExtra = "accel.csum.sw_extra";    // added when emulated on NPU
inline constexpr const char* kCryptoAccel = "accel.crypto.cycles";    // f(bytes)
inline constexpr const char* kCryptoSwFactor = "accel.crypto.sw_factor";
inline constexpr const char* kLpmDram = "accel.lpm.dram_cycles";      // f(table entries)
inline constexpr const char* kFlowCacheHit = "accel.flow_cache.hit";  // cycles
inline constexpr const char* kFlowCacheCapacity = "accel.flow_cache.entries";

// Packet datapath.
inline constexpr const char* kIngressDmaBase = "path.ingress.base";
inline constexpr const char* kIngressDmaPerByte = "path.ingress.per_byte";
inline constexpr const char* kEgressBase = "path.egress.base";
inline constexpr const char* kCtmPacketResidency = "path.ctm_packet_bytes";  // <=N bytes stay in CTM
inline constexpr const char* kSpillPerByte = "path.spill.per_byte";          // EMEM tail spill cost

// Switch hub service (cycles per packet through the hub).
inline constexpr const char* kHubService = "hub.service";

// Device clock, Hz (for converting rates to cycles).
inline constexpr const char* kClockHz = "clock.hz";

}  // namespace keys

/// The complete list of keys a usable profile must define (scalar or
/// curve). Exposed so tests can enforce completeness of all profiles.
const std::vector<std::string>& required_keys();

/// Validates that every required key is present.
Status validate_params(const ParameterStore& params);

}  // namespace clara::lnic
