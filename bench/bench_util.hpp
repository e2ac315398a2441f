// Shared helpers for the figure/table reproduction binaries.
//
// Every bench prints the same rows/series the paper's figure plots, a
// "paper shape" annotation describing what the original showed, and the
// observation from this run. Absolute cycle counts come from the
// simulator substrate (DESIGN.md §6), so shapes — growth trends, who
// wins, error magnitudes — are the comparison target.
#pragma once

#include <cstdio>
#include <string>

#include "common/strings.hpp"
#include "common/table.hpp"
#include "core/clara.hpp"
#include "nf/corpus.hpp"
#include "nf/nf_cir.hpp"
#include "nf/nf_ported.hpp"
#include "nicsim/sim.hpp"
#include "workload/tracegen.hpp"

namespace clara::bench {

inline workload::Trace make_trace(const std::string& spec) {
  auto profile = workload::parse_profile(spec);
  if (!profile.ok()) {
    std::fprintf(stderr, "bad workload spec '%s': %s\n", spec.c_str(), profile.error().message.c_str());
    std::exit(1);
  }
  return workload::generate_trace(profile.value());
}

inline core::Analysis analyze_or_die(const core::Analyzer& analyzer, const cir::Function& fn,
                                     const workload::Trace& trace, const core::AnalyzeOptions& options = {}) {
  auto analysis = analyzer.analyze(fn, trace, options);
  if (!analysis.ok()) {
    std::fprintf(stderr, "analysis of '%s' failed: %s\n", fn.name.c_str(), analysis.error().message.c_str());
    std::exit(1);
  }
  return std::move(analysis).value();
}

inline void header(const char* title, const char* paper_shape) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title);
  std::printf("paper shape: %s\n", paper_shape);
  std::printf("==============================================================\n");
}

inline std::string fmt(double v) { return strf("%.0f", v); }
inline std::string fmt1(double v) { return strf("%.1f", v); }
inline std::string fmt2(double v) { return strf("%.2f", v); }
inline std::string pct(double v) { return strf("%.1f%%", v * 100.0); }

}  // namespace clara::bench
