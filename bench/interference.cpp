// §3.5 interference — co-resident NFs on one SmartNIC.
//
// Clara slices the LNIC ("model half of the NIC") and adds the
// neighbour's working set as cache pressure. Validation: the simulator
// runs both NFs truly co-resident (flows steered alternately to NAT and
// DPI on one device) and we compare per-NF degradation against Clara's
// co-resident prediction.
#include "bench_util.hpp"

namespace clara::bench {
namespace {

/// Steers even flows to one program, odd flows to the other — the NIC
/// switch's steering rule for two co-resident NFs.
class MuxProgram final : public nicsim::NicProgram {
 public:
  MuxProgram(nicsim::NicProgram& a, nicsim::NicProgram& b) : a_(&a), b_(&b) {}
  void handle(nicsim::NicApi& api) override {
    if (api.pkt().flow_id % 2 == 0) {
      a_->handle(api);
    } else {
      b_->handle(api);
    }
  }
  [[nodiscard]] std::string name() const override { return "mux"; }

 private:
  nicsim::NicProgram* a_;
  nicsim::NicProgram* b_;
};

}  // namespace
}  // namespace clara::bench

int main() {
  using namespace clara;
  using namespace clara::bench;

  header("Section 3.5: co-resident NF interference (NAT + DPI)",
         "co-residency degrades both NFs; Clara's sliced-LNIC model should track the direction/magnitude");

  core::Analyzer analyzer(lnic::netronome_agilio_cx());
  // 1200 B payloads spill packet tails to EMEM, so the co-resident DPI
  // exerts real cache pressure on NAT's flow table (and vice versa).
  const auto trace = make_trace("tcp=0.8 flows=30000 zipf=0.4 payload=1200 pps=400000 packets=40000");

  const auto nat = nf::build_nat_nf();
  const auto dpi = nf::build_dpi_nf();

  // Clara: solo and co-resident predictions.
  const auto solo_nat = analyze_or_die(analyzer, nat, trace);
  const auto solo_dpi = analyze_or_die(analyzer, dpi, trace);
  auto co = analyzer.coresident(nat, trace, dpi, trace);
  if (!co.ok()) {
    std::fprintf(stderr, "co-resident analysis failed: %s\n", co.error().message.c_str());
    return 1;
  }

  // Simulator: solo runs, then a true co-resident run.
  const auto sim_solo_nat = nf::simulate("nat", trace).value();
  const auto sim_solo_dpi = nf::simulate("dpi", trace).value();

  nicsim::NicSim co_sim;
  const auto nat_port = nf::port("nat", nat, co_sim, nf::find_nf("nat")->placement).value();
  nf::DpiProgram dpi_prog;
  MuxProgram mux(*nat_port.program, dpi_prog);
  const auto sim_co = co_sim.run(mux, trace);

  // Split the co-resident run's per-packet latencies back out per NF.
  // With no drops (checked), the latency series aligns with trace order.
  Accumulator co_nat, co_dpi;
  if (sim_co.drops == 0) {
    const auto& samples = sim_co.latency.samples();
    for (std::size_t i = 0; i < trace.packets.size(); ++i) {
      (trace.packets[i].flow_id % 2 == 0 ? co_nat : co_dpi).add(samples[i]);
    }
  }

  TextTable table({"metric", "NAT", "DPI"});
  table.add_row({"Clara solo latency (cyc)", fmt(solo_nat.prediction.mean_latency_cycles),
                 fmt(solo_dpi.prediction.mean_latency_cycles)});
  table.add_row({"Clara co-resident latency (cyc)", fmt(co.value().first.prediction.mean_latency_cycles),
                 fmt(co.value().second.prediction.mean_latency_cycles)});
  table.add_row({"Clara predicted degradation",
                 fmt2(co.value().first.prediction.mean_latency_cycles / solo_nat.prediction.mean_latency_cycles) + "x",
                 fmt2(co.value().second.prediction.mean_latency_cycles / solo_dpi.prediction.mean_latency_cycles) + "x"});
  table.add_row({"sim solo latency (cyc)", fmt(sim_solo_nat.mean_latency()), fmt(sim_solo_dpi.mean_latency())});
  table.add_row({"sim co-resident latency (cyc)", fmt(co_nat.mean()), fmt(co_dpi.mean())});
  table.add_row({"sim measured degradation", fmt2(co_nat.mean() / sim_solo_nat.mean_latency()) + "x",
                 fmt2(co_dpi.mean() / sim_solo_dpi.mean_latency()) + "x"});
  std::printf("%s", table.render().c_str());
  std::printf("\nsim co-resident EMEM cache hit rate: %.2f (NAT solo: %.2f)\n", sim_co.emem_cache_hit_rate,
              sim_solo_nat.emem_cache_hit_rate);
  std::printf("Clara co-resident cache hit estimate for NAT: %.2f (solo: %.2f)\n",
              co.value().first.prediction.emem_cache_hit_rate, solo_nat.prediction.emem_cache_hit_rate);
  return 0;
}
