// The SmartNIC simulator ("hardware" stand-in — DESIGN.md §6).
//
// Execution model: each packet is DMA'd in at its arrival time, queued
// at the ingress hub, bound to one NPU hardware thread for its whole
// lifetime (Netronome behaviour), processed by a ported NicProgram that
// charges cycles through NicApi, and emitted. Cycle accounting uses
// timeline reservation:
//
//   * compute advances the packet's own thread timeline — the cores are
//     barrel processors that interleave their threads at instruction
//     granularity, so per-packet compute does not block siblings (a
//     single next-free reservation would falsely serialize a packet's
//     trailing compute against the next packet's leading compute across
//     a long memory wait); aggregate per-core utilization is tracked for
//     reporting;
//   * shared accelerators (checksum, crypto, LPM engine) and the EMEM
//     controller are serially-reusable resources with next-free
//     timestamps, so contention and head-of-line blocking emerge
//     naturally;
//   * the EMEM cache and the LPM flow cache are simulated exactly
//     (set-associative LRU / LRU table), so working-set effects are
//     real, not estimated.
//
// Approximation note: shared resources are reserved in packet arrival
// order rather than true event order; at the simulated load levels the
// reordering window is a few packets and the error is far below the
// predictor-vs-hardware gap being studied.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cir/vcalls.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "nicsim/cache.hpp"
#include "nicsim/config.hpp"
#include "nicsim/tables.hpp"
#include "obs/breakdown.hpp"
#include "workload/tracegen.hpp"

namespace clara::nicsim {

/// Serially-reusable resource with a next-free timestamp.
class ServiceUnit {
 public:
  /// Reserves `service` cycles starting no earlier than `now`; returns
  /// the completion time. Saturates instead of wrapping: a replay long
  /// enough (or a service value extreme enough) to exhaust the 64-bit
  /// cycle space pins the unit at the end of time rather than silently
  /// reordering every later reservation.
  Cycles request(Cycles now, Cycles service) {
    const Cycles start = std::max(now, next_free_);
    next_free_ = saturating_add(start, service);
    busy_ = saturating_add(busy_, service);
    return next_free_;
  }
  [[nodiscard]] Cycles busy_cycles() const { return busy_; }
  void reset() { next_free_ = busy_ = 0; }

 private:
  Cycles next_free_ = 0;
  Cycles busy_ = 0;
};

struct RunStats {
  Series latency;  // cycles, per delivered packet
  Accumulator tcp_latency;
  Accumulator udp_latency;
  Accumulator syn_latency;
  Accumulator queue_wait;
  std::uint64_t packets = 0;
  std::uint64_t drops = 0;
  double emem_cache_hit_rate = 0.0;
  double flow_cache_hit_rate = 0.0;
  double offered_pps = 0.0;
  double achieved_pps = 0.0;
  double clock_hz = 0.0;
  /// Measured dynamic energy per delivered packet (nJ) and device power
  /// at the offered rate (idle + dynamic), from exact busy counters.
  double energy_nj_per_packet = 0.0;
  double energy_watts = 0.0;
  /// Measured per-packet latency attribution. Every advance of a
  /// packet's timeline is charged to exactly one component, so the
  /// component means sum to mean_latency() in exact integer cycles
  /// (before the per-packet division).
  obs::BreakdownReport breakdown;

  [[nodiscard]] double mean_latency() const { return latency.mean(); }
  [[nodiscard]] double p99_latency() const { return latency.percentile(0.99); }
};

class NicSim;

/// The programming surface for "manually ported" NFs. Every method both
/// models the semantics (table contents, cache state) and charges cycles
/// to the calling packet's timeline.
class NicApi {
 public:
  [[nodiscard]] const workload::PacketMeta& pkt() const { return *pkt_; }
  [[nodiscard]] Cycles now() const { return now_; }

  /// Parse L2-L4 headers (CTM -> local copy on the NPU).
  void parse();
  /// Read/modify header metadata (a few cycles each).
  std::uint64_t get_hdr(cir::HdrField f);
  void set_hdr(cir::HdrField f, std::uint64_t v);
  /// Raw compute on the owning NPU core.
  void compute(Cycles cycles);
  /// L4 checksum over `len` payload bytes; `use_accel` selects the
  /// ingress checksum unit vs. NPU software.
  std::uint64_t csum(std::uint32_t len, bool use_accel);
  /// AES over `len` bytes on the crypto engine (or software).
  void crypto(std::uint32_t len, bool use_accel = true);
  /// Exact-match table ops: hash compute + placement-level accesses.
  bool table_lookup(ExactTable& table, std::uint64_t key);
  void table_update(ExactTable& table, std::uint64_t key);
  /// LPM via the match-action engine; returns true on flow-cache hit.
  bool lpm_lookup(LpmTable& table, std::uint64_t key, bool use_flow_cache);
  /// Software LPM on the NPU: trie walk over a table placed in memory.
  void lpm_lookup_sw(ExactTable& trie, std::uint64_t key);
  /// DPI byte scan over the packet payload.
  void payload_scan();
  /// Token-bucket metering / statistics counters on placed state.
  void meter(ExactTable& table, std::uint64_t key);
  void stats_update(ExactTable& table, std::uint64_t key);
  /// Raw memory access at a level (microbenchmark surface).
  void mem_read(MemLevel level, std::uint64_t addr);
  void mem_write(MemLevel level, std::uint64_t addr);
  /// Terminal actions.
  void emit();
  void drop();

 private:
  friend class NicSim;
  NicApi(NicSim& sim, const workload::PacketMeta& pkt, Cycles start, int thread_id, std::uint64_t pkt_seq);

  /// One access to `level`; EMEM consults the cache and the controller.
  void mem_access(MemLevel level, std::uint64_t addr, bool write);
  /// Access to packet byte at `offset` (CTM head or spilled EMEM tail).
  void packet_access(std::uint32_t offset);

  /// Advances the packet's timeline and charges the delta to one
  /// breakdown component — the only way now_ moves inside the API, so
  /// the components provably sum to the processing time. Saturating for
  /// the same reason as ServiceUnit::request.
  void charge(obs::Component c, Cycles delta) {
    now_ = saturating_add(now_, delta);
    bd_.add(c, delta);
  }

  NicSim& sim_;
  const workload::PacketMeta* pkt_;
  Cycles now_;
  int npu_;
  std::uint64_t pkt_seq_;
  obs::PacketBreakdown bd_;
  bool done_ = false;
};

class NicProgram {
 public:
  virtual ~NicProgram() = default;
  virtual void handle(NicApi& api) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

class NicSim {
 public:
  explicit NicSim(NicConfig config = netronome_config());

  /// Declares a state table placed at a memory level. The simulator
  /// assigns disjoint address ranges per level so EMEM-placed tables
  /// contend in the cache realistically. Returned references stay valid
  /// for the simulator's lifetime.
  ExactTable& create_table(std::string name, std::uint64_t entries, Bytes entry_bytes, MemLevel placement);
  LpmTable& create_lpm(std::string name, std::uint64_t rule_entries, std::uint32_t flow_cache_capacity);

  /// Runs a trace through the program; packets arrive at their trace
  /// timestamps (converted to cycles at the device clock). One packet at
  /// a time, in arrival order: wire faults, ingress hub and DMA, queue
  /// admission, binding to the earliest-available hardware thread, the
  /// ported program, then the statistics fold.
  RunStats run(NicProgram& program, const workload::Trace& trace);

  /// Latency of a single packet on an otherwise idle NIC (microbenchmark
  /// path; does not disturb steady-state statistics).
  Cycles measure_one(NicProgram& program, const workload::PacketMeta& pkt);

  /// Clears caches, accelerator timelines and thread availability (table
  /// *contents* persist — call create_table again for a cold table).
  void reset_timeline();

  /// Returns the simulator to its freshly constructed state: what
  /// reset_timeline() clears, every table dropped, table addresses and
  /// packet ordinals from zero. Keeps the configuration and the storage
  /// (the cache's lines, run()'s scratch), so it costs O(1) in the cache
  /// size.
  void reset();

  [[nodiscard]] const NicConfig& config() const { return config_; }
  [[nodiscard]] const SetAssocCache& emem_cache() const { return emem_cache_; }
  /// Busy cycles per NPU core, accumulated since the last reset: which
  /// core ran each packet's compute.
  [[nodiscard]] const std::vector<Cycles>& core_busy() const { return core_busy_; }

 private:
  friend class NicApi;

  /// Counter snapshot taken at run entry; cache/energy rates are
  /// reported as deltas against it (counters accumulate across runs on
  /// the same simulator instance).
  struct RunSnapshot {
    std::uint64_t cache_hits = 0, cache_misses = 0;
    std::uint64_t ctm = 0, imem = 0, emem = 0, local = 0, dma = 0;
    Cycles core_busy = 0, accel_busy = 0;
  };
  [[nodiscard]] RunSnapshot snapshot_counters() const;
  /// Rates, energy, and metrics of a finished run().
  void finalize_stats(RunStats& stats, const RunSnapshot& before, Cycles first_arrival,
                      Cycles last_completion);
  /// DMA of a `frame`-byte packet into CTM, with the EMEM spill of the
  /// bytes past CTM residency: the on-ramp after the ingress hub, shared
  /// by run() and measure_one().
  [[nodiscard]] Cycles dma_cycles(std::uint32_t frame) const;

  NicConfig config_;
  SetAssocCache emem_cache_;
  ServiceUnit csum_unit_;
  ServiceUnit crypto_unit_;
  ServiceUnit lpm_unit_;
  ServiceUnit emem_controller_;
  ServiceUnit ingress_hub_;
  ServiceUnit egress_hub_;
  std::vector<Cycles> core_busy_;
  std::vector<Cycles> thread_free_;
  /// run()'s scheduling state, kept on the sim so its capacity survives
  /// across runs: every thread in (free_at, thread) order, in a sliding
  /// window of twice as many slots.
  std::vector<std::uint32_t> thread_order_;
  /// Ring of dispatch times of packets queued at ingress.
  std::vector<Cycles> inflight_;
  /// True when run() has dirtied thread availability; lets measure_one
  /// skip re-zeroing hundreds of per-thread timestamps on the (hot)
  /// microbenchmark path when there is nothing to clear.
  bool timeline_dirty_ = false;
  std::vector<std::unique_ptr<ExactTable>> tables_;
  std::vector<std::unique_ptr<LpmTable>> lpm_tables_;
  std::uint64_t next_base_per_level_[4] = {0, 0, 0, 0};
  std::uint64_t pkt_counter_ = 0;
  // Sim-local invocation counters used as deterministic fault-injection
  // keys (a NicSim instance is single-threaded, so these are exact
  // arrival/request ordinals independent of --jobs).
  std::uint64_t arrivals_ = 0;
  std::uint64_t accel_requests_ = 0;
  std::uint64_t flow_cache_lookups_ = 0;
  std::uint64_t flow_cache_hits_ = 0;
  // Energy accounting.
  std::uint64_t ctm_accesses_ = 0;
  std::uint64_t imem_accesses_ = 0;
  std::uint64_t local_accesses_ = 0;
  std::uint64_t emem_accesses_ = 0;
  std::uint64_t dma_bytes_ = 0;
};

/// A simulator on netronome_config(), leased from a process-wide free list
/// of reset() ones: a fresh NicSim without building its cache model per
/// lease. It is the holder's alone until the lease is destroyed, which
/// resets it and returns it to the list; anything made on it (tables, a
/// port) must go first. The list never builds more simulators than were
/// ever leased at once.
class SimLease {
 public:
  SimLease();
  ~SimLease();
  SimLease(const SimLease&) = delete;
  SimLease& operator=(const SimLease&) = delete;

  NicSim& operator*() const { return *sim_; }
  NicSim* operator->() const { return sim_.get(); }

 private:
  std::unique_ptr<NicSim> sim_;
};

/// Simulators SimLease has built over the process's lifetime.
std::size_t leased_sims_built();

}  // namespace clara::nicsim
