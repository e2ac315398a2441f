#include "nicsim/sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <mutex>
#include <numeric>
#include <utility>

#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace clara::nicsim {

NicConfig netronome_config() { return NicConfig{}; }

// ---------------------------------------------------------------------------
// NicApi

NicApi::NicApi(NicSim& sim, const workload::PacketMeta& pkt, Cycles start, int thread_id, std::uint64_t pkt_seq)
    : sim_(sim), pkt_(&pkt), now_(start), npu_(thread_id / sim.config_.threads_per_npu), pkt_seq_(pkt_seq) {}

void NicApi::compute(Cycles cycles) {
  charge(obs::Component::kCompute, cycles);
  sim_.core_busy_[static_cast<std::size_t>(npu_)] += cycles;
}

void NicApi::mem_access(MemLevel level, std::uint64_t addr, bool write) {
  (void)write;  // symmetric latencies in the reference configuration
  const NicConfig& cfg = sim_.config_;
  switch (level) {
    case MemLevel::kLocal:
      ++sim_.local_accesses_;
      charge(obs::Component::kMemLocal, cfg.local_latency);
      break;
    case MemLevel::kCtm:
      ++sim_.ctm_accesses_;
      charge(obs::Component::kMemCtm, cfg.ctm_latency);
      break;
    case MemLevel::kImem:
      ++sim_.imem_accesses_;
      charge(obs::Component::kMemImem, cfg.imem_latency);
      break;
    case MemLevel::kEmem: {
      const std::uint64_t access_seq = sim_.emem_accesses_++;
      const bool hit = sim_.emem_cache_.access(addr);
      if (hit) {
        charge(obs::Component::kEmemCacheHit, cfg.emem_cache_hit_latency);
      } else {
        // DRAM: full latency for the requester. The controller tracks
        // bandwidth occupancy for utilization/energy reporting only —
        // requests reach it in packet-processing order rather than true
        // event order, so a next-free reservation here would falsely
        // serialize one packet's early accesses behind another's late
        // ones (the deep-banked controller overlaps them in reality).
        sim_.emem_controller_.request(now_, cfg.emem_occupancy);
        charge(obs::Component::kEmemCacheMiss, cfg.emem_latency);
      }
      if (fault::inject("nicsim/emem_spike", access_seq)) {
        // Injected contention spike: the access stalls behind a burst of
        // competing DRAM traffic for factor× the nominal latency.
        charge(obs::Component::kEmemCacheMiss,
               cycles_from_double(static_cast<double>(cfg.emem_latency) *
                                  fault::site_factor("nicsim/emem_spike", 4.0)));
      }
      break;
    }
  }
}

void NicApi::packet_access(std::uint32_t offset) {
  const NicConfig& cfg = sim_.config_;
  if (offset < cfg.ctm_pkt_residency) {
    mem_access(MemLevel::kCtm, 0, false);
  } else {
    // Spilled tail lives in a per-packet EMEM region; rotating regions
    // model buffer recycling and create realistic cache pressure.
    const std::uint64_t base = (1ULL << 33) + (pkt_seq_ % 1024) * 2048;
    mem_access(MemLevel::kEmem, base + offset, false);
  }
}

void NicApi::parse() {
  const NicConfig& cfg = sim_.config_;
  compute(cfg.parse_base + static_cast<Cycles>(cfg.parse_per_byte * 40.0));
}

std::uint64_t NicApi::get_hdr(cir::HdrField f) {
  compute(sim_.config_.move_cycles);
  using cir::HdrField;
  switch (f) {
    case HdrField::kProto: return pkt_->proto;
    case HdrField::kSrcIp: return pkt_->src_ip;
    case HdrField::kDstIp: return pkt_->dst_ip;
    case HdrField::kSrcPort: return pkt_->src_port;
    case HdrField::kDstPort: return pkt_->dst_port;
    case HdrField::kTcpFlags: return pkt_->tcp_flags;
    case HdrField::kPayloadLen: return pkt_->payload_len;
    case HdrField::kPktLen: return pkt_->frame_len();
    case HdrField::kFlowHash: return pkt_->flow_hash();
  }
  return 0;
}

void NicApi::set_hdr(cir::HdrField f, std::uint64_t v) {
  (void)f;
  (void)v;  // metadata rewrite: semantics not needed, only the cycles
  compute(sim_.config_.move_cycles);
}

std::uint64_t NicApi::csum(std::uint32_t len, bool use_accel) {
  const NicConfig& cfg = sim_.config_;
  Cycles service = cycles_from_double(cfg.csum_accel_base + cfg.csum_accel_per_byte * len);
  if (use_accel) {
    if (fault::inject("nicsim/unit_throttle", sim_.accel_requests_++)) {
      service = cycles_from_double(static_cast<double>(service) *
                                   fault::site_factor("nicsim/unit_throttle", 4.0));
    }
    // The reservation delta covers queueing behind other packets plus
    // the service itself — the accelerator stall the breakdown reports.
    charge(obs::Component::kCsumAccel, sim_.csum_unit_.request(now_, service) - now_);
  } else {
    compute(service + cfg.csum_sw_extra);
  }
  return 0xbeef;  // deterministic placeholder checksum
}

void NicApi::crypto(std::uint32_t len, bool use_accel) {
  const NicConfig& cfg = sim_.config_;
  Cycles service = cycles_from_double(cfg.crypto_base + cfg.crypto_per_byte * len);
  if (use_accel) {
    if (fault::inject("nicsim/unit_throttle", sim_.accel_requests_++)) {
      service = cycles_from_double(static_cast<double>(service) *
                                   fault::site_factor("nicsim/unit_throttle", 4.0));
    }
    charge(obs::Component::kCryptoAccel, sim_.crypto_unit_.request(now_, service) - now_);
  } else {
    compute(cycles_from_double(static_cast<double>(service) * cfg.crypto_sw_factor));
  }
}

bool NicApi::table_lookup(ExactTable& table, std::uint64_t key) {
  const auto plan = table.lookup(key);
  compute(12 * sim_.config_.alu_cycles);  // hash + compare
  mem_access(table.placement(), plan.addr0, false);
  mem_access(table.placement(), plan.addr1, false);
  return plan.hit;
}

void NicApi::table_update(ExactTable& table, std::uint64_t key) {
  const auto plan = table.update(key);
  compute(14 * sim_.config_.alu_cycles);
  mem_access(table.placement(), plan.addr0, false);
  mem_access(table.placement(), plan.addr1, true);
  mem_access(table.placement(), plan.addr1, true);  // write-back of the entry body
}

bool NicApi::lpm_lookup(LpmTable& table, std::uint64_t key, bool use_flow_cache) {
  const NicConfig& cfg = sim_.config_;
  const auto outcome = table.lookup(key, use_flow_cache);
  if (use_flow_cache) {
    ++sim_.flow_cache_lookups_;
    if (outcome.flow_cache_hit) ++sim_.flow_cache_hits_;
  }
  // The SRAM front-end (flow-cache probe + dispatch) is a shared,
  // serially-reusable stage; a miss then walks the DRAM match-action
  // tables, which is memory-latency-bound and overlaps across threads,
  // so it is charged as wait time rather than unit occupancy.
  Cycles front_end = cfg.flow_cache_hit;
  if (fault::inject("nicsim/unit_throttle", sim_.accel_requests_++)) {
    front_end = cycles_from_double(static_cast<double>(front_end) *
                                   fault::site_factor("nicsim/unit_throttle", 4.0));
  }
  charge(obs::Component::kLpmEngine, sim_.lpm_unit_.request(now_, front_end) - now_);
  if (!outcome.flow_cache_hit) {
    charge(obs::Component::kLpmEngine,
           cycles_from_double((cfg.lpm_dram_base +
                               cfg.lpm_dram_per_entry * static_cast<double>(table.rule_entries())) *
                              outcome.walk_factor));
  }
  return outcome.flow_cache_hit;
}

void NicApi::lpm_lookup_sw(ExactTable& trie, std::uint64_t key) {
  // Radix-tree walk: log2(entries) levels, each a dependent access at
  // the trie's placement plus a few shifts/compares.
  const double entries = std::max<double>(2.0, static_cast<double>(trie.entries()));
  const auto depth = static_cast<std::uint32_t>(std::ceil(std::log2(entries)));
  std::uint64_t addr = trie.base() + (key % trie.entries()) * trie.entry_bytes();
  for (std::uint32_t level = 0; level < depth; ++level) {
    compute(4 * sim_.config_.alu_cycles);
    mem_access(trie.placement(), addr, false);
    addr = addr * 1103515245ULL + 12345;  // next node (dependent address)
    addr = trie.base() + addr % (trie.entries() * trie.entry_bytes());
  }
}

void NicApi::payload_scan() {
  const NicConfig& cfg = sim_.config_;
  const std::uint32_t len = pkt_->payload_len;
  // 64-byte chunks staged into local memory, then a per-byte automaton.
  for (std::uint32_t off = 0; off < len; off += 64) {
    packet_access(off);
  }
  compute(static_cast<Cycles>(len) * (3 * cfg.alu_cycles + cfg.branch_cycles));
}

void NicApi::meter(ExactTable& table, std::uint64_t key) {
  const auto plan = table.lookup(key);
  compute(10 * sim_.config_.alu_cycles);
  mem_access(table.placement(), plan.addr0, false);
  mem_access(table.placement(), plan.addr0, true);
}

void NicApi::stats_update(ExactTable& table, std::uint64_t key) {
  const auto plan = table.lookup(key);
  compute(4 * sim_.config_.alu_cycles);
  mem_access(table.placement(), plan.addr0, false);
  mem_access(table.placement(), plan.addr0, true);
}

void NicApi::mem_read(MemLevel level, std::uint64_t addr) { mem_access(level, addr, false); }
void NicApi::mem_write(MemLevel level, std::uint64_t addr) { mem_access(level, addr, true); }

void NicApi::emit() {
  // Egress requests reach the hub in completion order, not the arrival
  // order we process packets in; reserving the unit here would falsely
  // serialize fast packets behind slow ones. Its utilization is far from
  // saturation at the modeled rates, so charge latency and track load.
  sim_.egress_hub_.request(now_, sim_.config_.hub_service);  // busy accounting only
  charge(obs::Component::kEgress, sim_.config_.hub_service + sim_.config_.egress_base);
  done_ = true;
}

void NicApi::drop() {
  charge(obs::Component::kEgress, sim_.config_.egress_base / 4);
  done_ = true;
}

// ---------------------------------------------------------------------------
// NicSim

NicSim::NicSim(NicConfig config)
    : config_(config),
      emem_cache_(config.emem_cache_bytes, config.emem_cache_line, config.emem_cache_ways),
      core_busy_(static_cast<std::size_t>(config.total_npus()), 0),
      thread_free_(static_cast<std::size_t>(config.total_threads()), 0) {}

ExactTable& NicSim::create_table(std::string name, std::uint64_t entries, Bytes entry_bytes, MemLevel placement) {
  auto table = std::make_unique<ExactTable>(std::move(name), entries, entry_bytes, placement);
  auto& base = next_base_per_level_[static_cast<int>(placement)];
  table->set_base(base);
  base += table->address_span() + 4096;  // guard gap
  tables_.push_back(std::move(table));
  return *tables_.back();
}

LpmTable& NicSim::create_lpm(std::string name, std::uint64_t rule_entries, std::uint32_t flow_cache_capacity) {
  lpm_tables_.push_back(std::make_unique<LpmTable>(std::move(name), rule_entries, flow_cache_capacity));
  return *lpm_tables_.back();
}

void NicSim::reset_timeline() {
  emem_cache_.flush();
  csum_unit_.reset();
  crypto_unit_.reset();
  lpm_unit_.reset();
  emem_controller_.reset();
  ingress_hub_.reset();
  egress_hub_.reset();
  std::fill(core_busy_.begin(), core_busy_.end(), Cycles{0});
  std::fill(thread_free_.begin(), thread_free_.end(), Cycles{0});
  flow_cache_lookups_ = flow_cache_hits_ = 0;
  ctm_accesses_ = imem_accesses_ = local_accesses_ = emem_accesses_ = dma_bytes_ = 0;
  arrivals_ = accel_requests_ = 0;
}

void NicSim::reset() {
  reset_timeline();
  tables_.clear();
  lpm_tables_.clear();
  std::fill(std::begin(next_base_per_level_), std::end(next_base_per_level_), std::uint64_t{0});
  pkt_counter_ = 0;
  timeline_dirty_ = false;
}

namespace {

struct SimFreeList {
  std::mutex mu;
  std::vector<std::unique_ptr<NicSim>> sims;  // every one reset()
  std::size_t built = 0;
};

SimFreeList& sim_free_list() {
  // Leaked: a lease may be returned from a thread-exit or static destructor.
  static auto* list = new SimFreeList;
  return *list;
}

}  // namespace

SimLease::SimLease() {
  SimFreeList& list = sim_free_list();
  {
    const std::lock_guard<std::mutex> lock(list.mu);
    if (!list.sims.empty()) {
      sim_ = std::move(list.sims.back());
      list.sims.pop_back();
      return;
    }
    ++list.built;
  }
  sim_ = std::make_unique<NicSim>();
}

SimLease::~SimLease() {
  sim_->reset();
  SimFreeList& list = sim_free_list();
  const std::lock_guard<std::mutex> lock(list.mu);
  list.sims.push_back(std::move(sim_));
}

std::size_t leased_sims_built() {
  SimFreeList& list = sim_free_list();
  const std::lock_guard<std::mutex> lock(list.mu);
  return list.built;
}

NicSim::RunSnapshot NicSim::snapshot_counters() const {
  RunSnapshot snap;
  snap.cache_hits = emem_cache_.hits();
  snap.cache_misses = emem_cache_.misses();
  snap.ctm = ctm_accesses_;
  snap.imem = imem_accesses_;
  snap.emem = emem_accesses_;
  snap.local = local_accesses_;
  snap.dma = dma_bytes_;
  for (const auto& c : core_busy_) snap.core_busy += c;
  snap.accel_busy = csum_unit_.busy_cycles() + crypto_unit_.busy_cycles() + lpm_unit_.busy_cycles();
  return snap;
}

void NicSim::finalize_stats(RunStats& stats, const RunSnapshot& before, Cycles first_arrival,
                            Cycles last_completion) {
  const std::uint64_t cache_accesses =
      (emem_cache_.hits() - before.cache_hits) + (emem_cache_.misses() - before.cache_misses);
  stats.emem_cache_hit_rate =
      cache_accesses == 0
          ? 0.0
          : static_cast<double>(emem_cache_.hits() - before.cache_hits) / static_cast<double>(cache_accesses);
  stats.flow_cache_hit_rate =
      flow_cache_lookups_ == 0 ? 0.0 : static_cast<double>(flow_cache_hits_) / static_cast<double>(flow_cache_lookups_);
  if (last_completion > first_arrival && stats.packets > 0) {
    stats.achieved_pps = static_cast<double>(stats.packets) /
                         (static_cast<double>(last_completion - first_arrival) / config_.clock_hz);
  }

  // Energy from the exact busy/access counters accumulated this run.
  if (stats.packets > 0) {
    Cycles core_busy_now = 0;
    for (const auto& c : core_busy_) core_busy_now += c;
    const double core_cycles = static_cast<double>(core_busy_now - before.core_busy);
    const double accel_cycles = static_cast<double>(
        csum_unit_.busy_cycles() + crypto_unit_.busy_cycles() + lpm_unit_.busy_cycles() - before.accel_busy);
    double total_nj = core_cycles * config_.energy_npu_nj_per_cycle;
    total_nj += accel_cycles * config_.energy_accel_nj_per_cycle;
    total_nj += static_cast<double>(ctm_accesses_ - before.ctm) * config_.energy_ctm_nj;
    total_nj += static_cast<double>(imem_accesses_ - before.imem) * config_.energy_imem_nj;
    total_nj += static_cast<double>(emem_accesses_ - before.emem) * config_.energy_emem_nj;
    total_nj += static_cast<double>(local_accesses_ - before.local) * 0.1;
    total_nj += static_cast<double>(dma_bytes_ - before.dma) * config_.energy_dma_nj_per_byte;
    stats.energy_nj_per_packet = total_nj / static_cast<double>(stats.packets);
    const double span_s = last_completion > first_arrival
                              ? static_cast<double>(last_completion - first_arrival) / config_.clock_hz
                              : 0.0;
    stats.energy_watts = config_.energy_idle_watts + (span_s > 0.0 ? total_nj * 1e-9 / span_s : 0.0);
  }

  auto& registry = obs::metrics();
  registry.counter("nicsim/packets").inc(stats.packets);
  registry.counter("nicsim/drops").inc(stats.drops);
  registry.histogram("nicsim/latency_cycles").observe_all(stats.latency.samples());
}

Cycles NicSim::dma_cycles(std::uint32_t frame) const {
  Cycles dma = saturating_add(config_.ingress_base, cycles_from_double(config_.ingress_per_byte * frame));
  if (frame > config_.ctm_pkt_residency) {
    dma = saturating_add(
        dma, cycles_from_double(config_.spill_per_byte * static_cast<double>(frame - config_.ctm_pkt_residency)));
  }
  return dma;
}

RunStats NicSim::run(NicProgram& program, const workload::Trace& trace) {
  CLARA_TRACE_SCOPE("nicsim/run");
  RunStats stats;
  stats.clock_hz = config_.clock_hz;
  stats.offered_pps = trace.profile.pps;
  stats.latency.reserve(trace.size());

  const double cycles_per_ns = config_.clock_hz / 1e9;
  const RunSnapshot before = snapshot_counters();
  timeline_dirty_ = true;

  // Threads by (free_at, index), earliest first: the earliest-available
  // thread without a scan over every thread, ties to the lowest index.
  // The order is the window [head, head + threads) of twice as many
  // slots, so it moves up one slot per packet and is copied back down
  // once every `threads` packets.
  const std::size_t threads = thread_free_.size();
  const auto earlier = [this](std::uint32_t a, std::uint32_t b) {
    return thread_free_[a] != thread_free_[b] ? thread_free_[a] < thread_free_[b] : a < b;
  };
  thread_order_.resize(2 * threads);
  const auto order = thread_order_.begin();
  std::iota(order, order + static_cast<std::ptrdiff_t>(threads), 0u);
  if (!std::is_sorted(order, order + static_cast<std::ptrdiff_t>(threads), earlier)) {
    std::sort(order, order + static_cast<std::ptrdiff_t>(threads), earlier);
  }
  std::size_t head = 0;

  // Ring of the dispatch times of packets still queued at ingress,
  // oldest first. Admission keeps at most ingress_queue_capacity.
  inflight_.assign(config_.ingress_queue_capacity + 1, 0);
  const std::size_t ring = inflight_.size();
  std::size_t inflight_head = 0, inflight_size = 0;

  Cycles last_completion = 0;
  Cycles first_arrival = ~Cycles{0};

  for (const auto& pkt : trace.packets) {
    const Cycles arrival = cycles_from_double(static_cast<double>(pkt.arrival_ns) * cycles_per_ns);
    first_arrival = std::min(first_arrival, arrival);

    // Injected wire-level loss: the packet vanishes at ingress, before
    // DMA or queue accounting. Keyed by the arrival ordinal.
    const std::uint64_t arrival_seq = arrivals_++;
    if (fault::inject("nicsim/drop", arrival_seq)) {
      ++stats.drops;
      continue;
    }

    // Ingress hub + DMA into CTM (with EMEM spill for big packets).
    const Cycles hub_done = ingress_hub_.request(arrival, config_.hub_service);
    const std::uint32_t frame = pkt.frame_len();
    const Cycles dma = dma_cycles(frame);
    const Cycles ready = saturating_add(hub_done, dma);
    dma_bytes_ += 2ULL * frame;  // in and back out

    // Queue occupancy check: packets not yet dispatched when this one
    // becomes ready.
    while (inflight_size > 0 && inflight_[inflight_head] <= ready) {
      inflight_head = (inflight_head + 1) % ring;
      --inflight_size;
    }
    if (inflight_size >= config_.ingress_queue_capacity ||
        fault::inject("nicsim/queue_overflow", arrival_seq)) {
      ++stats.drops;
      continue;
    }

    // Bind to the earliest-available hardware thread.
    const std::uint32_t thread = thread_order_[head];
    const Cycles start = std::max(ready, thread_free_[thread]);
    inflight_[(inflight_head + inflight_size) % ring] = start;
    ++inflight_size;
    stats.queue_wait.add(static_cast<double>(start - ready));

    NicApi api(*this, pkt, start, static_cast<int>(thread), pkt_counter_++);
    program.handle(api);
    if (!api.done_) api.emit();  // programs that fall off the end emit

    // Requeue: its free time only grew, so it goes behind every thread
    // that frees sooner. That is the back when packets cost about the
    // same, and a binary search otherwise.
    thread_free_[thread] = api.now_;
    if (++head > threads) {
      std::copy(order + static_cast<std::ptrdiff_t>(head), order + static_cast<std::ptrdiff_t>(head + threads - 1),
                order);
      head = 0;
    }
    const auto first = order + static_cast<std::ptrdiff_t>(head);
    const auto last = first + static_cast<std::ptrdiff_t>(threads - 1);
    const auto at =
        first == last || earlier(*(last - 1), thread) ? last : std::upper_bound(first, last, thread, earlier);
    std::move_backward(at, last, last + 1);
    *at = thread;
    last_completion = std::max(last_completion, api.now_);

    // Attribution: on-ramp (hub + DMA) and scheduling wait are charged
    // here; everything after `start` was charged inside NicApi. The
    // three pieces telescope to api.now_ - arrival exactly.
    api.bd_.add(obs::Component::kIngress, (hub_done - arrival) + dma);
    api.bd_.add(obs::Component::kQueueWait, start - ready);
    stats.breakdown.add(api.bd_);

    const auto latency = static_cast<double>(api.now_ - arrival);
    stats.latency.add(latency);
    if (pkt.is_tcp()) {
      stats.tcp_latency.add(latency);
      if (pkt.is_syn()) stats.syn_latency.add(latency);
    } else {
      stats.udp_latency.add(latency);
    }
    ++stats.packets;
  }

  finalize_stats(stats, before, first_arrival, last_completion);
  return stats;
}

Cycles NicSim::measure_one(NicProgram& program, const workload::PacketMeta& pkt) {
  // Quiesce accelerator/core availability from earlier runs, but keep
  // cache and table contents (the caller controls warmup explicitly).
  csum_unit_.reset();
  crypto_unit_.reset();
  lpm_unit_.reset();
  emem_controller_.reset();
  ingress_hub_.reset();
  egress_hub_.reset();
  // Thread availability and core-busy counters are only read by run()
  // (scheduling) and by busy snapshots (deltas), never by this path, so
  // the hundreds of per-thread zeroes are needed at most once after a
  // run() — not on every microbenchmark iteration.
  if (timeline_dirty_) {
    std::fill(core_busy_.begin(), core_busy_.end(), Cycles{0});
    std::fill(thread_free_.begin(), thread_free_.end(), Cycles{0});
    timeline_dirty_ = false;
  }
  NicApi api(*this, pkt, 0, 0, pkt_counter_++);
  // The datapath on-ramp as run() charges it on an idle ingress hub.
  api.charge(obs::Component::kIngress, saturating_add(config_.hub_service, dma_cycles(pkt.frame_len())));
  program.handle(api);
  if (!api.done_) api.emit();
  return api.now_;
}

}  // namespace clara::nicsim
