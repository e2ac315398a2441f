#include "core/cache.hpp"

#include "common/hash.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"

namespace clara::core {

namespace {

// Coarse footprint estimates for the cache/bytes gauge. Accounting only
// — eviction is entry-count-based, so a rough model is fine.
std::uint64_t approx_bytes(const LoweredEntry& entry) {
  std::uint64_t n = 256;
  for (const auto& block : entry.fn.blocks) {
    n += 64 + block.instrs.size() * sizeof(cir::Instr);
  }
  n += entry.fn.state_objects.size() * sizeof(cir::StateObject);
  return n;
}

std::uint64_t approx_bytes(const GraphEntry& entry) {
  return 128 + entry.graph.nodes().size() * sizeof(passes::DfNode) +
         entry.graph.edges().size() * sizeof(passes::DfEdge);
}

std::uint64_t approx_bytes(const WorkloadSummary& entry) {
  return 256 + entry.classes.size() * (sizeof(PacketClass) + 64);
}

std::uint64_t approx_bytes(const MappingEntry& entry) {
  return 128 + entry.mapping.node_pool.size() * sizeof(std::uint32_t) +
         entry.mapping.state_region.size() * sizeof(NodeId) +
         entry.mapping.ilp_incumbents.size() * sizeof(ilp::IncumbentStep) +
         entry.mapping.ilp_basis.size() * sizeof(std::size_t);
}

void count_lookup(std::atomic<std::uint64_t>& counter, bool hit, const char* stage,
                  std::uint64_t stage_ordinal, std::uint64_t key) {
  counter.fetch_add(1, std::memory_order_relaxed);
  obs::metrics().counter(hit ? "cache/hits" : "cache/misses", std::string("stage=") + stage).inc();
  obs::record(hit ? obs::FlightEventKind::kCacheHit : obs::FlightEventKind::kCacheMiss,
              stage_ordinal, key);
}

// Poisoned-entry simulation ("cache/poison" site, keyed by the entry's
// content digest): the digest re-check that a hit performs is forced to
// mismatch, so the entry is treated as corrupt — dropped and recomputed.
// Keying on the digest (not lookup order) keeps detection bit-identical
// at every jobs level, and the recompute produces an identical value, so
// analysis results are unchanged; only hit accounting and work differ.
template <typename EntryPtr>
bool poisoned(const EntryPtr& entry, std::uint64_t key, const char* stage) {
  if (!entry || !fault::inject("cache/poison", key)) return false;
  obs::metrics().counter("fault/cache_poison_detected", std::string("stage=") + stage).inc();
  return true;
}

// Injected eviction storm ("cache/evict_storm" site, keyed by the insert
// digest): the whole stage cache is flushed, as if a burst of competing
// insertions cycled every shard. Purely a performance fault — entries
// are recomputed on demand with identical content.
template <typename T>
std::uint64_t storm(ShardedLru<T>& cache, const char* stage) {
  const std::uint64_t dropped = cache.size();
  cache.clear();
  obs::metrics().counter("fault/cache_evict_storms", std::string("stage=") + stage).inc();
  return dropped;
}

}  // namespace

void AnalysisCache::configure(const CacheConfig& config) {
  enabled_.store(config.enabled, std::memory_order_relaxed);
  summaries_.set_capacity(config.max_entries);
  lowered_.set_capacity(config.max_entries);
  graphs_.set_capacity(config.max_entries);
  mappings_.set_capacity(config.max_entries);
}

template <typename T>
std::shared_ptr<const T> AnalysisCache::find(ShardedLru<T>& stage, std::uint64_t key,
                                             const char* name, std::uint64_t ordinal) {
  if (!enabled()) return nullptr;
  auto entry = stage.find(key);
  if (poisoned(entry, key, name)) entry = nullptr;
  count_lookup(entry ? hits_ : misses_, entry != nullptr, name, ordinal, key);
  return entry;
}

template <typename T>
void AnalysisCache::insert(ShardedLru<T>& stage, std::uint64_t key, std::shared_ptr<const T> entry,
                           const char* name) {
  if (!enabled()) return;
  const std::uint64_t bytes = approx_bytes(*entry);
  std::uint64_t evicted = 0;
  std::uint64_t added = 0;
  stage.insert(key, std::move(entry), bytes, &evicted, &added);
  if (fault::inject("cache/evict_storm", key)) evicted += storm(stage, name);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    obs::metrics().counter("cache/evictions", std::string("stage=") + name).inc(evicted);
  }
  obs::metrics().gauge("cache/bytes").set(static_cast<double>(stats().bytes));
}

std::shared_ptr<const LoweredEntry> AnalysisCache::find_lowered(std::uint64_t key) {
  return find(lowered_, key, "lowered", 0);
}

std::shared_ptr<const GraphEntry> AnalysisCache::find_graph(std::uint64_t key) {
  return find(graphs_, key, "graph", 1);
}

std::shared_ptr<const MappingEntry> AnalysisCache::find_mapping(std::uint64_t key) {
  return find(mappings_, key, "map", 2);
}

std::shared_ptr<const WorkloadSummary> AnalysisCache::find_summary(std::uint64_t key) {
  return find(summaries_, key, "summary", 3);
}

void AnalysisCache::insert_lowered(std::uint64_t key, std::shared_ptr<const LoweredEntry> entry) {
  insert(lowered_, key, std::move(entry), "lowered");
}

void AnalysisCache::insert_graph(std::uint64_t key, std::shared_ptr<const GraphEntry> entry) {
  insert(graphs_, key, std::move(entry), "graph");
}

void AnalysisCache::insert_mapping(std::uint64_t key, std::shared_ptr<const MappingEntry> entry) {
  insert(mappings_, key, std::move(entry), "map");
}

void AnalysisCache::insert_summary(std::uint64_t key, std::shared_ptr<const WorkloadSummary> entry) {
  insert(summaries_, key, std::move(entry), "summary");
}

CacheStats AnalysisCache::stats() const {
  CacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.bytes = summaries_.bytes() + lowered_.bytes() + graphs_.bytes() + mappings_.bytes();
  return out;
}

void AnalysisCache::clear() {
  summaries_.clear();
  lowered_.clear();
  graphs_.clear();
  mappings_.clear();
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
  obs::metrics().gauge("cache/bytes").set(0.0);
}

AnalysisCache& analysis_cache() {
  static AnalysisCache cache;
  return cache;
}

std::uint64_t hash_profile(const lnic::NicProfile& profile) {
  Fnv1a h;
  h.mix(std::string_view(profile.name));
  // The parameter store's digest covers every Π/Γ/Θ scalar and curve;
  // the graph loop covers structural edits (units, regions, capacities,
  // NUMA weights).
  h.mix(profile.params.digest());
  h.mix(static_cast<std::uint64_t>(profile.graph.nodes().size()));
  for (const auto& node : profile.graph.nodes()) {
    h.mix(static_cast<std::uint64_t>(node.id));
    h.mix(std::string_view(node.name));
    h.mix_byte(static_cast<std::uint8_t>(node.type()));
    if (const auto* cu = node.compute()) {
      h.mix_byte(static_cast<std::uint8_t>(cu->kind));
      h.mix(cu->island);
      h.mix(cu->threads);
      h.mix(cu->pipeline_stage);
      h.mix(cu->match_action);
      h.mix(cu->offline);
      h.mix(cu->derate);
    } else if (const auto* mem = node.memory()) {
      h.mix_byte(static_cast<std::uint8_t>(mem->kind));
      h.mix(static_cast<std::uint64_t>(mem->capacity));
      h.mix(mem->island);
      h.mix(static_cast<std::uint64_t>(mem->cache_capacity));
      h.mix(mem->offline);
    } else if (const auto* hub = node.hub()) {
      h.mix(static_cast<std::uint64_t>(hub->queue_capacity));
      h.mix_byte(static_cast<std::uint8_t>(hub->discipline));
    }
  }
  h.mix(static_cast<std::uint64_t>(profile.graph.edges().size()));
  for (const auto& edge : profile.graph.edges()) {
    h.mix(static_cast<std::uint64_t>(edge.from));
    h.mix(static_cast<std::uint64_t>(edge.to));
    h.mix_byte(static_cast<std::uint8_t>(edge.kind));
    h.mix(edge.weight);
  }
  return h.digest();
}

std::uint64_t hash_hints(const passes::CostHints& hints) {
  Fnv1a h;
  h.mix(static_cast<std::uint64_t>(hints.params.size()));
  for (const auto& [name, value] : hints.params) {  // std::map: deterministic order
    h.mix(std::string_view(name));
    h.mix(value);
  }
  h.mix(hints.avg_payload);
  h.mix(hints.flow_cache_hit_rate);
  h.mix(hints.branch_prob);
  return h.digest();
}

std::uint64_t summary_key(const workload::WorkloadProfile& profile, std::size_t payload_buckets,
                          double flow_cache_capacity) {
  return Fnv1a().mix(std::string_view("summary")).mix(profile.digest()).mix(std::uint64_t{payload_buckets})
      .mix(flow_cache_capacity).digest();
}

std::uint64_t lowered_key(std::uint64_t input_fn_hash, bool pattern_matching, bool optimize_ir) {
  return Fnv1a().mix(std::string_view("lowered")).mix(input_fn_hash).mix(pattern_matching).mix(optimize_ir).digest();
}

std::uint64_t graph_key(std::uint64_t lowered_fn_hash, std::uint64_t hints_hash,
                        std::uint64_t profile_hash) {
  return Fnv1a().mix(std::string_view("graph")).mix(lowered_fn_hash).mix(hints_hash).mix(profile_hash).digest();
}

std::uint64_t mapping_key(std::uint64_t graph_digest, const mapping::MapOptions& options,
                          bool use_ilp) {
  Fnv1a h;
  h.mix(std::string_view("map"));
  h.mix(graph_digest);
  h.mix(options.pps);
  h.mix(options.ctm_state_fraction);
  h.mix(static_cast<std::uint64_t>(options.max_ilp_nodes));
  h.mix(use_ilp);
  h.mix(options.time_budget_ms);
  return h.digest();
}

}  // namespace clara::core
