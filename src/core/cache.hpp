// Content-addressed memoization of pipeline stages.
//
// Clara's workflow (paper Fig. 2) is fully deterministic in the tuple
// (NF, LNIC parameters Π/Γ/Θ, workload profile, options): sweep points
// and repeated analyze() calls re-derive byte-identical workload
// summaries, lowered functions, dataflow graphs, and ILP mappings. This
// cache keys each stage by an FNV digest of everything the stage reads
// and replays the stored result instead of re-running the stage — on a
// warm pass every trace generation and every ILP solve is skipped.
//
// Four stage caches:
//   summary  key = WorkloadProfile::digest() ⊕ payload buckets
//                  ⊕ flow-cache capacity
//   lowered  key = H(input fn) ⊕ stage toggles
//   graph    key = H(lowered fn) ⊕ H(cost hints) ⊕ H(profile)
//   mapping  key = graph key ⊕ H(MapOptions) ⊕ ilp/greedy
// A profile (seed included) fully determines its generated trace, so the
// summary stage answers for a spec workload without generating it; a
// concrete trace (a file, say) is not identified by its profile and is
// never looked up here. Keying the graph on the *lowered* function's
// hash (not the input's) lets consumers that already hold a lowered
// function — the load-sweep driver, the co-residence study — address
// the same entries.
//
// Entries are immutable once inserted (handed out as shared_ptr<const>);
// each stage cache is a sharded LRU with a per-shard mutex. Lookups that
// race a concurrent compute of the same key simply compute twice — the
// results are identical by construction, so last-insert-wins is safe.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cir/function.hpp"
#include "core/predict.hpp"
#include "lnic/profiles.hpp"
#include "mapping/mapping.hpp"
#include "passes/api_subst.hpp"
#include "passes/costmodel.hpp"
#include "passes/dataflow.hpp"
#include "passes/optimize.hpp"
#include "passes/patterns.hpp"
#include "workload/profile.hpp"

namespace clara::core {

struct CacheConfig {
  bool enabled = true;
  /// Capacity per stage cache, in entries (split across shards).
  std::size_t max_entries = 256;
};

/// Aggregate accounting across all four stage caches. Mirrored into
/// obs metrics as cache/{hits,misses,evictions,bytes} with a stage label.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes = 0;
};

/// Result of the lowering front-end (substitution, pattern collapse,
/// optimization, verification) for one (function, toggles) key.
struct LoweredEntry {
  cir::Function fn;
  passes::SubstitutionReport substitution;
  passes::PatternReport patterns;
  passes::OptimizeReport optimizations;
  /// cir::hash_function(fn) of the lowered function — the link to the
  /// graph cache.
  std::uint64_t lowered_hash = 0;
};

/// A dataflow graph plus the function it was built against.
/// DataflowGraph holds a raw pointer to its function, so the entry
/// keeps the owning LoweredEntry alive; `graph.function()` points into
/// `lowered->fn` for the lifetime of the entry.
struct GraphEntry {
  std::shared_ptr<const LoweredEntry> lowered;
  passes::DataflowGraph graph;
};

struct MappingEntry {
  mapping::Mapping mapping;
  /// mapping::describe_mapping's porting report of `mapping`, rendered
  /// when the entry is made. Everything the report reads is in the
  /// mapping key: the lowered function's name, block labels (the node
  /// labels) and state names through cir::hash_function, the profile's
  /// name and node names (pool and region names) through hash_profile,
  /// the hints (node weights) through hash_hints, and the mapping, so a
  /// hit may reuse it.
  std::string report;
};

/// Sharded LRU keyed by a 64-bit content digest. Values are shared
/// immutable snapshots; eviction drops the cache's reference only.
template <typename T>
class ShardedLru {
 public:
  static constexpr std::size_t kShards = 8;

  void set_capacity(std::size_t max_entries) {
    per_shard_ = max_entries / kShards + (max_entries % kShards != 0 ? 1 : 0);
    if (per_shard_ == 0) per_shard_ = 1;
  }

  std::shared_ptr<const T> find(std::uint64_t key) {
    Shard& shard = shards_[key % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.index.find(key);
    if (it == shard.index.end()) return nullptr;
    shard.order.splice(shard.order.begin(), shard.order, it->second);  // touch: move to MRU
    return it->second->value;
  }

  /// Inserts (or replaces) the value for `key`. `bytes` is the entry's
  /// approximate footprint, used only for accounting.
  void insert(std::uint64_t key, std::shared_ptr<const T> value, std::uint64_t bytes,
              std::uint64_t* evictions_out, std::uint64_t* bytes_delta_out) {
    Shard& shard = shards_[key % kShards];
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t evicted = 0;
    std::int64_t delta = static_cast<std::int64_t>(bytes);
    const auto it = shard.index.find(key);
    if (it != shard.index.end()) {
      delta -= static_cast<std::int64_t>(it->second->bytes);
      shard.order.erase(it->second);
      shard.index.erase(it);
    }
    shard.order.push_front(Slot{key, std::move(value), bytes});
    shard.index[key] = shard.order.begin();
    while (shard.order.size() > per_shard_) {
      const Slot& victim = shard.order.back();
      delta -= static_cast<std::int64_t>(victim.bytes);
      shard.index.erase(victim.key);
      shard.order.pop_back();
      ++evicted;
    }
    if (evictions_out != nullptr) *evictions_out = evicted;
    if (bytes_delta_out != nullptr) {
      *bytes_delta_out = static_cast<std::uint64_t>(delta < 0 ? 0 : delta);
      shard.bytes += delta;
    }
  }

  void clear() {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.order.clear();
      shard.index.clear();
      shard.bytes = 0;
    }
  }

  [[nodiscard]] std::uint64_t bytes() const {
    std::uint64_t total = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += static_cast<std::uint64_t>(shard.bytes < 0 ? 0 : shard.bytes);
    }
    return total;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t total = 0;
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.order.size();
    }
    return total;
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::shared_ptr<const T> value;
    std::uint64_t bytes = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::list<Slot> order;  // MRU at front
    std::unordered_map<std::uint64_t, typename std::list<Slot>::iterator> index;
    std::int64_t bytes = 0;
  };
  mutable Shard shards_[kShards];
  std::size_t per_shard_ = 32;
};

/// The process-wide analysis cache. Thread-safe; all methods may be
/// called concurrently (sweep shards do).
class AnalysisCache {
 public:
  void configure(const CacheConfig& config);
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::shared_ptr<const WorkloadSummary> find_summary(std::uint64_t key);
  void insert_summary(std::uint64_t key, std::shared_ptr<const WorkloadSummary> entry);

  std::shared_ptr<const LoweredEntry> find_lowered(std::uint64_t key);
  void insert_lowered(std::uint64_t key, std::shared_ptr<const LoweredEntry> entry);

  std::shared_ptr<const GraphEntry> find_graph(std::uint64_t key);
  void insert_graph(std::uint64_t key, std::shared_ptr<const GraphEntry> entry);

  std::shared_ptr<const MappingEntry> find_mapping(std::uint64_t key);
  void insert_mapping(std::uint64_t key, std::shared_ptr<const MappingEntry> entry);

  /// Aggregate counters over all stages (also published to obs metrics
  /// with per-stage labels as they change).
  [[nodiscard]] CacheStats stats() const;

  /// Drops all entries and zeroes the counters (tests; --cache=off
  /// keeps the structures but bypasses them).
  void clear();

 private:
  template <typename T>
  std::shared_ptr<const T> find(ShardedLru<T>& stage, std::uint64_t key, const char* name,
                                std::uint64_t ordinal);
  template <typename T>
  void insert(ShardedLru<T>& stage, std::uint64_t key, std::shared_ptr<const T> entry,
              const char* name);

  std::atomic<bool> enabled_{true};
  ShardedLru<WorkloadSummary> summaries_;
  ShardedLru<LoweredEntry> lowered_;
  ShardedLru<GraphEntry> graphs_;
  ShardedLru<MappingEntry> mappings_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

/// The process-wide cache instance used by Analyzer/sweep/bench.
AnalysisCache& analysis_cache();

// -- Key derivation ---------------------------------------------------------

/// Digest of an LNIC profile: name, every parameter (via the store's
/// canonical serialization) and the graph structure — any Π/Γ/Θ change
/// lands in one of those.
std::uint64_t hash_profile(const lnic::NicProfile& profile);

/// Digest of the workload-derived cost hints.
std::uint64_t hash_hints(const passes::CostHints& hints);

/// Key of the summary of the trace `profile` generates: its digest ⊕ buckets ⊕ flow-cache capacity.
std::uint64_t summary_key(const workload::WorkloadProfile& profile, std::size_t payload_buckets,
                          double flow_cache_capacity);

/// Key of the lowering front-end result.
std::uint64_t lowered_key(std::uint64_t input_fn_hash, bool pattern_matching, bool optimize_ir);

/// Key of a dataflow graph built from a lowered function under hints.
std::uint64_t graph_key(std::uint64_t lowered_fn_hash, std::uint64_t hints_hash,
                        std::uint64_t profile_hash);

/// Key of a mapping solve.
std::uint64_t mapping_key(std::uint64_t graph_digest, const mapping::MapOptions& options,
                          bool use_ilp);

}  // namespace clara::core
