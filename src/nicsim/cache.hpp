// Set-associative LRU cache model (the EMEM cache and flow cache).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace clara::nicsim {

/// Exact set-associative cache with true-LRU replacement. Tracks hits
/// and misses; the simulator charges latencies based on the outcome.
class SetAssocCache {
 public:
  SetAssocCache(Bytes capacity, std::uint32_t line_bytes, std::uint32_t ways);

  /// Touches the line containing `addr`; returns true on hit. A miss
  /// fills the line (evicting LRU).
  bool access(std::uint64_t addr);

  /// Invalidates every line and zeroes the counters in O(1): the cache
  /// moves to a new epoch, and a line is valid only in the epoch that
  /// filled it.
  void flush();

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double hit_rate() const {
    const auto total = hits_ + misses_;
    return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
  }
  [[nodiscard]] std::uint32_t num_sets() const { return sets_; }
  [[nodiscard]] std::uint32_t ways() const { return ways_; }

 private:
  struct Line {
    std::uint64_t tag = ~0ULL;
    std::uint64_t last_use = 0;
    std::uint64_t epoch = 0;  // valid iff equal to the cache's epoch_
  };

  std::uint32_t line_bytes_;
  std::uint32_t sets_;
  std::uint32_t ways_;
  std::vector<Line> lines_;  // sets_ * ways_, row-major by set
  /// Starts past every line's 0, and a 64-bit count of flushes never
  /// wraps back to an epoch a line still holds.
  std::uint64_t epoch_ = 1;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Fixed-capacity exact-match LRU table keyed by 64-bit ids (the flow
/// cache in front of the LPM engine). Doubly-linked intrusive LRU over
/// a flat vector — O(1) lookup/insert via an index map.
class LruTable {
 public:
  explicit LruTable(std::uint32_t capacity);

  /// Returns true if `key` was present (and refreshes it); inserts it
  /// (evicting the LRU victim when full) otherwise.
  bool lookup_or_insert(std::uint64_t key);

  [[nodiscard]] bool contains(std::uint64_t key) const;
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] std::uint32_t capacity() const { return capacity_; }
  void clear();

 private:
  void touch(std::uint32_t slot);
  void detach(std::uint32_t slot);
  void attach_front(std::uint32_t slot);

  struct Node {
    std::uint64_t key = 0;
    std::uint32_t prev = ~0u;
    std::uint32_t next = ~0u;
    bool used = false;
  };

  std::uint32_t capacity_;
  std::uint32_t size_ = 0;
  std::vector<Node> nodes_;
  std::uint32_t head_ = ~0u;  // MRU
  std::uint32_t tail_ = ~0u;  // LRU
  // key -> slot. Rebuilding a std::unordered_map on eviction is fine at
  // these sizes.
  std::unordered_map<std::uint64_t, std::uint32_t> index_;
};

}  // namespace clara::nicsim
