#include "nicsim/cache.hpp"

#include <cassert>

namespace clara::nicsim {

SetAssocCache::SetAssocCache(Bytes capacity, std::uint32_t line_bytes, std::uint32_t ways)
    : line_bytes_(line_bytes), ways_(ways) {
  assert(line_bytes > 0 && ways > 0);
  // Exact set count (not rounded to a power of two): rounding down would
  // silently shrink a 3 MiB cache to 2 MiB of effective capacity, and
  // the predictor's hit-rate model uses the nominal capacity.
  const auto total_lines = static_cast<std::uint32_t>(capacity / line_bytes);
  sets_ = total_lines / ways;
  if (sets_ == 0) sets_ = 1;
  lines_.assign(static_cast<std::size_t>(sets_) * ways_, Line{});
}

bool SetAssocCache::access(std::uint64_t addr) {
  ++clock_;
  const std::uint64_t line_addr = addr / line_bytes_;
  const auto set = static_cast<std::uint32_t>(line_addr % sets_);
  // The full line address serves as the tag (a strict superset of the
  // conventional tag bits, so distinct lines never alias).
  const std::uint64_t tag = line_addr;

  Line* base = &lines_[static_cast<std::size_t>(set) * ways_];
  Line* victim = base;
  // The victim is the last invalid way, else the least recently used.
  for (std::uint32_t w = 0; w < ways_; ++w) {
    Line& line = base[w];
    const bool valid = line.epoch == epoch_;
    if (valid && line.tag == tag) {
      line.last_use = clock_;
      ++hits_;
      return true;
    }
    if (!valid) {
      victim = &line;
    } else if (victim->epoch == epoch_ && line.last_use < victim->last_use) {
      victim = &line;
    }
  }
  ++misses_;
  victim->epoch = epoch_;
  victim->tag = tag;
  victim->last_use = clock_;
  return false;
}

void SetAssocCache::flush() {
  ++epoch_;
  clock_ = hits_ = misses_ = 0;
}

LruTable::LruTable(std::uint32_t capacity) : capacity_(capacity) {
  nodes_.resize(capacity == 0 ? 1 : capacity);
}

bool LruTable::lookup_or_insert(std::uint64_t key) {
  if (capacity_ == 0) return false;
  const auto it = index_.find(key);
  if (it != index_.end()) {
    touch(it->second);
    return true;
  }
  std::uint32_t slot;
  if (size_ < capacity_) {
    slot = size_++;
  } else {
    slot = tail_;  // evict LRU
    detach(slot);
    index_.erase(nodes_[slot].key);
  }
  nodes_[slot].key = key;
  nodes_[slot].used = true;
  attach_front(slot);
  index_[key] = slot;
  return false;
}

bool LruTable::contains(std::uint64_t key) const { return index_.count(key) > 0; }

void LruTable::clear() {
  index_.clear();
  size_ = 0;
  head_ = tail_ = ~0u;
  for (auto& n : nodes_) n = Node{};
}

void LruTable::touch(std::uint32_t slot) {
  if (head_ == slot) return;
  detach(slot);
  attach_front(slot);
}

void LruTable::detach(std::uint32_t slot) {
  Node& n = nodes_[slot];
  if (n.prev != ~0u) nodes_[n.prev].next = n.next;
  if (n.next != ~0u) nodes_[n.next].prev = n.prev;
  if (head_ == slot) head_ = n.next;
  if (tail_ == slot) tail_ = n.prev;
  n.prev = n.next = ~0u;
}

void LruTable::attach_front(std::uint32_t slot) {
  Node& n = nodes_[slot];
  n.prev = ~0u;
  n.next = head_;
  if (head_ != ~0u) nodes_[head_].prev = slot;
  head_ = slot;
  if (tail_ == ~0u) tail_ = slot;
}

}  // namespace clara::nicsim
