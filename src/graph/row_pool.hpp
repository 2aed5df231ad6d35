#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

/// \file row_pool.hpp
/// \brief CSR-style pooled storage for per-node adjacency rows.
///
/// The hot data structures of the engine — digraph adjacency and conflict
/// rows — used to be `vector<vector<NodeId>>`: one heap allocation plus a
/// 24-byte header per node per direction, scattered across the heap.  At
/// 10⁵–10⁶ nodes that layout dominates both the memory footprint and the
/// cache-miss profile of every neighborhood scan.
///
/// A `RowPool` keeps every row in one shared `u32` pool; a row is an
/// (offset, size, capacity) triple.  Rows stay sorted (the engine's
/// invariant) and mutate in place while they fit; a row that outgrows its
/// slot relocates to the pool tail with doubled capacity, abandoning its old
/// slot.  Abandoned space is reclaimed by compaction once it exceeds half the
/// pool.  `clear()` resets the watermark but keeps the allocation — the
/// arena-reuse contract of `sim::replay`.
///
/// Invalidation rule: any mutating call may relocate rows or compact the
/// pool, so spans returned by `row()` are invalidated by *any* subsequent
/// mutation of the same pool (erase-only sequences do not relocate, but
/// callers should not rely on that beyond the documented uses).
///
/// `CountedRowPool` is the same structure with a parallel per-element `u32`
/// payload (the conflict cache's witness multiplicities); the ids and counts
/// pools share one set of row refs, so `ids(v)` stays a contiguous span.
/// Besides single-entry insert/erase it updates a row in bulk, in place:
/// counts are bumped or dropped through `counts_mut`, new ids go in with one
/// backward merge (`insert_batch`), and zeroed entries leave in one
/// compaction pass (`erase_zero_counts`).
namespace minim::graph {

using NodeId = std::uint32_t;

namespace detail {

struct RowRef {
  std::uint32_t offset = 0;
  std::uint32_t size = 0;
  std::uint32_t capacity = 0;
};

inline constexpr std::uint32_t kMinRowCapacity = 4;

}  // namespace detail

class RowPool {
 public:
  std::size_t row_count() const { return refs_.size(); }

  void ensure_row(std::uint32_t r) {
    if (r >= refs_.size()) refs_.resize(r + 1);
  }

  std::span<const NodeId> row(std::uint32_t r) const {
    if (r >= refs_.size()) return {};
    const detail::RowRef& ref = refs_[r];
    return {pool_.data() + ref.offset, ref.size};
  }

  std::size_t size(std::uint32_t r) const {
    return r < refs_.size() ? refs_[r].size : 0;
  }

  bool contains(std::uint32_t r, NodeId v) const {
    const auto xs = row(r);
    return std::binary_search(xs.begin(), xs.end(), v);
  }

  /// Inserts `v` into sorted row `r`; false when already present.
  bool insert_sorted(std::uint32_t r, NodeId v) {
    ensure_row(r);
    std::uint32_t at;
    {
      const detail::RowRef& ref = refs_[r];
      const NodeId* base = pool_.data() + ref.offset;
      const NodeId* end = base + ref.size;
      const NodeId* it = std::lower_bound(base, end, v);
      if (it != end && *it == v) return false;
      at = static_cast<std::uint32_t>(it - base);
    }
    // The index stays valid across grow(): relocation and compaction both
    // preserve row contents.
    if (refs_[r].size == refs_[r].capacity) grow(r);
    detail::RowRef& ref = refs_[r];
    NodeId* base = pool_.data() + ref.offset;
    std::memmove(base + at + 1, base + at, (ref.size - at) * sizeof(NodeId));
    base[at] = v;
    ++ref.size;
    return true;
  }

  /// Erases `v` from sorted row `r`; false when absent.  Never relocates.
  bool erase_sorted(std::uint32_t r, NodeId v) {
    if (r >= refs_.size()) return false;
    detail::RowRef& ref = refs_[r];
    NodeId* base = pool_.data() + ref.offset;
    NodeId* end = base + ref.size;
    NodeId* it = std::lower_bound(base, end, v);
    if (it == end || *it != v) return false;
    std::memmove(it, it + 1,
                 static_cast<std::size_t>(end - it - 1) * sizeof(NodeId));
    --ref.size;
    return true;
  }

  /// Empties row `r`, keeping its pool slot for reuse.
  void clear_row(std::uint32_t r) {
    if (r < refs_.size()) refs_[r].size = 0;
  }

  /// Empties every row and resets the pool watermark; capacity is kept.
  void clear() {
    for (detail::RowRef& ref : refs_) ref = detail::RowRef{};
    pool_.clear();
    abandoned_ = 0;
  }

  /// Heap bytes reachable from this pool (capacities, not sizes).
  std::size_t memory_bytes() const {
    return pool_.capacity() * sizeof(NodeId) +
           refs_.capacity() * sizeof(detail::RowRef);
  }

 private:
  void grow(std::uint32_t r) {
    detail::RowRef& ref = refs_[r];
    const std::uint32_t new_cap =
        std::max(detail::kMinRowCapacity, ref.capacity * 2);
    if (ref.offset + ref.capacity == pool_.size()) {
      // Row already sits at the tail: extend in place.
      pool_.resize(ref.offset + new_cap);
      ref.capacity = new_cap;
      return;
    }
    const auto new_offset = static_cast<std::uint32_t>(pool_.size());
    pool_.resize(pool_.size() + new_cap);
    std::memcpy(pool_.data() + new_offset, pool_.data() + ref.offset,
                ref.size * sizeof(NodeId));
    abandoned_ += ref.capacity;
    ref.offset = new_offset;
    ref.capacity = new_cap;
    if (abandoned_ > pool_.size() / 2 && pool_.size() > 4096) compact();
  }

  /// Rewrites the pool in row order, dropping abandoned slots.  The
  /// double-buffer is released afterwards: compaction is rare (amortized
  /// against the growth that caused it), and holding a pool-sized spare
  /// allocation would double the structure's real footprint.
  void compact() {
    std::vector<NodeId> compacted;
    compacted.reserve(pool_.size() - abandoned_);
    for (detail::RowRef& ref : refs_) {
      const auto new_offset = static_cast<std::uint32_t>(compacted.size());
      compacted.insert(compacted.end(), pool_.begin() + ref.offset,
                       pool_.begin() + ref.offset + ref.size);
      compacted.resize(new_offset + ref.capacity);
      ref.offset = new_offset;
    }
    pool_ = std::move(compacted);
    abandoned_ = 0;
  }

  std::vector<NodeId> pool_;
  std::vector<detail::RowRef> refs_;
  std::size_t abandoned_ = 0;
};

/// `RowPool` with a parallel `u32` count per element (same offsets in a
/// second pool), for the conflict cache's witness multiplicities.
class CountedRowPool {
 public:
  std::size_t row_count() const { return refs_.size(); }

  void ensure_row(std::uint32_t r) {
    if (r >= refs_.size()) refs_.resize(r + 1);
  }

  std::span<const NodeId> ids(std::uint32_t r) const {
    if (r >= refs_.size()) return {};
    const detail::RowRef& ref = refs_[r];
    return {ids_.data() + ref.offset, ref.size};
  }

  std::span<const std::uint32_t> counts(std::uint32_t r) const {
    if (r >= refs_.size()) return {};
    const detail::RowRef& ref = refs_[r];
    return {counts_.data() + ref.offset, ref.size};
  }

  std::size_t size(std::uint32_t r) const {
    return r < refs_.size() ? refs_[r].size : 0;
  }

  /// Mutable count slot for `v` in row `r`; nullptr when absent.
  std::uint32_t* find(std::uint32_t r, NodeId v) {
    if (r >= refs_.size()) return nullptr;
    const detail::RowRef& ref = refs_[r];
    const NodeId* base = ids_.data() + ref.offset;
    const NodeId* end = base + ref.size;
    const NodeId* it = std::lower_bound(base, end, v);
    if (it == end || *it != v) return nullptr;
    return counts_.data() + ref.offset + (it - base);
  }

  const std::uint32_t* find(std::uint32_t r, NodeId v) const {
    return const_cast<CountedRowPool*>(this)->find(r, v);
  }

  /// Inserts (v, count) into sorted row `r`.  Requires `v` absent.
  void insert(std::uint32_t r, NodeId v, std::uint32_t count) {
    ensure_row(r);
    std::uint32_t at;
    {
      const detail::RowRef& ref = refs_[r];
      const NodeId* base = ids_.data() + ref.offset;
      const NodeId* it = std::lower_bound(base, base + ref.size, v);
      at = static_cast<std::uint32_t>(it - base);
    }
    if (refs_[r].size == refs_[r].capacity) grow(r);
    detail::RowRef& ref = refs_[r];
    NodeId* ids = ids_.data() + ref.offset;
    std::uint32_t* cnts = counts_.data() + ref.offset;
    std::memmove(ids + at + 1, ids + at, (ref.size - at) * sizeof(NodeId));
    std::memmove(cnts + at + 1, cnts + at,
                 (ref.size - at) * sizeof(std::uint32_t));
    ids[at] = v;
    cnts[at] = count;
    ++ref.size;
  }

  /// Mutable counts of row `r`, parallel to `ids(r)`.  A caller may bump or
  /// drop them in place; an entry whose count reaches zero stays until
  /// `erase_zero_counts`.
  std::span<std::uint32_t> counts_mut(std::uint32_t r) {
    if (r >= refs_.size()) return {};
    const detail::RowRef& ref = refs_[r];
    return {counts_.data() + ref.offset, ref.size};
  }

  /// Inserts the sorted `ids`, each absent from row `r`, with the parallel
  /// `counts`.  One backward merge into the row's slot: the slot grows at
  /// most once, and only the entries above the smallest new id move.
  void insert_batch(std::uint32_t r, std::span<const NodeId> ids,
                    std::span<const std::uint32_t> counts) {
    if (ids.empty()) return;
    ensure_row(r);
    const auto added = static_cast<std::uint32_t>(ids.size());
    if (refs_[r].size + added > refs_[r].capacity)
      grow_to(r, refs_[r].size + added);
    detail::RowRef& ref = refs_[r];
    NodeId* row_ids = ids_.data() + ref.offset;
    std::uint32_t* row_counts = counts_.data() + ref.offset;
    // Fill [0, write) from the back; once every new id is placed, the
    // entries below stand where they were.
    std::size_t old = ref.size;
    std::size_t fresh = ids.size();
    std::size_t write = ref.size + added;
    while (fresh > 0) {
      --write;
      if (old > 0 && row_ids[old - 1] > ids[fresh - 1]) {
        --old;
        row_ids[write] = row_ids[old];
        row_counts[write] = row_counts[old];
      } else {
        --fresh;
        row_ids[write] = ids[fresh];
        row_counts[write] = counts[fresh];
      }
    }
    ref.size += added;
  }

  /// Drops every zero-count entry of row `r` in one pass, keeping the rest
  /// in order, and appends the dropped ids to `erased` (ascending).  Never
  /// relocates.
  void erase_zero_counts(std::uint32_t r, std::vector<NodeId>& erased) {
    if (r >= refs_.size()) return;
    detail::RowRef& ref = refs_[r];
    NodeId* row_ids = ids_.data() + ref.offset;
    std::uint32_t* row_counts = counts_.data() + ref.offset;
    std::uint32_t kept = static_cast<std::uint32_t>(
        std::find(row_counts, row_counts + ref.size, 0u) - row_counts);
    for (std::uint32_t i = kept; i < ref.size; ++i) {
      if (row_counts[i] == 0) {
        erased.push_back(row_ids[i]);
        continue;
      }
      row_ids[kept] = row_ids[i];
      row_counts[kept] = row_counts[i];
      ++kept;
    }
    ref.size = kept;
  }

  /// Erases `v` from row `r`.  Requires `v` present.  Never relocates.
  void erase(std::uint32_t r, NodeId v) {
    detail::RowRef& ref = refs_[r];
    NodeId* base = ids_.data() + ref.offset;
    NodeId* end = base + ref.size;
    NodeId* it = std::lower_bound(base, end, v);
    const auto at = static_cast<std::size_t>(it - base);
    std::memmove(it, it + 1,
                 static_cast<std::size_t>(end - it - 1) * sizeof(NodeId));
    std::uint32_t* cnts = counts_.data() + ref.offset;
    std::memmove(cnts + at, cnts + at + 1,
                 (ref.size - at - 1) * sizeof(std::uint32_t));
    --ref.size;
  }

  void clear() {
    for (detail::RowRef& ref : refs_) ref = detail::RowRef{};
    ids_.clear();
    counts_.clear();
    abandoned_ = 0;
  }

  std::size_t memory_bytes() const {
    return ids_.capacity() * sizeof(NodeId) +
           counts_.capacity() * sizeof(std::uint32_t) +
           refs_.capacity() * sizeof(detail::RowRef);
  }

 private:
  void grow(std::uint32_t r) { grow_to(r, refs_[r].capacity + 1); }

  void grow_to(std::uint32_t r, std::uint32_t min_cap) {
    detail::RowRef& ref = refs_[r];
    const std::uint32_t new_cap =
        std::max({detail::kMinRowCapacity, ref.capacity * 2, min_cap});
    if (ref.offset + ref.capacity == ids_.size()) {
      ids_.resize(ref.offset + new_cap);
      counts_.resize(ref.offset + new_cap);
      ref.capacity = new_cap;
      return;
    }
    const auto new_offset = static_cast<std::uint32_t>(ids_.size());
    ids_.resize(ids_.size() + new_cap);
    counts_.resize(counts_.size() + new_cap);
    std::memcpy(ids_.data() + new_offset, ids_.data() + ref.offset,
                ref.size * sizeof(NodeId));
    std::memcpy(counts_.data() + new_offset, counts_.data() + ref.offset,
                ref.size * sizeof(std::uint32_t));
    abandoned_ += ref.capacity;
    ref.offset = new_offset;
    ref.capacity = new_cap;
    if (abandoned_ > ids_.size() / 2 && ids_.size() > 4096) compact();
  }

  /// See RowPool::compact — the double-buffers are released afterwards so
  /// the footprint report stays honest.
  void compact() {
    std::vector<NodeId> new_ids;
    std::vector<std::uint32_t> new_counts;
    new_ids.reserve(ids_.size() - abandoned_);
    new_counts.reserve(ids_.size() - abandoned_);
    for (detail::RowRef& ref : refs_) {
      const auto new_offset = static_cast<std::uint32_t>(new_ids.size());
      new_ids.insert(new_ids.end(), ids_.begin() + ref.offset,
                     ids_.begin() + ref.offset + ref.size);
      new_counts.insert(new_counts.end(), counts_.begin() + ref.offset,
                        counts_.begin() + ref.offset + ref.size);
      new_ids.resize(new_offset + ref.capacity);
      new_counts.resize(new_offset + ref.capacity);
      ref.offset = new_offset;
    }
    ids_ = std::move(new_ids);
    counts_ = std::move(new_counts);
    abandoned_ = 0;
  }

  std::vector<NodeId> ids_;
  std::vector<std::uint32_t> counts_;
  std::vector<detail::RowRef> refs_;
  std::size_t abandoned_ = 0;
};

}  // namespace minim::graph
