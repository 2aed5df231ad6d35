// Pooled CSR row storage: sortedness, growth/relocation, compaction, arena
// reuse, and the counted pool's in-place bulk path (batch insert, zero-count
// compaction) the conflict graph's fans use — randomized against
// vector-of-vectors and map references.

#include "graph/row_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace {

using minim::graph::CountedRowPool;
using minim::graph::NodeId;
using minim::graph::RowPool;

std::vector<NodeId> to_vec(std::span<const NodeId> s) {
  return std::vector<NodeId>(s.begin(), s.end());
}

TEST(RowPool, InsertEraseKeepsRowsSortedUnique) {
  RowPool pool;
  EXPECT_TRUE(pool.insert_sorted(3, 7));
  EXPECT_TRUE(pool.insert_sorted(3, 2));
  EXPECT_TRUE(pool.insert_sorted(3, 5));
  EXPECT_FALSE(pool.insert_sorted(3, 5));  // duplicate
  EXPECT_EQ(to_vec(pool.row(3)), (std::vector<NodeId>{2, 5, 7}));
  EXPECT_TRUE(pool.contains(3, 5));
  EXPECT_FALSE(pool.contains(3, 4));
  EXPECT_TRUE(pool.erase_sorted(3, 5));
  EXPECT_FALSE(pool.erase_sorted(3, 5));  // already gone
  EXPECT_EQ(to_vec(pool.row(3)), (std::vector<NodeId>{2, 7}));
  EXPECT_TRUE(pool.row(99).empty());  // unknown rows read as empty
}

TEST(RowPool, RandomizedSoakMatchesReference) {
  minim::util::Rng rng(4242);
  RowPool pool;
  std::vector<std::vector<NodeId>> reference(40);
  for (int step = 0; step < 20000; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.below(reference.size()));
    const auto v = static_cast<NodeId>(rng.below(200));
    std::vector<NodeId>& ref = reference[r];
    if (rng.chance(0.6)) {
      const bool inserted = pool.insert_sorted(r, v);
      const auto it = std::lower_bound(ref.begin(), ref.end(), v);
      const bool expect = it == ref.end() || *it != v;
      ASSERT_EQ(inserted, expect);
      if (expect) ref.insert(it, v);
    } else if (rng.chance(0.8)) {
      const bool erased = pool.erase_sorted(r, v);
      const auto it = std::lower_bound(ref.begin(), ref.end(), v);
      const bool expect = it != ref.end() && *it == v;
      ASSERT_EQ(erased, expect);
      if (expect) ref.erase(it);
    } else {
      pool.clear_row(r);
      ref.clear();
    }
    if (step % 500 == 0) {
      for (std::uint32_t row = 0; row < reference.size(); ++row)
        ASSERT_EQ(to_vec(pool.row(row)), reference[row]) << "row " << row;
    }
  }
  for (std::uint32_t row = 0; row < reference.size(); ++row)
    ASSERT_EQ(to_vec(pool.row(row)), reference[row]);
  EXPECT_GT(pool.memory_bytes(), 0u);
}

TEST(RowPool, ClearResetsContentButKeepsRows) {
  RowPool pool;
  for (NodeId v = 0; v < 100; ++v) pool.insert_sorted(1, v);
  pool.clear();
  EXPECT_TRUE(pool.row(1).empty());
  EXPECT_EQ(pool.row_count(), 2u);  // refs survive for arena reuse
  EXPECT_TRUE(pool.insert_sorted(1, 42));
  EXPECT_EQ(to_vec(pool.row(1)), (std::vector<NodeId>{42}));
}

TEST(CountedRowPool, CountsFollowIdsThroughGrowthAndCompaction) {
  minim::util::Rng rng(99);
  CountedRowPool pool;
  std::vector<std::map<NodeId, std::uint32_t>> reference(16);
  for (int step = 0; step < 20000; ++step) {
    const auto r = static_cast<std::uint32_t>(rng.below(reference.size()));
    const auto v = static_cast<NodeId>(rng.below(150));
    auto& ref = reference[r];
    const auto it = ref.find(v);
    if (rng.chance(0.65)) {
      if (std::uint32_t* count = pool.find(r, v)) {
        ASSERT_TRUE(it != ref.end());
        ++*count;
        ++it->second;
      } else {
        ASSERT_TRUE(it == ref.end());
        pool.insert(r, v, 1);
        ref[v] = 1;
      }
    } else if (it != ref.end()) {
      std::uint32_t* count = pool.find(r, v);
      ASSERT_NE(count, nullptr);
      if (--*count == 0) pool.erase(r, v);
      if (--it->second == 0) ref.erase(it);
    }
    if (step % 1000 == 0) {
      for (std::uint32_t row = 0; row < reference.size(); ++row) {
        const auto ids = pool.ids(row);
        const auto counts = pool.counts(row);
        ASSERT_EQ(ids.size(), reference[row].size());
        std::size_t i = 0;
        for (const auto& [id, count] : reference[row]) {
          ASSERT_EQ(ids[i], id);
          ASSERT_EQ(counts[i], count);
          ++i;
        }
      }
    }
  }
}

void expect_counted_row(const CountedRowPool& pool, std::uint32_t r,
                        const std::map<NodeId, std::uint32_t>& reference) {
  const auto ids = pool.ids(r);
  const auto counts = pool.counts(r);
  ASSERT_EQ(ids.size(), reference.size()) << "row " << r;
  std::size_t i = 0;
  for (const auto& [id, count] : reference) {
    ASSERT_EQ(ids[i], id) << "row " << r << " entry " << i;
    ASSERT_EQ(counts[i], count) << "row " << r << " id " << id;
    ++i;
  }
}

TEST(CountedRowPool, BatchInsertAndZeroCompactionMatchReference) {
  constexpr NodeId kNoId = 999999;
  // Rows take sorted batches of absent ids (anywhere in the row: front,
  // middle, back) and lose counts in bulk, some to zero, mirrored into one
  // map per row.  Rows are created in order, so the early batches grow the
  // newest row at the pool tail in place; later ones outgrow slots in the
  // middle of the pool and relocate.  The zero-count compaction must report
  // exactly the ids whose counts reached zero.
  minim::util::Rng rng(2024);
  CountedRowPool pool;
  std::vector<std::map<NodeId, std::uint32_t>> reference(24);
  std::vector<NodeId> ids;
  std::vector<std::uint32_t> counts;
  for (int step = 0; step < 6000; ++step) {
    const auto r = static_cast<std::uint32_t>(
        step < 48 ? step / 2 : rng.below(reference.size()));
    auto& ref = reference[r];
    if (step < 48 || rng.chance(0.55)) {
      ids.clear();
      const std::size_t want = 1 + rng.below(48);
      for (std::size_t k = 0; k < want; ++k) {
        const auto v = static_cast<NodeId>(rng.below(1000));
        if (ref.count(v) == 0) ids.push_back(v);
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      counts.clear();
      for (NodeId v : ids) {
        counts.push_back(static_cast<std::uint32_t>(1 + rng.below(5)));
        ref[v] = counts.back();
      }
      pool.insert_batch(r, ids, counts);
    } else {
      const auto row_ids = pool.ids(r);
      const auto row_counts = pool.counts_mut(r);
      std::vector<NodeId> zeroed;
      for (std::size_t i = 0; i < row_ids.size(); ++i) {
        if (!rng.chance(0.4)) continue;
        const auto drop = static_cast<std::uint32_t>(1 + rng.below(row_counts[i]));
        row_counts[i] -= drop;
        auto it = ref.find(row_ids[i]);
        it->second -= drop;
        if (it->second == 0) {
          ref.erase(it);
          zeroed.push_back(row_ids[i]);
        }
      }
      std::vector<NodeId> erased = {kNoId};  // appended to, not cleared
      pool.erase_zero_counts(r, erased);
      zeroed.insert(zeroed.begin(), kNoId);
      ASSERT_EQ(erased, zeroed) << "step " << step;
    }
    ASSERT_NO_FATAL_FAILURE(expect_counted_row(pool, r, ref)) << "step " << step;
    if (step % 250 == 0) {
      for (std::uint32_t row = 0; row < reference.size(); ++row)
        ASSERT_NO_FATAL_FAILURE(expect_counted_row(pool, row, reference[row]))
            << "step " << step;
    }
  }
  for (std::uint32_t row = 0; row < reference.size(); ++row)
    ASSERT_NO_FATAL_FAILURE(expect_counted_row(pool, row, reference[row]));
  // Empty batches and rows without zeros are no-ops.
  const std::vector<NodeId> before = to_vec(pool.ids(3));
  std::vector<NodeId> erased;
  pool.insert_batch(3, {}, {});
  pool.erase_zero_counts(3, erased);
  EXPECT_EQ(to_vec(pool.ids(3)), before);
  EXPECT_TRUE(erased.empty());
}

}  // namespace
