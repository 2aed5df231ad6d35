#include "net/conflict_graph.hpp"

#include <algorithm>
#include <atomic>

#include "util/require.hpp"

namespace minim::net {

ConflictGraph::ConflictGraph() {
  static std::atomic<std::uint64_t> next_nonce{1};
  nonce_ = next_nonce.fetch_add(1, std::memory_order_relaxed);
}

namespace {

/// Journal size cap: one event's delta on paper-size networks is a few
/// hundred entries, so this covers many events of slack while bounding
/// memory on long-lived networks.  When full, the older half is discarded
/// and consumers past it fall back to a full pass.
constexpr std::size_t kJournalCap = 1 << 15;

}  // namespace

std::size_t ConflictGraph::memory_bytes() const {
  return rows_.memory_bytes() +
         (journal_.capacity() + partner_scratch_.capacity() +
          merged_ids_.capacity() + fan_union_.capacity() +
          fan_others_.capacity()) *
             sizeof(NodeId) +
         (partner_delta_.capacity() + merged_counts_.capacity() +
          tally_.capacity()) *
             sizeof(std::uint32_t) +
         partner_new_.capacity();
}

std::uint32_t ConflictGraph::multiplicity(NodeId u, NodeId v) const {
  const std::uint32_t* count = rows_.find(u, v);
  return count != nullptr ? *count : 0;
}

bool ConflictGraph::append_dirty_since(std::uint64_t since,
                                       std::vector<NodeId>& out) const {
  std::span<const NodeId> window;
  if (!dirty_window_since(since, window)) return false;
  out.insert(out.end(), window.begin(), window.end());
  return true;
}

bool ConflictGraph::dirty_window_since(std::uint64_t since,
                                       std::span<const NodeId>& out) const {
  out = {};
  if (since < trimmed_revision_) return false;
  if (since >= revision_) return true;  // nothing newer
  // Entry i holds revision journal_base_ + i; the window starts at the first
  // revision > since.
  const std::size_t first =
      since < journal_base_ ? 0
                            : static_cast<std::size_t>(since - journal_base_ + 1);
  out = std::span<const NodeId>(journal_).subspan(first);
  return true;
}

void ConflictGraph::mark_dirty(NodeId v) {
  if (journal_.size() >= kJournalCap) {
    // Drop the older half; amortized O(1) per entry.
    const std::size_t keep = kJournalCap / 2;
    const std::size_t dropped = journal_.size() - keep;
    trimmed_revision_ = journal_base_ + dropped - 1;
    journal_.erase(journal_.begin(),
                   journal_.begin() + static_cast<std::ptrdiff_t>(dropped));
    journal_base_ += dropped;
  }
  ++revision_;
  journal_.push_back(v);
}

bool ConflictGraph::bump_row(NodeId u, NodeId v) {
  rows_.ensure_row(u);
  if (std::uint32_t* count = rows_.find(u, v)) {
    ++*count;
    return false;
  }
  rows_.insert(u, v, 1);
  return true;
}

bool ConflictGraph::drop_row(NodeId u, NodeId v) {
  std::uint32_t* count = rows_.find(u, v);
  MINIM_REQUIRE(count != nullptr,
                "conflict graph: retracting an unknown witness");
  if (--*count > 0) return false;
  rows_.erase(u, v);
  return true;
}

void ConflictGraph::add_witness(NodeId u, NodeId v) {
  if (bump_row(u, v)) {
    bump_row(v, u);
    ++pair_count_;
    mark_dirty(u);
    mark_dirty(v);
  } else {
    bump_row(v, u);
  }
}

void ConflictGraph::retract_witness(NodeId u, NodeId v) {
  if (drop_row(u, v)) {
    drop_row(v, u);
    --pair_count_;
    mark_dirty(u);
    mark_dirty(v);
  } else {
    drop_row(v, u);
  }
}

void ConflictGraph::on_node_added(NodeId v) {
  rows_.ensure_row(v);
  MINIM_REQUIRE(rows_.size(v) == 0, "conflict graph: reused row not empty");
  mark_dirty(v);
}

void ConflictGraph::on_node_removed(NodeId v) {
  MINIM_REQUIRE(v < rows_.row_count() && rows_.size(v) == 0,
                "conflict graph: removing a node with live conflicts");
  mark_dirty(v);
}

void ConflictGraph::collect_edge_partners(const graph::Digraph& g, NodeId u,
                                          NodeId v) {
  // {v} (CA1) merged into in(v) \ {u} (CA2 co-senders); both inputs sorted,
  // v ∉ in(v) while the edge is unapplied, so the result is sorted unique.
  partner_scratch_.clear();
  bool placed = false;
  for (NodeId w : g.in_neighbors(v)) {
    if (w == u) continue;
    if (!placed && v < w) {
      partner_scratch_.push_back(v);
      placed = true;
    }
    partner_scratch_.push_back(w);
  }
  if (!placed) partner_scratch_.push_back(v);
  partner_delta_.clear();  // empty = every partner carries one witness
}

void ConflictGraph::append_edge_partners(const graph::Digraph& g, NodeId u,
                                         NodeId v) {
  partner_scratch_.push_back(v);
  for (NodeId w : g.in_neighbors(v))
    if (w != u) partner_scratch_.push_back(w);
}

void ConflictGraph::aggregate_partner_multiset(NodeId id_bound) {
  // Tally every occurrence, keeping each id's first one in place; a fan's
  // partner list repeats co-senders many times over, so sorting just the
  // unique ids is far cheaper than sorting the list.
  if (tally_.size() < id_bound) tally_.resize(id_bound, 0);
  std::size_t unique = 0;
  for (NodeId w : partner_scratch_)
    if (tally_[w]++ == 0) partner_scratch_[unique++] = w;
  partner_scratch_.resize(unique);
  std::sort(partner_scratch_.begin(), partner_scratch_.end());
  partner_delta_.resize(unique);
  for (std::size_t i = 0; i < unique; ++i) {
    partner_delta_[i] = tally_[partner_scratch_[i]];
    tally_[partner_scratch_[i]] = 0;
  }
}

void ConflictGraph::merge_row(NodeId u, std::span<const NodeId> partners,
                              std::span<const std::uint32_t> deltas, int delta,
                              NodeId skip) {
  // Merge pass over (row u, partners) into scratch — no per-partner search
  // or shifting of the hot row.  Nothing may hold a row span across the
  // write-back: replace_row may relocate the pool.
  const std::span<const NodeId> ids = rows_.ids(u);
  const std::span<const std::uint32_t> counts = rows_.counts(u);
  // An empty delta array means "one witness per partner" — the single-edge
  // and in-fan paths (whose partner lists are unique) skip filling it.
  const bool uniform = deltas.empty();
  const auto delta_of = [deltas, uniform](std::size_t j) -> std::uint32_t {
    return uniform ? 1 : deltas[j];
  };
  merged_ids_.clear();
  merged_counts_.clear();
  partner_new_.assign(partners.size(), 0);
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ids.size() || j < partners.size()) {
    if (j < partners.size() && partners[j] == skip) {
      ++j;
    } else if (j >= partners.size() ||
               (i < ids.size() && ids[i] < partners[j])) {
      merged_ids_.push_back(ids[i]);
      merged_counts_.push_back(counts[i]);
      ++i;
    } else if (i >= ids.size() || partners[j] < ids[i]) {
      MINIM_REQUIRE(delta > 0, "conflict graph: retracting an unknown witness");
      merged_ids_.push_back(partners[j]);
      merged_counts_.push_back(delta_of(j));
      partner_new_[j] = 1;  // pair went 0 -> positive
      ++j;
    } else {
      std::uint32_t count = counts[i];
      if (delta > 0) {
        count += delta_of(j);
      } else {
        MINIM_REQUIRE(count >= delta_of(j),
                      "conflict graph: retracting an unknown witness");
        count -= delta_of(j);
      }
      if (count > 0) {
        merged_ids_.push_back(ids[i]);
        merged_counts_.push_back(count);
      } else {
        partner_new_[j] = 1;  // pair went positive -> 0
      }
      ++i;
      ++j;
    }
  }
  rows_.replace_row(u, merged_ids_, merged_counts_);
}

std::size_t ConflictGraph::merge_row_journaled(NodeId u,
                                               std::span<const NodeId> partners,
                                               int delta, NodeId skip) {
  merge_row(u, partners, {}, delta, skip);
  std::size_t transitions = 0;
  for (char flipped : partner_new_) {
    if (!flipped) continue;
    mark_dirty(u);
    ++transitions;
  }
  return transitions;
}

void ConflictGraph::apply_partner_witnesses(NodeId u, int delta) {
  merge_row(u, partner_scratch_, partner_delta_, delta, graph::kInvalidNode);
  const bool uniform = partner_delta_.empty();
  for (std::size_t p = 0; p < partner_scratch_.size(); ++p) {
    const NodeId w = partner_scratch_[p];
    const std::uint32_t witnesses = uniform ? 1 : partner_delta_[p];
    if (delta > 0) {
      if (partner_new_[p]) {
        rows_.insert(w, u, witnesses);
        ++pair_count_;
        mark_dirty(u);
        mark_dirty(w);
      } else {
        *rows_.find(w, u) += witnesses;
      }
    } else {
      if (partner_new_[p]) {
        rows_.erase(w, u);
        --pair_count_;
        mark_dirty(u);
        mark_dirty(w);
      } else {
        *rows_.find(w, u) -= witnesses;
      }
    }
  }
}

void ConflictGraph::apply_in_fan(const graph::Digraph& g,
                                 std::span<const NodeId> senders, NodeId v,
                                 int delta) {
  MINIM_REQUIRE(std::is_sorted(senders.begin(), senders.end()) &&
                    std::adjacent_find(senders.begin(), senders.end()) ==
                        senders.end(),
                "conflict graph: edge fan must be ascending and deduped");
  // One pass over in(v) and the fan splits v's senders into the fan and
  // the others, and checks every fan edge is absent (add) or present
  // (remove) as it goes.
  const std::span<const NodeId> in = g.in_neighbors(v);
  fan_union_.clear();
  fan_others_.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < in.size() || j < senders.size()) {
    if (j >= senders.size() || (i < in.size() && in[i] < senders[j])) {
      fan_others_.push_back(in[i]);
      fan_union_.push_back(in[i]);
      ++i;
    } else if (i >= in.size() || senders[j] < in[i]) {
      MINIM_REQUIRE(delta > 0, "conflict graph: retracting an absent edge");
      fan_union_.push_back(senders[j]);
      ++j;
    } else {
      MINIM_REQUIRE(delta < 0, "conflict graph: edge delta already applied");
      fan_union_.push_back(senders[j]);
      ++i;
      ++j;
    }
  }
  fan_union_.insert(
      std::lower_bound(fan_union_.begin(), fan_union_.end(), v), v);
  if (delta > 0) rows_.ensure_row(std::max(v, senders.back()));

  // Per-edge deltas in ascending sender order would give, in total: one
  // witness to every (s, v), to every (s, o) with o another sender of v,
  // and to every pair of fan members.  Merge each touched row once.
  std::size_t transitions =
      merge_row_journaled(v, senders, delta, graph::kInvalidNode);
  for (NodeId s : senders)
    transitions += merge_row_journaled(s, fan_union_, delta, s);
  for (NodeId o : fan_others_)
    transitions += merge_row_journaled(o, senders, delta, graph::kInvalidNode);
  // Every transition was seen from both of its rows.
  if (delta > 0) {
    pair_count_ += transitions / 2;
  } else {
    pair_count_ -= transitions / 2;
  }
}

void ConflictGraph::on_edge_added(const graph::Digraph& g, NodeId u, NodeId v) {
  MINIM_REQUIRE(!g.has_edge(u, v), "conflict graph: edge delta already applied");
  rows_.ensure_row(std::max(u, v));
  collect_edge_partners(g, u, v);
  apply_partner_witnesses(u, +1);
}

void ConflictGraph::on_edge_removed(const graph::Digraph& g, NodeId u, NodeId v) {
  MINIM_REQUIRE(g.has_edge(u, v), "conflict graph: retracting an absent edge");
  collect_edge_partners(g, u, v);
  apply_partner_witnesses(u, -1);
}

void ConflictGraph::on_out_edges_added(const graph::Digraph& g, NodeId u,
                                       std::span<const NodeId> targets) {
  if (targets.empty()) return;
  MINIM_REQUIRE(std::is_sorted(targets.begin(), targets.end()) &&
                    std::adjacent_find(targets.begin(), targets.end()) ==
                        targets.end(),
                "conflict graph: edge fan must be ascending and deduped");
  NodeId max_id = u;
  partner_scratch_.clear();
  for (NodeId v : targets) {
    MINIM_REQUIRE(!g.has_edge(u, v),
                  "conflict graph: edge delta already applied");
    max_id = std::max(max_id, v);
    append_edge_partners(g, u, v);
  }
  rows_.ensure_row(max_id);
  aggregate_partner_multiset(g.id_bound());
  apply_partner_witnesses(u, +1);
}

void ConflictGraph::on_out_edges_removed(const graph::Digraph& g, NodeId u,
                                         std::span<const NodeId> targets) {
  if (targets.empty()) return;
  MINIM_REQUIRE(std::is_sorted(targets.begin(), targets.end()) &&
                    std::adjacent_find(targets.begin(), targets.end()) ==
                        targets.end(),
                "conflict graph: edge fan must be ascending and deduped");
  partner_scratch_.clear();
  for (NodeId v : targets) {
    MINIM_REQUIRE(g.has_edge(u, v), "conflict graph: retracting an absent edge");
    append_edge_partners(g, u, v);
  }
  aggregate_partner_multiset(g.id_bound());
  apply_partner_witnesses(u, -1);
}

void ConflictGraph::on_in_edges_added(const graph::Digraph& g,
                                      std::span<const NodeId> senders,
                                      NodeId v) {
  if (senders.empty()) return;
  apply_in_fan(g, senders, v, +1);
}

void ConflictGraph::on_in_edges_removed(const graph::Digraph& g,
                                        std::span<const NodeId> senders,
                                        NodeId v) {
  if (senders.empty()) return;
  apply_in_fan(g, senders, v, -1);
}

void ConflictGraph::clear() {
  rows_.clear();
  pair_count_ = 0;
  journal_.clear();
  // Any consumer synchronized to a pre-clear revision must full-rebuild:
  // advance the revision and declare everything at or below it trimmed.
  trimmed_revision_ = ++revision_;
  journal_base_ = revision_ + 1;
}

ConflictGraph ConflictGraph::build_from(const graph::Digraph& g) {
  ConflictGraph cg;
  if (g.id_bound() > 0) cg.rows_.ensure_row(g.id_bound() - 1);
  const auto nodes = g.nodes();
  for (NodeId u : nodes) {
    // CA1: one witness per directed edge.
    for (NodeId v : g.out_neighbors(u)) cg.add_witness(u, v);
    // CA2: one witness per (sender pair, common receiver); enumerate each
    // receiver's sender list once, pairs ordered i < j.
    const auto senders = g.in_neighbors(u);
    for (std::size_t i = 0; i < senders.size(); ++i)
      for (std::size_t j = i + 1; j < senders.size(); ++j)
        cg.add_witness(senders[i], senders[j]);
  }
  return cg;
}

}  // namespace minim::net
