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
          flips_.capacity() + fan_union_.capacity() + fan_others_.capacity()) *
             sizeof(NodeId) +
         (tally_.capacity() + flip_counts_.capacity()) * sizeof(std::uint32_t);
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
}

void ConflictGraph::cover_tally(const graph::Digraph& g, NodeId max_id) {
  const std::size_t bound = std::max<std::size_t>(g.id_bound(), max_id + 1);
  if (tally_.size() < bound) tally_.resize(bound, 0);
}

template <class Witnesses>
void ConflictGraph::update_row(NodeId u, std::span<const NodeId> partners,
                               int delta, Witnesses witnesses) {
  // One walk over the row's own ids bumps or drops the marked counts in
  // place.  A row holds a fan's partners scattered among several times as
  // many others, so the walk must not branch on the mark: `witnesses` is
  // arithmetic on it, and unmarked ids add or subtract zero.
  const std::span<const NodeId> ids = rows_.ids(u);
  const std::span<std::uint32_t> counts = rows_.counts_mut(u);
  std::size_t matched = 0;
  std::size_t vanished = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t change = witnesses(tally_[ids[i]]);
    if (delta > 0) {
      counts[i] += change;
    } else {
      MINIM_REQUIRE(counts[i] >= change,
                    "conflict graph: retracting an unknown witness");
      counts[i] -= change;
      vanished += counts[i] == 0 ? 1 : 0;
    }
    matched += change != 0 ? 1 : 0;
  }
  const std::size_t expected =
      partners.size() -
      (std::binary_search(partners.begin(), partners.end(), u) ? 1 : 0);
  flips_.clear();
  if (delta < 0) {
    MINIM_REQUIRE(matched == expected,
                  "conflict graph: retracting an unknown witness");
    // Pairs down to zero witnesses leave the row (pair went positive -> 0).
    if (vanished > 0) rows_.erase_zero_counts(u, flips_);
    return;
  }
  if (matched == expected) return;
  // Partners the row lacks are new pairs (0 -> positive): find them by one
  // read-only pass over both sorted lists, then merge them in.
  flip_counts_.clear();
  std::size_t i = 0;
  for (NodeId p : partners) {
    if (p == u) continue;
    while (i < ids.size() && ids[i] < p) ++i;
    if (i < ids.size() && ids[i] == p) continue;
    flips_.push_back(p);
    flip_counts_.push_back(witnesses(tally_[p]));
  }
  rows_.insert_batch(u, flips_, flip_counts_);
}

void ConflictGraph::apply_out_fan(const graph::Digraph& g, NodeId u,
                                  std::span<const NodeId> targets, int delta) {
  MINIM_REQUIRE(std::is_sorted(targets.begin(), targets.end()) &&
                    std::adjacent_find(targets.begin(), targets.end()) ==
                        targets.end(),
                "conflict graph: edge fan must be ascending and deduped");
  for (NodeId v : targets) {
    if (delta > 0) {
      MINIM_REQUIRE(!g.has_edge(u, v),
                    "conflict graph: edge delta already applied");
    } else {
      MINIM_REQUIRE(g.has_edge(u, v), "conflict graph: retracting an absent edge");
    }
  }
  const NodeId max_id = std::max(u, targets.back());
  if (delta > 0) rows_.ensure_row(max_id);
  cover_tally(g, max_id);

  // Tally the fan's partner multiset straight from the in-rows: edge u→v
  // witnesses (u, v) and (u, w) for every other sender w of v.  A partner
  // witnessing several edges (a co-sender to two targets) counts each, and
  // its first occurrence keeps its place in `partner_scratch_`.
  std::size_t occurrences = targets.size();
  for (NodeId v : targets) occurrences += g.in_degree(v);
  partner_scratch_.resize(occurrences);
  std::size_t unique = 0;
  const auto tally = [this, &unique](NodeId w) {
    partner_scratch_[unique] = w;
    unique += tally_[w]++ == 0 ? 1 : 0;
  };
  for (NodeId v : targets) {
    tally(v);
    for (NodeId w : g.in_neighbors(v))
      if (w != u) tally(w);
  }
  // Order the unique partners.  Where the id space is small next to the
  // fan (a dense field), one branch-free scan of the tally beats sorting.
  if (tally_.size() <= 16 * unique) {
    partner_scratch_.resize(tally_.size());
    unique = 0;
    for (NodeId w = 0; w < tally_.size(); ++w) {
      partner_scratch_[unique] = w;
      unique += tally_[w] != 0 ? 1 : 0;
    }
    partner_scratch_.resize(unique);
  } else {
    partner_scratch_.resize(unique);
    std::sort(partner_scratch_.begin(), partner_scratch_.end());
  }
  update_row(u, partner_scratch_, delta,
             [](std::uint32_t witnesses) { return witnesses; });

  // One reciprocal touch per partner, ascending; each pair that appeared or
  // vanished journals both ends.
  std::size_t flip = 0;
  for (NodeId w : partner_scratch_) {
    const std::uint32_t witnesses = tally_[w];
    tally_[w] = 0;
    const bool flipped = flip < flips_.size() && flips_[flip] == w;
    if (flipped) ++flip;
    if (delta > 0) {
      if (flipped) {
        rows_.insert(w, u, witnesses);
        ++pair_count_;
        mark_dirty(u);
        mark_dirty(w);
      } else {
        *rows_.find(w, u) += witnesses;
      }
    } else {
      if (flipped) {
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
  const NodeId max_id = std::max(v, senders.back());
  if (delta > 0) rows_.ensure_row(max_id);
  cover_tally(g, max_id);

  // Per-edge deltas in ascending sender order would give, in total: one
  // witness to every (s, v), to every (s, o) with o another sender of v,
  // and to every pair of fan members.  Mark the fan once in the tally —
  // every member kMember, the senders kMember | kSender — and update each
  // touched row in place: v and the other senders take the senders, each
  // sender takes the rest of the fan.  Rows journal themselves once per
  // pair that appeared or vanished, in the order v, senders, other senders.
  constexpr std::uint32_t kMember = 1;
  constexpr std::uint32_t kSender = 2;
  for (NodeId w : fan_union_) tally_[w] = kMember;
  for (NodeId s : senders) tally_[s] = kMember | kSender;
  const auto sender = [](std::uint32_t mark) { return (mark & kSender) >> 1; };
  const auto member = [](std::uint32_t mark) { return mark & kMember; };
  std::size_t transitions = 0;
  const auto journal_flips = [&](NodeId r) {
    for (std::size_t k = 0; k < flips_.size(); ++k) mark_dirty(r);
    transitions += flips_.size();
  };
  update_row(v, senders, delta, sender);
  journal_flips(v);
  for (NodeId s : senders) {
    update_row(s, fan_union_, delta, member);
    journal_flips(s);
  }
  for (NodeId o : fan_others_) {
    update_row(o, senders, delta, sender);
    journal_flips(o);
  }
  for (NodeId w : fan_union_) tally_[w] = 0;
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
  for (NodeId w : partner_scratch_) add_witness(u, w);
}

void ConflictGraph::on_edge_removed(const graph::Digraph& g, NodeId u, NodeId v) {
  MINIM_REQUIRE(g.has_edge(u, v), "conflict graph: retracting an absent edge");
  collect_edge_partners(g, u, v);
  for (NodeId w : partner_scratch_) retract_witness(u, w);
}

void ConflictGraph::on_out_edges_added(const graph::Digraph& g, NodeId u,
                                       std::span<const NodeId> targets) {
  if (targets.empty()) return;
  apply_out_fan(g, u, targets, +1);
}

void ConflictGraph::on_out_edges_removed(const graph::Digraph& g, NodeId u,
                                         std::span<const NodeId> targets) {
  if (targets.empty()) return;
  apply_out_fan(g, u, targets, -1);
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
