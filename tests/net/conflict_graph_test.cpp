// The incremental ConflictGraph cache: delta maintenance cross-checked
// against from-scratch construction on brute-force-rebuilt digraphs after
// randomized join/leave/move/power event sequences, plus the dirty-journal
// protocol dirty-region consumers rely on.

#include "net/conflict_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <vector>

#include "net/constraints.hpp"
#include "net/network.hpp"
#include "util/rng.hpp"

namespace {

using minim::graph::Digraph;
using minim::graph::NodeId;
using minim::net::AdhocNetwork;
using minim::net::ConflictGraph;
using minim::util::Rng;

/// Asserts the two conflict graphs agree on every pair and multiplicity.
void expect_same(const ConflictGraph& actual, const ConflictGraph& expected) {
  ASSERT_EQ(actual.pair_count(), expected.pair_count());
  const NodeId bound = std::max(actual.id_bound(), expected.id_bound());
  for (NodeId v = 0; v < bound; ++v) {
    const auto a = actual.neighbors(v);
    const auto e = expected.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), e.begin(), e.end()))
        << "partner lists of node " << v << " differ";
    for (NodeId w : e)
      ASSERT_EQ(actual.multiplicity(v, w), expected.multiplicity(v, w))
          << "multiplicity of pair " << v << "," << w;
  }
}

/// The acceptance-criterion oracle: the incrementally maintained cache must
/// equal the conflict graph built from scratch on the brute-force-rebuilt
/// edge set.
void expect_matches_brute_force(const AdhocNetwork& net) {
  const Digraph fresh = net.rebuild_graph_brute_force();
  expect_same(net.conflict_graph(), ConflictGraph::build_from(fresh));
}

// ------------------------------------------------------------ hand geometry

TEST(ConflictGraphDeltas, PrimaryPairHasOneWitnessPerDirection) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 10.0});
  const NodeId b = net.add_node({{5, 0}, 1.0});  // hears a, cannot answer
  EXPECT_EQ(net.conflict_graph().multiplicity(a, b), 1u);
  net.set_range(b, 10.0);  // now mutual
  EXPECT_EQ(net.conflict_graph().multiplicity(a, b), 2u);
  EXPECT_EQ(net.conflict_graph().pair_count(), 1u);
}

TEST(ConflictGraphDeltas, HiddenPairCountsCommonReceivers) {
  // a and c are out of range of each other but both reach b (and later d).
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 12.0});
  const NodeId b = net.add_node({{10, 0}, 1.0});
  const NodeId c = net.add_node({{20, 0}, 12.0});
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 1u);  // via b
  const NodeId d = net.add_node({{10, 5}, 1.0});
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 2u);  // via b and d
  net.remove_node(b);
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 1u);
  net.remove_node(d);
  EXPECT_EQ(net.conflict_graph().multiplicity(a, c), 0u);
  EXPECT_FALSE(net.conflict_graph().in_conflict(a, c));
}

TEST(ConflictGraphDeltas, PowerDecreaseRetractsWitnesses) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 30.0});
  const NodeId b = net.add_node({{20, 0}, 30.0});
  ASSERT_TRUE(net.conflict_graph().in_conflict(a, b));
  net.set_range(a, 1.0);
  net.set_range(b, 1.0);
  EXPECT_FALSE(net.conflict_graph().in_conflict(a, b));
  EXPECT_EQ(net.conflict_graph().pair_count(), 0u);
  expect_matches_brute_force(net);
}

TEST(ConflictGraphDeltas, PartnersMatchConstraintEnumeration) {
  Rng rng(7);
  AdhocNetwork net;
  for (int i = 0; i < 25; ++i)
    net.add_node({{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(15, 35)});
  for (NodeId v : net.nodes()) {
    const auto row = net.conflict_graph().neighbors(v);
    const std::vector<NodeId> partners(row.begin(), row.end());
    EXPECT_EQ(partners, minim::net::conflict_partners(net, v));
  }
}

// --------------------------------------------------- randomized event soak

/// One soak run: a seed and the shape of the network it churns.
struct SoakCase {
  std::uint64_t seed = 0;
  /// perfbench dense-churn's field (300 nodes on 100x100, ranges 10-25,
  /// relocations, 3x raises restored later) instead of the small mixed one.
  bool dense_churn = false;
};

// Prints the seed alone for the mixed shape, so those tests keep the names
// they had when the seed was the whole parameter.
void PrintTo(const SoakCase& soak, std::ostream* os) {
  if (soak.dense_churn) *os << "dense_churn_";
  *os << soak.seed;
}

/// Partner lists of every row below `bound`.
std::vector<std::vector<NodeId>> partner_lists(const ConflictGraph& cg,
                                               NodeId bound) {
  std::vector<std::vector<NodeId>> rows(bound);
  for (NodeId v = 0; v < bound; ++v) {
    const auto row = cg.neighbors(v);
    rows[v].assign(row.begin(), row.end());
  }
  return rows;
}

/// Runs one event, then checks the cache against the brute-force oracle and
/// that every node whose partner list changed is in the event's journal
/// window — the dirty set the bounded BBB repair starts from.
template <class Event>
void check_event(AdhocNetwork& net, Event&& event) {
  const ConflictGraph& cg = net.conflict_graph();
  const std::uint64_t since = cg.revision();
  const auto before = partner_lists(cg, net.id_bound());
  event();
  ASSERT_NO_FATAL_FAILURE(expect_matches_brute_force(net));
  std::vector<NodeId> window;
  ASSERT_TRUE(cg.append_dirty_since(since, window));
  std::sort(window.begin(), window.end());
  const NodeId bound = std::max(net.id_bound(), static_cast<NodeId>(before.size()));
  for (NodeId v = 0; v < bound; ++v) {
    const auto after = cg.neighbors(v);
    const std::vector<NodeId> empty;
    const std::vector<NodeId>& old = v < before.size() ? before[v] : empty;
    if (std::equal(after.begin(), after.end(), old.begin(), old.end())) continue;
    ASSERT_TRUE(std::binary_search(window.begin(), window.end(), v))
        << "node " << v << " changed partners but is not journaled";
  }
}

/// The small mixed soak: ~40 nodes on 100x100, ranges 10-35, joins, moves,
/// power changes both ways and leaves.
void mixed_soak(Rng& rng) {
  AdhocNetwork net;
  std::vector<NodeId> live;
  for (int event = 0; event < 120; ++event) {
    const double roll = rng.uniform(0, 1);
    ASSERT_NO_FATAL_FAILURE(check_event(net, [&] {
      if (live.size() < 5 || roll < 0.35) {  // join
        live.push_back(net.add_node(
            {{rng.uniform(0, 100), rng.uniform(0, 100)}, rng.uniform(10, 35)}));
      } else if (roll < 0.55) {  // move
        const NodeId v = live[rng.below(live.size())];
        net.set_position(v, {rng.uniform(0, 100), rng.uniform(0, 100)});
      } else if (roll < 0.85) {  // power change (raise or cut)
        const NodeId v = live[rng.below(live.size())];
        net.set_range(v, rng.uniform(0, 40));
      } else {  // leave
        const std::size_t index = rng.below(live.size());
        net.remove_node(live[index]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
      }
    })) << "event " << event;
  }
}

/// Dense-churn's shape: rows of ~75 partners and in-fans of ~28 senders,
/// so every fan runs the in-place insert and vanish paths at full size.
/// Population stays near 300 through leaves and joins; a raise triples a
/// node's range and is restored 4-12 events later unless the node left.
void dense_churn_soak(Rng& rng) {
  constexpr std::size_t kPopulation = 300;
  const auto place = [&] {
    return minim::util::Vec2{rng.uniform(0, 100), rng.uniform(0, 100)};
  };
  AdhocNetwork net;
  std::vector<NodeId> live;
  std::vector<double> base_range;
  for (std::size_t i = 0; i < kPopulation; ++i) {
    const double range = rng.uniform(10, 25);
    live.push_back(net.add_node({place(), range}));
    base_range.resize(std::max<std::size_t>(base_range.size(), live.back() + 1));
    base_range[live.back()] = range;
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches_brute_force(net));
  // The shape the soak is for: conflict rows of dense-churn's size.
  ASSERT_GT(2.0 * static_cast<double>(net.conflict_graph().pair_count()) /
                static_cast<double>(net.node_count()),
            60.0);

  struct Restore {
    int due;
    NodeId node;
  };
  std::vector<Restore> restores;
  for (int event = 0; event < 120; ++event) {
    const auto due = std::find_if(restores.begin(), restores.end(),
                                  [&](const Restore& r) { return r.due <= event; });
    ASSERT_NO_FATAL_FAILURE(check_event(net, [&] {
      if (due != restores.end()) {  // restore a raised range
        net.set_range(due->node, base_range[due->node]);
        restores.erase(due);
        return;
      }
      const double roll = rng.uniform(0, 1);
      const std::size_t index = rng.below(live.size());
      const NodeId v = live[index];
      const bool raised = std::any_of(restores.begin(), restores.end(),
                                      [&](const Restore& r) { return r.node == v; });
      if (roll < 0.15 && !raised) {  // 3x raise
        net.set_range(v, 3.0 * base_range[v]);
        restores.push_back({event + 4 + static_cast<int>(rng.below(9)), v});
      } else if (roll < 0.35 && live.size() > kPopulation * 9 / 10) {  // leave
        net.remove_node(v);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(index));
        std::erase_if(restores, [&](const Restore& r) { return r.node == v; });
      } else if (roll < 0.55 && live.size() < kPopulation * 11 / 10) {  // join
        const double range = rng.uniform(10, 25);
        live.push_back(net.add_node({place(), range}));
        base_range.resize(std::max<std::size_t>(base_range.size(), live.back() + 1));
        base_range[live.back()] = range;
      } else {  // uniform relocation
        net.set_position(v, place());
      }
    })) << "event " << event;
  }
}

class ConflictGraphSoak : public ::testing::TestWithParam<SoakCase> {};

TEST_P(ConflictGraphSoak, IncrementalEqualsBruteForceRebuild) {
  Rng rng(GetParam().seed);
  if (GetParam().dense_churn) {
    dense_churn_soak(rng);
  } else {
    mixed_soak(rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictGraphSoak,
                         ::testing::Values(SoakCase{101u}, SoakCase{202u},
                                           SoakCase{303u}, SoakCase{404u, true}));

// ------------------------------------------------------------- the journal

TEST(ConflictGraphJournal, ReportsNodesTouchedSinceARevision) {
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 15.0});
  const NodeId b = net.add_node({{10, 0}, 15.0});
  const std::uint64_t synced = net.conflict_graph().revision();

  const NodeId c = net.add_node({{12, 0}, 15.0});
  std::vector<NodeId> dirty;
  ASSERT_TRUE(net.conflict_graph().append_dirty_since(synced, dirty));
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  // The join links c to b (primary) and to a (hidden via b): all three are
  // dirty.
  EXPECT_EQ(dirty, (std::vector<NodeId>{a, b, c}));

  // Nothing since the head revision.
  dirty.clear();
  ASSERT_TRUE(net.conflict_graph().append_dirty_since(
      net.conflict_graph().revision(), dirty));
  EXPECT_TRUE(dirty.empty());
}

TEST(ConflictGraphJournal, QuietEventTouchesNothing) {
  AdhocNetwork net;
  net.add_node({{0, 0}, 10.0});
  const NodeId b = net.add_node({{5, 0}, 10.0});
  const std::uint64_t synced = net.conflict_graph().revision();
  net.set_range(b, 10.5);  // still reaches exactly {a}: no existence change
  std::vector<NodeId> dirty;
  ASSERT_TRUE(net.conflict_graph().append_dirty_since(synced, dirty));
  EXPECT_TRUE(dirty.empty());
}

TEST(ConflictGraphJournal, TrimmingInvalidatesOldWindows) {
  // Force far more than the journal cap of existence transitions: toggling
  // a's range flips the single-witness pairs (a, b) and (a, c) each time
  // (b's range reaches nobody, so every witness involves a's out-edge).
  AdhocNetwork net;
  const NodeId a = net.add_node({{0, 0}, 12.0});
  net.add_node({{10, 0}, 1.0});  // b: the common receiver
  const NodeId c = net.add_node({{20, 0}, 12.0});
  const std::uint64_t ancient = 0;
  for (int i = 0; i < (1 << 14); ++i) {
    net.set_range(a, 1.0);
    net.set_range(a, 12.0);
  }
  std::vector<NodeId> dirty;
  EXPECT_FALSE(net.conflict_graph().append_dirty_since(ancient, dirty));
  // A recent window still answers.
  const std::uint64_t synced = net.conflict_graph().revision();
  net.set_range(c, 1.0);  // retracts (c, b) and the hidden (a, c)
  dirty.clear();
  EXPECT_TRUE(net.conflict_graph().append_dirty_since(synced, dirty));
  EXPECT_FALSE(dirty.empty());
}

TEST(ConflictGraphJournal, ClearInvalidatesEveryWindow) {
  AdhocNetwork net;
  net.add_node({{0, 0}, 15.0});
  net.add_node({{10, 0}, 15.0});
  const std::uint64_t synced = net.conflict_graph().revision();
  net.reset(100.0, 100.0);
  std::vector<NodeId> dirty;
  EXPECT_FALSE(net.conflict_graph().append_dirty_since(synced, dirty));
  EXPECT_EQ(net.conflict_graph().pair_count(), 0u);
}

// --------------------------------------------------------------- the arena

TEST(NetworkReset, ReplaysIdenticallyToAFreshNetwork) {
  Rng seed_rng(55);
  std::vector<minim::net::NodeConfig> configs;
  for (int i = 0; i < 30; ++i)
    configs.push_back({{seed_rng.uniform(0, 100), seed_rng.uniform(0, 100)},
                       seed_rng.uniform(10, 35)});

  AdhocNetwork reused;
  for (int i = 0; i < 12; ++i)  // occupy, then reset
    reused.add_node(configs[static_cast<std::size_t>(i)]);
  reused.remove_node(3);
  reused.reset(100.0, 100.0);
  ASSERT_EQ(reused.node_count(), 0u);

  AdhocNetwork fresh;
  for (const auto& config : configs) {
    const NodeId a = reused.add_node(config);
    const NodeId b = fresh.add_node(config);
    ASSERT_EQ(a, b);  // same id sequence
  }
  ASSERT_EQ(reused.graph().edge_count(), fresh.graph().edge_count());
  expect_same(reused.conflict_graph(), ConflictGraph::build_from(fresh.graph()));
}

// ------------------------------------------------------------- batched fans

/// Randomized digraph + node set shared by a sequential-protocol instance
/// and a batched-protocol instance.
struct FanFixture {
  Digraph g_seq;
  Digraph g_batch;
  ConflictGraph seq;
  ConflictGraph batch;

  explicit FanFixture(std::size_t n, Rng& rng, double edge_p = 0.25) {
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId a = g_seq.add_node();
      const NodeId b = g_batch.add_node();
      EXPECT_EQ(a, b);
      seq.on_node_added(a);
      batch.on_node_added(a);
    }
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = 0; v < n; ++v) {
        if (u == v || rng.uniform01() >= edge_p) continue;
        add_edge_both(u, v);
      }
  }

  /// Widens the id space with `count` nodes that have no edges.
  void add_isolated(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId a = g_seq.add_node();
      EXPECT_EQ(a, g_batch.add_node());
      seq.on_node_added(a);
      batch.on_node_added(a);
    }
  }

  void add_edge_both(NodeId u, NodeId v) {
    seq.on_edge_added(g_seq, u, v);
    g_seq.add_edge(u, v);
    batch.on_edge_added(g_batch, u, v);
    g_batch.add_edge(u, v);
  }
};

std::vector<NodeId> sorted_dirty_since(const ConflictGraph& cg,
                                       std::uint64_t since) {
  std::vector<NodeId> dirty;
  EXPECT_TRUE(cg.append_dirty_since(since, dirty));
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  return dirty;
}

TEST(ConflictGraphBatch, FanAddAndRemoveEqualSequentialEdgeDeltas) {
  Rng rng(321);
  for (int round = 0; round < 25; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.below(8));
    FanFixture fx(n, rng);
    // Odd rounds widen the id space far past the fan, as on a sparse
    // field: the fan's partners are then sorted, not scanned off the tally.
    if (round % 2 == 1) fx.add_isolated(400);

    // A fan from a random source to every non-neighbor (dense on purpose:
    // targets share co-senders, so single pairs collect several witnesses
    // in one batch).
    const NodeId u = static_cast<NodeId>(rng.below(n));
    std::vector<NodeId> targets;
    for (NodeId v = 0; v < n; ++v)
      if (v != u && !fx.g_seq.has_edge(u, v)) targets.push_back(v);
    if (targets.empty()) continue;

    const std::uint64_t seq_rev = fx.seq.revision();
    const std::uint64_t batch_rev = fx.batch.revision();

    for (NodeId v : targets) {
      fx.seq.on_edge_added(fx.g_seq, u, v);
      fx.g_seq.add_edge(u, v);
    }
    fx.batch.on_out_edges_added(fx.g_batch, u, targets);
    for (NodeId v : targets) fx.g_batch.add_edge(u, v);

    ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq)) << "round " << round;
    // Same number of journal marks (the dirty-fraction heuristics depend on
    // it) and the same dirty set.
    EXPECT_EQ(fx.batch.revision() - batch_rev, fx.seq.revision() - seq_rev);
    EXPECT_EQ(sorted_dirty_since(fx.batch, batch_rev),
              sorted_dirty_since(fx.seq, seq_rev));

    // And back out: the batched removal retracts exactly what the
    // sequential protocol does.
    for (NodeId v : targets) {
      fx.seq.on_edge_removed(fx.g_seq, u, v);
      fx.g_seq.remove_edge(u, v);
    }
    fx.batch.on_out_edges_removed(fx.g_batch, u, targets);
    for (NodeId v : targets) fx.g_batch.remove_edge(u, v);
    ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq)) << "round " << round;
    EXPECT_EQ(fx.batch.pair_count(), fx.seq.pair_count());
  }
}

/// The journal window since `since`, sorted with its repeats kept: equal
/// windows hold the same entries the same number of times.
std::vector<NodeId> sorted_window_since(const ConflictGraph& cg,
                                        std::uint64_t since) {
  std::vector<NodeId> window;
  EXPECT_TRUE(cg.append_dirty_since(since, window));
  std::sort(window.begin(), window.end());
  return window;
}

TEST(ConflictGraphBatch, InFanAddAndRemoveEqualSequentialEdgeDeltas) {
  Rng rng(654);
  int checked = 0;
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 6 + static_cast<std::size_t>(rng.below(10));
    FanFixture fx(n, rng);

    // A receiver that already has senders gains a random fan of new ones:
    // the fan members are each other's co-senders and the old senders'.
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (fx.g_seq.in_degree(v) == 0) continue;
    std::vector<NodeId> senders;
    for (NodeId s = 0; s < n; ++s)
      if (s != v && !fx.g_seq.has_edge(s, v) && rng.below(3) != 0)
        senders.push_back(s);
    if (senders.empty()) continue;
    ++checked;

    const std::uint64_t before_add = fx.seq.revision();
    ASSERT_EQ(fx.batch.revision(), before_add);
    for (NodeId s : senders) {
      fx.seq.on_edge_added(fx.g_seq, s, v);
      fx.g_seq.add_edge(s, v);
    }
    fx.batch.on_in_edges_added(fx.g_batch, senders, v);
    for (NodeId s : senders) fx.g_batch.add_edge(s, v);

    ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq)) << "round " << round;
    ASSERT_NO_FATAL_FAILURE(
        expect_same(fx.batch, ConflictGraph::build_from(fx.g_batch)));
    EXPECT_EQ(fx.batch.revision(), fx.seq.revision());
    EXPECT_EQ(sorted_window_since(fx.batch, before_add),
              sorted_window_since(fx.seq, before_add));

    // And back out, leaving the old senders in place.
    const std::uint64_t before_remove = fx.seq.revision();
    for (NodeId s : senders) {
      fx.seq.on_edge_removed(fx.g_seq, s, v);
      fx.g_seq.remove_edge(s, v);
    }
    fx.batch.on_in_edges_removed(fx.g_batch, senders, v);
    for (NodeId s : senders) fx.g_batch.remove_edge(s, v);

    ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq)) << "round " << round;
    ASSERT_NO_FATAL_FAILURE(
        expect_same(fx.batch, ConflictGraph::build_from(fx.g_batch)));
    EXPECT_EQ(fx.batch.pair_count(), fx.seq.pair_count());
    EXPECT_EQ(fx.batch.revision(), fx.seq.revision());
    EXPECT_EQ(sorted_window_since(fx.batch, before_remove),
              sorted_window_since(fx.seq, before_remove));
  }
  EXPECT_GE(checked, 20);
}

TEST(ConflictGraphBatch, InFanRejectsMalformedFansUntouched) {
  Rng rng(99);
  FanFixture fx(8, rng, 0.4);
  const NodeId v = 0;
  ASSERT_GT(fx.g_batch.in_degree(v), 0u);
  std::vector<NodeId> absent;
  for (NodeId s = 1; s < 8; ++s)
    if (!fx.g_batch.has_edge(s, v)) absent.push_back(s);
  ASSERT_GE(absent.size(), 2u);
  const NodeId present = fx.g_batch.in_neighbors(v)[0];

  using Fan = std::vector<NodeId>;
  EXPECT_THROW(fx.batch.on_in_edges_added(fx.g_batch, Fan{absent[1], absent[0]}, v),
               std::invalid_argument);  // not ascending
  EXPECT_THROW(fx.batch.on_in_edges_added(fx.g_batch, Fan{absent[0], absent[0]}, v),
               std::invalid_argument);  // duplicate sender
  Fan with_present = {absent[0], present};
  std::sort(with_present.begin(), with_present.end());
  EXPECT_THROW(fx.batch.on_in_edges_added(fx.g_batch, with_present, v),
               std::invalid_argument);  // edge already present
  EXPECT_THROW(fx.batch.on_in_edges_removed(fx.g_batch, with_present, v),
               std::invalid_argument);  // edge absent
  // A refused fan changes nothing.
  ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq));
  EXPECT_EQ(fx.batch.revision(), fx.seq.revision());
}

TEST(ConflictGraphBatch, OutFanRejectsMalformedFansUntouched) {
  Rng rng(98);
  FanFixture fx(8, rng, 0.4);
  const NodeId u = 0;
  std::vector<NodeId> absent;
  std::vector<NodeId> present;
  for (NodeId v = 1; v < 8; ++v)
    (fx.g_batch.has_edge(u, v) ? present : absent).push_back(v);
  ASSERT_GE(absent.size(), 2u);
  ASSERT_GE(present.size(), 1u);
  // Each bad edge comes after a good one, so a check made only when its
  // target is reached would come after a write.
  const auto absent_below = std::find_if(absent.begin(), absent.end(), [&](NodeId a) {
    return a < present.back();
  });
  const auto present_below = std::find_if(present.begin(), present.end(), [&](NodeId p) {
    return p < absent.back();
  });
  ASSERT_NE(absent_below, absent.end());
  ASSERT_NE(present_below, present.end());

  using Fan = std::vector<NodeId>;
  EXPECT_THROW(fx.batch.on_out_edges_added(fx.g_batch, u, Fan{absent[1], absent[0]}),
               std::invalid_argument);  // not ascending
  EXPECT_THROW(fx.batch.on_out_edges_added(fx.g_batch, u, Fan{absent[0], absent[0]}),
               std::invalid_argument);  // duplicate target
  EXPECT_THROW(
      fx.batch.on_out_edges_added(fx.g_batch, u, Fan{*absent_below, present.back()}),
      std::invalid_argument);  // edge already present
  EXPECT_THROW(
      fx.batch.on_out_edges_removed(fx.g_batch, u, Fan{*present_below, absent.back()}),
      std::invalid_argument);  // edge absent
  // A refused fan changes nothing: rows, counts, pair count, journal.
  ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq));
  EXPECT_EQ(fx.batch.revision(), fx.seq.revision());

  // And leaves no scratch behind: a good fan afterwards still matches the
  // per-edge reference.
  fx.batch.on_out_edges_added(fx.g_batch, u, absent);
  for (NodeId v : absent) {
    fx.g_batch.add_edge(u, v);
    fx.seq.on_edge_added(fx.g_seq, u, v);
    fx.g_seq.add_edge(u, v);
  }
  ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq));
  EXPECT_EQ(fx.batch.revision(), fx.seq.revision());
}

TEST(ConflictGraphBatch, EmptyFanIsANoOp) {
  Rng rng(5);
  FanFixture fx(6, rng);
  const std::uint64_t revision = fx.batch.revision();
  fx.batch.on_out_edges_added(fx.g_batch, 0, {});
  fx.batch.on_out_edges_removed(fx.g_batch, 0, {});
  fx.batch.on_in_edges_added(fx.g_batch, {}, 0);
  fx.batch.on_in_edges_removed(fx.g_batch, {}, 0);
  EXPECT_EQ(fx.batch.revision(), revision);
  ASSERT_NO_FATAL_FAILURE(expect_same(fx.batch, fx.seq));
}

// ------------------------------------------------------------- footprint

TEST(ConflictGraphMemory, CountsTheDeltaScratch) {
  // The out-fan's partner tally is indexed by node id, so a fan over ids
  // near 1,000 grows it to ~1,000 entries while adding only a few pairs.
  Digraph g;
  ConflictGraph cg;
  for (int i = 0; i <= 1000; ++i) cg.on_node_added(g.add_node());
  const std::size_t before = cg.memory_bytes();
  const std::vector<NodeId> targets = {999, 1000};
  cg.on_out_edges_added(g, 998, targets);
  for (NodeId t : targets) g.add_edge(998, t);
  EXPECT_EQ(cg.pair_count(), 2u);
  EXPECT_GE(cg.memory_bytes() - before, 1001 * sizeof(std::uint32_t));
}

}  // namespace
