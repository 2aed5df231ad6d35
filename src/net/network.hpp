#pragma once

#include <memory>
#include <set>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/spatial_grid.hpp"
#include "net/conflict_graph.hpp"
#include "net/propagation.hpp"
#include "util/geometry.hpp"

/// \file network.hpp
/// \brief The paper's network model: a power-controlled ad-hoc network.
///
/// Each node has a position (x, y) in a rectangular field and a maximum
/// transmission range r.  The induced communication digraph has the edge
/// u -> v iff d(u, v) <= r_u (v can hear u / is affected by u's
/// transmissions).  The digraph is maintained incrementally under the
/// paper's reconfiguration events: join, leave, move, power change.
///
/// A spatial hash grid accelerates "who is in range of p" queries; edge
/// updates after an event touch only the event's locality, mirroring the
/// paper's claim that recoding is a local affair.

namespace minim::net {

using graph::NodeId;
using graph::kInvalidNode;

/// A node's physical configuration.
struct NodeConfig {
  util::Vec2 position;
  double range = 0.0;
};

class AdhocNetwork {
 public:
  /// Field of `width` x `height` units (the paper uses 100 x 100).
  /// `grid_cell` tunes the spatial index only; any positive value is correct.
  /// `propagation` decides link existence (default: the paper's free-space
  /// disc; pass an ObstructedPropagation for the non-free-space
  /// generalization of Section 2).
  explicit AdhocNetwork(double width = 100.0, double height = 100.0,
                        double grid_cell = 12.5,
                        std::shared_ptr<const PropagationModel> propagation = nullptr);

  /// Adds a node with `config`; returns its id.  Edges in both directions
  /// are established per the range rule.
  NodeId add_node(const NodeConfig& config);

  /// Removes `v` and all its edges.
  void remove_node(NodeId v);

  /// Moves `v` to `position` (clamped to the field) and updates edges.
  void set_position(NodeId v, util::Vec2 position);

  /// Changes v's transmission range and updates v's out-edges.
  void set_range(NodeId v, double range);

  bool contains(NodeId v) const { return graph_.contains(v); }
  const NodeConfig& config(NodeId v) const;
  double width() const { return width_; }
  double height() const { return height_; }
  const PropagationModel& propagation() const { return *propagation_; }

  /// The induced communication digraph (authoritative edge set).
  const graph::Digraph& graph() const { return graph_; }

  /// The cached CA1 ∪ CA2 conflict adjacency, maintained incrementally from
  /// the digraph's edge deltas (see conflict_graph.hpp for the protocol).
  const ConflictGraph& conflict_graph() const { return conflict_; }

  /// Removes every node, retaining allocated capacity (graph slots, grid
  /// cells, conflict rows) — the arena-reuse path of `sim::replay`.  Node
  /// ids restart from 0, so a reset network replays a workload
  /// bit-identically to a freshly constructed one.  Changing the field
  /// dimensions rebuilds the spatial index.
  void reset(double width, double height);

  std::size_t node_count() const { return graph_.node_count(); }
  std::vector<NodeId> nodes() const { return graph_.nodes(); }
  /// Allocation-free variant: replaces `out` with all live ids, ascending.
  void nodes(std::vector<NodeId>& out) const { graph_.nodes(out); }
  NodeId id_bound() const { return graph_.id_bound(); }

  /// Nodes that hear `v` (v's out-neighbors; v's transmissions reach them).
  /// Spans point into pooled storage; any network mutation invalidates them.
  std::span<const NodeId> hearers_of(NodeId v) const { return graph_.out_neighbors(v); }

  /// Nodes that `v` hears (v's in-neighbors; the paper's "from-neighbors").
  std::span<const NodeId> heard_by(NodeId v) const { return graph_.in_neighbors(v); }

  /// The paper's Minimal Connectivity assumption: some node hears v and v
  /// hears some node.  The simulator can enforce this on reconfigurations.
  bool minimally_connected(NodeId v) const;

  /// Recomputes the full edge set by brute force into a fresh digraph —
  /// O(n^2) test oracle for the incremental maintenance.
  graph::Digraph rebuild_graph_brute_force() const;

  /// Heap bytes held by the engine's hot structures (digraph pools,
  /// conflict rows, journal and delta scratch, spatial grid, per-node config
  /// arrays) — the numerator of the large-N bytes/node report.
  std::size_t memory_bytes() const;

 private:
  /// Adds/removes a fan of u's out-edges (`targets` ascending, deduped, all
  /// absent/present respectively), accounting the conflict-graph delta
  /// first: one merge of u's conflict row for the whole fan
  /// (ConflictGraph::on_out_edges_*) instead of one per edge.
  void link_out_fan(NodeId u, const std::vector<NodeId>& targets);
  void unlink_out_fan(NodeId u, const std::vector<NodeId>& targets);
  /// Adds/removes a fan of v's in-edges (`senders` ascending, deduped, all
  /// absent/present respectively): each touched conflict row merges once
  /// for the whole fan (ConflictGraph::on_in_edges_*).
  void link_in_fan(const std::vector<NodeId>& senders, NodeId v);
  void unlink_in_fan(const std::vector<NodeId>& senders, NodeId v);
  /// Replaces v's out-edge set based on current config (diff against the
  /// live set, so unchanged edges generate no conflict-graph churn).
  void refresh_out_edges(NodeId v);
  /// Replaces v's in-edge set by probing nodes whose range could reach v
  /// (diffed the same way: the stale fan, then the fresh fan).
  void refresh_in_edges(NodeId v);
  double max_range() const;

  double width_;
  double height_;
  std::shared_ptr<const PropagationModel> propagation_;
  graph::Digraph graph_;
  graph::SpatialGrid grid_;
  ConflictGraph conflict_;
  std::vector<NodeConfig> configs_;  // indexed by NodeId
  /// Live ranges; O(log n) updates (a sorted vector's O(n) insert made the
  /// join sequence quadratic at 10⁶ nodes).  Only the max is queried.
  std::multiset<double> ranges_;
  mutable std::vector<NodeId> scratch_;
  std::vector<NodeId> desired_;  // refresh scratch: target neighbor set
  std::vector<NodeId> stale_;    // refresh scratch: edges to drop
  std::vector<NodeId> fresh_;    // refresh scratch: edges to add
};

}  // namespace minim::net
