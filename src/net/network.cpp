#include "net/network.hpp"

#include <algorithm>

#include "util/require.hpp"

namespace minim::net {

AdhocNetwork::AdhocNetwork(double width, double height, double grid_cell,
                           std::shared_ptr<const PropagationModel> propagation)
    : width_(width),
      height_(height),
      propagation_(propagation ? std::move(propagation) : free_space_propagation()),
      grid_(width, height, grid_cell) {}

const NodeConfig& AdhocNetwork::config(NodeId v) const {
  MINIM_REQUIRE(contains(v), "config: unknown node");
  return configs_[v];
}

double AdhocNetwork::max_range() const {
  return ranges_.empty() ? 0.0 : *ranges_.rbegin();
}

NodeId AdhocNetwork::add_node(const NodeConfig& config) {
  MINIM_REQUIRE(config.range >= 0.0, "node range must be non-negative");
  const NodeId id = graph_.add_node();
  if (id >= configs_.size()) configs_.resize(id + 1);
  configs_[id] = config;
  configs_[id].position = util::clamp_to_box(config.position, width_, height_);
  grid_.insert(id, configs_[id].position);
  ranges_.insert(config.range);
  conflict_.on_node_added(id);
  refresh_out_edges(id);
  refresh_in_edges(id);
  return id;
}

void AdhocNetwork::remove_node(NodeId v) {
  MINIM_REQUIRE(contains(v), "remove_node: unknown node");
  grid_.remove(v, configs_[v].position);
  ranges_.erase(ranges_.find(configs_[v].range));
  // Retract the out-fan, then the in-fan, each as one batch (every touched
  // conflict row merges once).  Spans are copied first: the unlinks mutate
  // the rows they point into.
  const auto outs = graph_.out_neighbors(v);
  stale_.assign(outs.begin(), outs.end());
  unlink_out_fan(v, stale_);
  const auto ins = graph_.in_neighbors(v);
  stale_.assign(ins.begin(), ins.end());
  unlink_in_fan(stale_, v);
  conflict_.on_node_removed(v);
  graph_.remove_node(v);
}

void AdhocNetwork::reset(double width, double height) {
  MINIM_REQUIRE(width > 0 && height > 0, "reset: dimensions must be positive");
  if (width != width_ || height != height_) {
    width_ = width;
    height_ = height;
    grid_ = graph::SpatialGrid(width, height, grid_.cell_size());
  } else {
    grid_.clear();
  }
  graph_.clear();
  conflict_.clear();
  ranges_.clear();
}

void AdhocNetwork::link_out_fan(NodeId u, const std::vector<NodeId>& targets) {
  if (targets.empty()) return;
  conflict_.on_out_edges_added(graph_, u, targets);
  for (NodeId w : targets) graph_.add_edge(u, w);
}

void AdhocNetwork::unlink_out_fan(NodeId u, const std::vector<NodeId>& targets) {
  if (targets.empty()) return;
  conflict_.on_out_edges_removed(graph_, u, targets);
  for (NodeId w : targets) graph_.remove_edge(u, w);
}

void AdhocNetwork::link_in_fan(const std::vector<NodeId>& senders, NodeId v) {
  if (senders.empty()) return;
  conflict_.on_in_edges_added(graph_, senders, v);
  for (NodeId w : senders) graph_.add_edge(w, v);
}

void AdhocNetwork::unlink_in_fan(const std::vector<NodeId>& senders, NodeId v) {
  if (senders.empty()) return;
  conflict_.on_in_edges_removed(graph_, senders, v);
  for (NodeId w : senders) graph_.remove_edge(w, v);
}

void AdhocNetwork::set_position(NodeId v, util::Vec2 position) {
  MINIM_REQUIRE(contains(v), "set_position: unknown node");
  const util::Vec2 clamped = util::clamp_to_box(position, width_, height_);
  grid_.move(v, configs_[v].position, clamped);
  configs_[v].position = clamped;
  refresh_out_edges(v);
  refresh_in_edges(v);
}

void AdhocNetwork::set_range(NodeId v, double range) {
  MINIM_REQUIRE(contains(v), "set_range: unknown node");
  MINIM_REQUIRE(range >= 0.0, "node range must be non-negative");
  ranges_.erase(ranges_.find(configs_[v].range));
  ranges_.insert(range);
  configs_[v].range = range;
  refresh_out_edges(v);  // only v's own reach changes
}

void AdhocNetwork::refresh_out_edges(NodeId v) {
  // Desired out-neighbor set under the current config, sorted.
  const NodeConfig& cv = configs_[v];
  scratch_.clear();
  grid_.query_disc(cv.position, cv.range, scratch_);
  desired_.clear();
  for (NodeId w : scratch_) {
    if (w == v) continue;
    if (propagation_->reaches(cv.position, cv.range, configs_[w].position))
      desired_.push_back(w);
  }
  std::sort(desired_.begin(), desired_.end());

  // Diff against the live sorted set: surviving edges generate no deltas,
  // and each fan (drops, then adds) merges into v's conflict row once.
  const std::span<const NodeId> current = graph_.out_neighbors(v);
  stale_.clear();
  std::set_difference(current.begin(), current.end(), desired_.begin(),
                      desired_.end(), std::back_inserter(stale_));
  fresh_.clear();
  std::set_difference(desired_.begin(), desired_.end(), current.begin(),
                      current.end(), std::back_inserter(fresh_));
  unlink_out_fan(v, stale_);
  link_out_fan(v, fresh_);
}

void AdhocNetwork::refresh_in_edges(NodeId v) {
  const util::Vec2 p = configs_[v].position;
  scratch_.clear();
  grid_.query_disc(p, max_range(), scratch_);
  desired_.clear();
  for (NodeId w : scratch_) {
    if (w == v) continue;
    const NodeConfig& cw = configs_[w];
    if (propagation_->reaches(cw.position, cw.range, p)) desired_.push_back(w);
  }
  std::sort(desired_.begin(), desired_.end());

  const std::span<const NodeId> current = graph_.in_neighbors(v);
  stale_.clear();
  std::set_difference(current.begin(), current.end(), desired_.begin(),
                      desired_.end(), std::back_inserter(stale_));
  fresh_.clear();
  std::set_difference(desired_.begin(), desired_.end(), current.begin(),
                      current.end(), std::back_inserter(fresh_));
  unlink_in_fan(stale_, v);
  link_in_fan(fresh_, v);
}

bool AdhocNetwork::minimally_connected(NodeId v) const {
  MINIM_REQUIRE(contains(v), "minimally_connected: unknown node");
  return graph_.out_degree(v) > 0 && graph_.in_degree(v) > 0;
}

std::size_t AdhocNetwork::memory_bytes() const {
  return graph_.memory_bytes() + conflict_.memory_bytes() +
         grid_.memory_bytes() + configs_.capacity() * sizeof(NodeConfig) +
         ranges_.size() * (sizeof(double) + 4 * sizeof(void*)) +
         (scratch_.capacity() + desired_.capacity() + stale_.capacity() +
          fresh_.capacity()) *
             sizeof(NodeId);
}

graph::Digraph AdhocNetwork::rebuild_graph_brute_force() const {
  graph::Digraph fresh;
  const auto ids = graph_.nodes();
  // Recreate the same id space: add_node() reuses lowest free slots, so
  // insert in ascending id order and fill gaps with throwaway nodes.
  std::vector<NodeId> created;
  NodeId next = 0;
  for (NodeId v : ids) {
    while (next < v) {
      created.push_back(fresh.add_node());
      ++next;
    }
    fresh.add_node();
    ++next;
  }
  for (NodeId gap : created) fresh.remove_node(gap);

  for (NodeId u : ids) {
    const NodeConfig& cu = configs_[u];
    for (NodeId w : ids) {
      if (w == u) continue;
      if (propagation_->reaches(cu.position, cu.range, configs_[w].position))
        fresh.add_edge(u, w);
    }
  }
  return fresh;
}

}  // namespace minim::net
