#include "strategies/coloring.hpp"

#include <algorithm>
#include <cstdint>

#include "graph/algorithms.hpp"
#include "net/conflict_graph.hpp"

namespace minim::strategies {

const char* to_string(ColoringOrder order) {
  switch (order) {
    case ColoringOrder::kSmallestLast: return "smallest-last";
    case ColoringOrder::kDSatur: return "dsatur";
    case ColoringOrder::kLargestFirst: return "largest-first";
    case ColoringOrder::kIdentity: return "identity";
  }
  return "?";
}

std::vector<std::vector<net::NodeId>> conflict_adjacency(const net::AdhocNetwork& net) {
  std::vector<std::vector<net::NodeId>> adj(net.id_bound());
  for (net::NodeId v : net.nodes()) {
    const auto row = net.conflict_graph().neighbors(v);
    adj[v].assign(row.begin(), row.end());
  }
  return adj;
}

namespace {

/// Marks the colors of v's colored conflict neighbors into `scratch`.
void mark_neighbor_colors(const net::ConflictGraph& adj, net::NodeId v,
                          const net::CodeAssignment& assignment,
                          ColorScratch& scratch) {
  scratch.reset();
  for (net::NodeId w : adj[v]) {
    const net::Color c = assignment.color(w);
    if (c != net::kNoColor) scratch.mark(c);
  }
}

/// Colors `sequence` in order; each node takes the lowest color not used by
/// an already-colored conflict neighbor.
net::Color greedy_in_sequence(const net::ConflictGraph& adj,
                              const std::vector<net::NodeId>& sequence,
                              net::CodeAssignment& assignment) {
  net::Color used = 0;
  ColorScratch scratch;
  for (net::NodeId v : sequence) {
    mark_neighbor_colors(adj, v, assignment, scratch);
    const net::Color c = scratch.lowest_free();
    assignment.set_color(v, c);
    used = std::max(used, c);
  }
  return used;
}

/// DSATUR needs interleaved ordering and coloring, so it gets its own loop.
net::Color dsatur(const net::ConflictGraph& adj,
                  const std::vector<net::NodeId>& vertices,
                  net::CodeAssignment& assignment) {
  std::size_t bound = 0;
  for (net::NodeId v : vertices) bound = std::max<std::size_t>(bound, v + 1);
  std::vector<char> pending(bound, 0);
  for (net::NodeId v : vertices) pending[v] = 1;

  net::Color used = 0;
  ColorScratch scratch;
  for (std::size_t step = 0; step < vertices.size(); ++step) {
    // Pick the pending vertex with maximum saturation (distinct colors among
    // its conflict neighbors), ties by degree then by lowest id.
    net::NodeId best = graph::kInvalidNode;
    std::size_t best_sat = 0;
    std::size_t best_deg = 0;
    for (net::NodeId v : vertices) {
      if (!pending[v]) continue;
      mark_neighbor_colors(adj, v, assignment, scratch);
      const std::size_t sat = scratch.saturation();
      const std::size_t deg = adj[v].size();
      if (best == graph::kInvalidNode || sat > best_sat ||
          (sat == best_sat && deg > best_deg)) {
        best = v;
        best_sat = sat;
        best_deg = deg;
      }
    }
    mark_neighbor_colors(adj, best, assignment, scratch);
    const net::Color c = scratch.lowest_free();
    assignment.set_color(best, c);
    used = std::max(used, c);
    pending[best] = 0;
  }
  return used;
}

}  // namespace

std::vector<net::NodeId> coloring_sequence(const net::AdhocNetwork& net,
                                           std::vector<net::NodeId> vertices,
                                           ColoringOrder order) {
  const net::ConflictGraph& adj = net.conflict_graph();
  switch (order) {
    case ColoringOrder::kSmallestLast:
      return graph::smallest_last_order(adj, vertices);
    case ColoringOrder::kLargestFirst:
      std::stable_sort(vertices.begin(), vertices.end(),
                       [&adj](net::NodeId a, net::NodeId b) {
                         return adj[a].size() > adj[b].size();
                       });
      return vertices;
    case ColoringOrder::kIdentity:
      std::sort(vertices.begin(), vertices.end());
      return vertices;
    case ColoringOrder::kDSatur:
      return vertices;  // handled by the dedicated loop
  }
  return vertices;
}

net::Color greedy_color_in_sequence(const net::AdhocNetwork& net,
                                    const std::vector<net::NodeId>& sequence,
                                    net::CodeAssignment& assignment) {
  return greedy_in_sequence(net.conflict_graph(), sequence, assignment);
}

net::Color color_network(const net::AdhocNetwork& net, ColoringOrder order,
                         net::CodeAssignment& out) {
  // Start all nodes uncolored so greedy sees a clean slate.
  const std::vector<net::NodeId> nodes = net.nodes();
  for (net::NodeId v : nodes) out.clear(v);
  if (order == ColoringOrder::kDSatur)
    return dsatur(net.conflict_graph(), nodes, out);
  return greedy_in_sequence(net.conflict_graph(),
                            coloring_sequence(net, nodes, order), out);
}

}  // namespace minim::strategies
