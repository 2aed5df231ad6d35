#pragma once

#include "matching/bipartite_graph.hpp"

/// \file hungarian.hpp
/// \brief Exact maximum-weight bipartite matching (Kuhn–Munkres).
///
/// This is the paper's black box [14]: RecodeOnJoin/RecodeOnMove require a
/// *maximum-weight* matching on G' — not merely maximum-cardinality — because
/// the weight-3 old-color edges are what make the recoding minimal
/// (Theorem 4.1.8) and the weight-1 edges what make it optimal among minimal
/// strategies (Theorem 4.1.9).
///
/// Implementation: shortest-augmenting-path Hungarian algorithm (the e-maxx
/// formulation) with dual potentials, O(L² · (R + L)) for L left and R right
/// vertices.  Maximum-weight (possibly non-perfect) matching is reduced to
/// minimum-cost row-perfect assignment over R real columns plus L padding
/// columns of weight 0: a row assigned at weight 0 is reported unmatched.
/// No cost matrix is built: a real column's cost `w_max - w` is read from
/// the graph's row, a padding column's is `w_max`.  The working arrays are
/// reused per thread, and each augmenting-path step scans the columns once,
/// keeping the unvisited columns' slack offset by the step deltas summed so
/// far.  Ties go to the lowest column, and all arithmetic is integral, so
/// results are exact and deterministic.

namespace minim::matching {

/// Returns a maximum-weight matching of `g`.  Left vertices may stay
/// unmatched (exactly when every feasible color is taken by a heavier use).
MatchingResult max_weight_matching(const BipartiteGraph& g);

}  // namespace minim::matching
