#include "strategies/bbb.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "net/conflict_graph.hpp"
#include "util/require.hpp"

namespace minim::strategies {

std::string BbbStrategy::name() const {
  if (order_ == ColoringOrder::kSmallestLast)
    return params_.bounded_propagation ? "BBB-bounded" : "BBB";
  return std::string("BBB/") + to_string(order_);
}

const std::vector<net::NodeId>& BbbStrategy::sequence_for(
    const net::AdhocNetwork& net, const std::vector<net::NodeId>& nodes) {
  if (order_ == ColoringOrder::kSmallestLast) {
    orderer_.order(net, nodes, seq_);
    return seq_;
  }
  seq_ = coloring_sequence(net, nodes, order_);
  return seq_;
}

void BbbStrategy::snapshot(const net::AdhocNetwork& net,
                           const std::vector<net::NodeId>& sequence,
                           const net::CodeAssignment& assignment) {
  last_net_ = &net;
  last_revision_ = net.conflict_graph().revision();
  const std::size_t bound = net.id_bound();
  last_colors_.assign(bound, net::kNoColor);
  for (net::NodeId v : sequence) last_colors_[v] = assignment.color(v);
}

bool BbbStrategy::bounded_recolor(const net::AdhocNetwork& net,
                                  net::CodeAssignment& assignment,
                                  core::RecodeReport& report,
                                  std::size_t batch_events,
                                  std::span<const net::NodeId> joiners,
                                  std::span<const net::NodeId> reborn) {
  const net::ConflictGraph& cg = net.conflict_graph();
  std::span<const net::NodeId> window;
  if (last_net_ != &net || !cg.dirty_window_since(last_revision_, window)) {
    ++counters_.refused_unsynced;
    return false;
  }

  // Dedupe the window in journal order through the id-indexed mark, and
  // refuse as soon as more than `full_recolor_fraction` of the live nodes
  // are dirty.  Journaled ids are the network's ids, so id_bound covers
  // them; the mark is zero again before anything below runs.
  const std::size_t bound = net.id_bound();
  if (dirty_mark_.size() < bound) dirty_mark_.resize(bound, 0);
  const std::size_t live = net.node_count();
  const double dirty_cap =
      params_.full_recolor_fraction * static_cast<double>(live);
  bool half_dirty = false;
  dirty_.clear();
  for (net::NodeId v : window) {
    if (dirty_mark_[v]) continue;
    dirty_mark_[v] = 1;
    dirty_.push_back(v);
    if (static_cast<double>(dirty_.size()) > dirty_cap) {
      half_dirty = true;
      break;
    }
  }
  for (net::NodeId v : dirty_) dirty_mark_[v] = 0;
  if (half_dirty) {
    ++counters_.refused_half_dirty;
    return false;
  }
  if (last_colors_.size() < bound) last_colors_.resize(bound, net::kNoColor);

  // Foreign-mutation guard.  Sweeping every live node would be exactly the
  // O(n) this mode removes, so only the dirty region is checked — an
  // out-of-band recolor of an untouched node is *not* detected by the
  // bounded path (bench/sim drive one strategy per assignment, which is the
  // supported regime).
  for (net::NodeId v : dirty_) {
    if (net.contains(v) && last_colors_[v] != assignment.color(v)) {
      ++counters_.refused_foreign;
      return false;
    }
  }

  // Absorb the event(s) into the maintained rank order: departures
  // tombstone, joiners append in the batch's join order, reborn ids
  // tombstone-then-append.  A refusal (drift over threshold, or no order
  // yet) sends the event to the from-scratch path, which reseeds via
  // rebuild_ranks.
  if (!orderer_.try_maintain_ranks(net, dirty_, joiners, reborn)) {
    ++counters_.refused_drift;
    return false;
  }

  // Rank-ordered propagation from the live dirty nodes (see propagate()).
  live_dirty_.clear();
  for (net::NodeId v : dirty_) {
    if (!net.contains(v)) continue;
    MINIM_REQUIRE(orderer_.rank(v) != DegeneracyOrderer::kNoRank,
                  "bounded BBB: live dirty node missing from the rank order");
    live_dirty_.push_back(v);
  }

  // One batch coalesces `batch_events` events' worth of propagation, so it
  // gets their combined budget — a bailout still costs one from-scratch
  // pass either way, which is the amortization the batch path exists for.
  const std::size_t budget =
      batch_events *
      std::max<std::size_t>(
          32, static_cast<std::size_t>(params_.propagation_slack *
                                       static_cast<double>(live)));
  const bool absorbed = propagate(cg, budget);
  counters_.processed_ranks += frontier_.processed;
  if (!absorbed) {
    ++counters_.slack_bailouts;
    return false;
  }

  // Apply + report in ascending node order — the order the from-scratch
  // path emits.  The snapshot already holds every changed node's fresh
  // color; departures blank out, and everyone else is untouched (their
  // greedy color provably equals the snapshot).
  std::vector<core::Recode>& changed = frontier_.changed;
  std::sort(changed.begin(), changed.end(),
            [](const core::Recode& a, const core::Recode& b) {
              return a.node < b.node;
            });
  for (const core::Recode& change : changed)
    assignment.set_color(change.node, change.new_color);
  report.changes.insert(report.changes.end(), changed.begin(), changed.end());
  for (net::NodeId v : dirty_)
    if (!net.contains(v)) last_colors_[v] = net::kNoColor;
  last_revision_ = cg.revision();
  return true;
}

void BbbStrategy::Frontier::reset(std::uint32_t first, std::uint32_t last) {
  base = first;
  cursor = 0;
  const std::size_t span_words = ((last - first) >> 6) + 1;
  if (words.size() < span_words) {
    words.resize(span_words, 0);
    summary.resize((span_words + 63) >> 6, 0);
  }
  changed.clear();
  processed = 0;
}

void BbbStrategy::Frontier::push(std::uint32_t rank) {
  const std::size_t bit = rank - base;
  const std::size_t w = bit >> 6;
  const std::uint64_t mask = std::uint64_t{1} << (bit & 63);
  if (words[w] & mask) return;
  words[w] |= mask;
  summary[w >> 6] |= std::uint64_t{1} << (w & 63);
  ++pending;
}

bool BbbStrategy::Frontier::pop(std::uint32_t& rank) {
  if (pending == 0) return false;
  if (words[cursor] == 0) {
    // The next summary bit at or past the cursor names the next pending
    // word; one exists, since a rank is pending and none lies below.
    std::size_t s = cursor >> 6;
    std::uint64_t bits = summary[s] & (~std::uint64_t{0} << (cursor & 63));
    while (bits == 0) bits = summary[++s];
    cursor = (s << 6) + static_cast<std::size_t>(std::countr_zero(bits));
  }
  std::uint64_t& word = words[cursor];
  const auto bit = static_cast<std::uint32_t>(std::countr_zero(word));
  word &= word - 1;
  if (word == 0) summary[cursor >> 6] &= ~(std::uint64_t{1} << (cursor & 63));
  --pending;
  rank = base + static_cast<std::uint32_t>(cursor << 6) + bit;
  return true;
}

void BbbStrategy::Frontier::clear() {
  for (std::size_t s = cursor >> 6; pending != 0; ++s) {
    for (std::uint64_t bits = summary[s]; bits != 0; bits &= bits - 1) {
      std::uint64_t& word = words[(s << 6) + static_cast<std::size_t>(
                                                  std::countr_zero(bits))];
      pending -= static_cast<std::size_t>(std::popcount(word));
      word = 0;
    }
    summary[s] = 0;
  }
}

bool BbbStrategy::propagate(const net::ConflictGraph& cg, std::size_t budget) {
  Frontier& frontier = frontier_;
  const std::vector<net::NodeId>& by_rank = orderer_.ranked_sequence();
  const auto last_rank = static_cast<std::uint32_t>(by_rank.size() - 1);
  std::uint32_t first_rank = last_rank;
  for (net::NodeId v : live_dirty_)
    first_rank = std::min(first_rank, orderer_.rank(v));
  frontier.reset(first_rank, last_rank);
  for (net::NodeId v : live_dirty_) frontier.push(orderer_.rank(v));

  // Pops come out in ascending rank, and pushes only ever target ranks past
  // the node being processed, so when a node recomputes its lowest-free
  // color every earlier-ranked neighbor's color is already final — and no
  // popped rank is ever pushed again.
  std::uint32_t ru = 0;
  while (frontier.pop(ru)) {
    if (frontier.processed == budget) {
      // Slack bailout.  The colors already written into `last_colors_` stay:
      // the from-scratch pass that follows every bailout in the same
      // `global_recolor` call rewrites the whole snapshot.
      frontier.clear();
      return false;
    }
    ++frontier.processed;
    const net::NodeId u = by_rank[ru];

    // Every partner marks its snapshot color; only earlier-ranked ones keep
    // the bit (kNoRank sorts past every rank).  An earlier-ranked partner's
    // snapshot color is final: popped this repair, or provably unchanged.
    const auto neighbors = cg.neighbors(u);
    ColorScratch& scratch = frontier.scratch;
    scratch.reset();
    for (net::NodeId w : neighbors)
      scratch.mark(last_colors_[w], orderer_.rank(w) < ru);
    const net::Color fresh = scratch.lowest_free();
    const net::Color previous = last_colors_[u];
    if (fresh == previous) continue;

    last_colors_[u] = fresh;
    frontier.changed.push_back(core::Recode{u, previous, fresh});
    for (net::NodeId w : neighbors) {
      const std::uint32_t rw = orderer_.rank(w);
      if (rw != DegeneracyOrderer::kNoRank && rw > ru) frontier.push(rw);
    }
  }
  return true;
}

core::RecodeReport BbbStrategy::global_recolor(const net::AdhocNetwork& net,
                                               net::CodeAssignment& assignment,
                                               core::EventType event,
                                               net::NodeId subject,
                                               std::size_t batch_events,
                                               std::span<const net::NodeId> joiners,
                                               std::span<const net::NodeId> reborn) {
  core::RecodeReport report;
  report.event = event;
  report.subject = subject;
  counters_.events += batch_events;

  // Rank-bounded mode never materializes the live node set on the absorbed
  // path — that enumeration is the O(n) it exists to remove.
  const bool bounded_mode = params_.bounded_propagation &&
                            order_ == ColoringOrder::kSmallestLast;
  if (bounded_mode &&
      bounded_recolor(net, assignment, report, batch_events, joiners, reborn)) {
    counters_.bounded_events += batch_events;
    finalize_report(net, assignment, report);
    return report;
  }

  // From-scratch recolor; remember the previous assignment to count changes.
  net.nodes(nodes_);
  const std::vector<net::NodeId>& nodes = nodes_;
  old_colors_.clear();
  old_colors_.reserve(nodes.size());
  for (net::NodeId v : nodes) old_colors_.push_back(assignment.color(v));

  if (order_ == ColoringOrder::kDSatur) {
    color_network(net, order_, assignment);
  } else {
    for (net::NodeId v : nodes) assignment.clear(v);
    const std::vector<net::NodeId>& sequence = sequence_for(net, nodes);
    greedy_color_in_sequence(net, sequence, assignment);
    if (bounded_mode) {
      // Reseed the rank index and the snapshot the next bounded event
      // propagates from.
      orderer_.rebuild_ranks(net, sequence);
      ++counters_.full_events;
      counters_.full_ranks += sequence.size();
      snapshot(net, sequence, assignment);
    }
  }

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const net::Color fresh = assignment.color(nodes[i]);
    if (fresh != old_colors_[i])
      report.changes.push_back(core::Recode{nodes[i], old_colors_[i], fresh});
  }
  finalize_report(net, assignment, report);
  return report;
}

core::RecodeReport BbbStrategy::on_join(const net::AdhocNetwork& net,
                                        net::CodeAssignment& assignment, net::NodeId n) {
  return global_recolor(net, assignment, core::EventType::kJoin, n);
}

core::RecodeReport BbbStrategy::on_leave(const net::AdhocNetwork& net,
                                         net::CodeAssignment& assignment,
                                         net::NodeId departed) {
  return global_recolor(net, assignment, core::EventType::kLeave, departed);
}

core::RecodeReport BbbStrategy::on_move(const net::AdhocNetwork& net,
                                        net::CodeAssignment& assignment, net::NodeId n) {
  return global_recolor(net, assignment, core::EventType::kMove, n);
}

core::RecodeReport BbbStrategy::on_power_change(const net::AdhocNetwork& net,
                                                net::CodeAssignment& assignment,
                                                net::NodeId n, double old_range) {
  const double new_range = net.config(n).range;
  const core::EventType event = new_range > old_range ? core::EventType::kPowerIncrease
                                                      : core::EventType::kPowerDecrease;
  return global_recolor(net, assignment, event, n);
}

core::RecodeReport BbbStrategy::on_batch(const net::AdhocNetwork& net,
                                         net::CodeAssignment& assignment,
                                         const core::BatchRepairContext& ctx) {
  MINIM_REQUIRE(!ctx.events.empty(), "BBB: on_batch requires at least one event");
  // A reborn id is a departure of its previous occupant followed by a fresh
  // join reusing the id.  Blank its snapshot color exactly as the sequential
  // leave would have, so the new occupant does not inherit the previous
  // one's color.
  for (net::NodeId v : ctx.reborn)
    if (v < last_colors_.size()) last_colors_[v] = net::kNoColor;
  const core::BatchedEvent& last = ctx.events.back();
  return global_recolor(net, assignment, last.event, last.subject,
                        ctx.events.size(), ctx.joiners, ctx.reborn);
}

}  // namespace minim::strategies
