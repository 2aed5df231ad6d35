#include "serve/engine.hpp"

#include <algorithm>
#include <chrono>

#include "net/constraints.hpp"
#include "strategies/bbb.hpp"
#include "strategies/factory.hpp"
#include "util/require.hpp"

namespace minim::serve {

namespace {

sim::Simulation::Params simulation_params(const AssignmentEngine::Params& params) {
  sim::Simulation::Params p;
  p.width = params.width;
  p.height = params.height;
  p.validate_after_each = params.validate;
  return p;
}

/// The bounded-BBB fallback counter; 0 for every other strategy (their
/// counters never move, so a batch's delta stays 0).
std::uint64_t fallback_count(const core::RecodingStrategy& strategy) {
  if (const auto* bbb = dynamic_cast<const strategies::BbbStrategy*>(&strategy))
    return bbb->counters().full_events;
  return 0;
}

/// Marks a batch's joins and leaves in `departed` (by join index) while
/// checking each reference against the marks so far, so later events of the
/// batch see earlier joins and leaves.  On a bad reference, undoes exactly
/// those marks and throws std::invalid_argument.
void mark_departures(std::vector<char>& departed,
                     std::span<const sim::TraceEvent> events) {
  const std::size_t joined_before = departed.size();
  std::size_t checked = 0;
  try {
    for (; checked < events.size(); ++checked) {
      const sim::TraceEvent& e = events[checked];
      if (e.kind == sim::TraceEvent::Kind::kJoin) {
        departed.push_back(0);
        continue;
      }
      const char* verb = sim::to_string(e.kind);
      MINIM_REQUIRE(e.node < departed.size(),
                    std::string(verb) + ": node has not joined yet");
      MINIM_REQUIRE(!departed[e.node],
                    std::string(verb) + ": node already left");
      if (e.kind == sim::TraceEvent::Kind::kLeave) departed[e.node] = 1;
    }
  } catch (...) {
    // Each checked leave marked a node that was live, so clearing its mark
    // and dropping the batch's joins restores `departed` exactly.
    for (std::size_t i = 0; i < checked; ++i)
      if (events[i].kind == sim::TraceEvent::Kind::kLeave)
        departed[events[i].node] = 0;
    departed.resize(joined_before);
    throw;
  }
}

}  // namespace

AssignmentEngine::AssignmentEngine(const std::string& strategy_name,
                                   const Params& params)
    : params_(params),
      owned_strategy_(strategies::make_strategy(strategy_name)),
      strategy_(owned_strategy_.get()),
      strategy_name_(strategy_name) {
  simulation_.emplace(*strategy_, simulation_params(params_));
}

AssignmentEngine::AssignmentEngine(core::RecodingStrategy& strategy,
                                   const Params& params)
    : params_(params), strategy_(&strategy), strategy_name_(strategy.name()) {
  simulation_.emplace(*strategy_, simulation_params(params_));
}

net::NodeId AssignmentEngine::node_id_of(std::size_t node,
                                         const char* verb) const {
  MINIM_REQUIRE(node < by_join_order_.size(),
                std::string(verb) + ": node has not joined yet");
  MINIM_REQUIRE(!departed_[node], std::string(verb) + ": node already left");
  return by_join_order_[node];
}

BatchReceipt AssignmentEngine::apply_batch(
    std::span<const sim::TraceEvent> events) {
  using Clock = std::chrono::steady_clock;

  // All-or-nothing validation before any mutation reaches the network: a
  // mid-batch invalid reference rejects the whole batch with the engine
  // untouched.
  mark_departures(departed_, events);

  BatchReceipt receipt;
  receipt.first_seq = seq_ + 1;
  receipt.outcomes.reserve(events.size());  // outside the timed region
  const std::uint64_t fallbacks_before = fallback_count(*strategy_);
  const std::size_t joined_before = by_join_order_.size();

  const auto start = Clock::now();
  simulation_->apply_batch(events, by_join_order_, receipt);
  const auto stop = Clock::now();

  // Join bookkeeping for the ids the batch appended.
  for (std::size_t i = joined_before; i < by_join_order_.size(); ++i) {
    const net::NodeId id = by_join_order_[i];
    if (join_index_of_.size() <= id) join_index_of_.resize(id + 1, 0);
    join_index_of_[id] = i;
  }

  seq_ += events.size();
  receipt.latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
          .count());
  receipt.fallback = fallback_count(*strategy_) > fallbacks_before;

  const std::uint64_t per_event_ns =
      events.empty() ? 0 : receipt.latency_ns / events.size();
  for (const sim::TraceEvent& e : events)
    latency_[static_cast<std::size_t>(e.kind)].record(per_event_ns);
  return receipt;
}

net::Color AssignmentEngine::code_of(std::size_t node) const {
  return simulation_->assignment().color(node_id_of(node, "code"));
}

std::vector<std::size_t> AssignmentEngine::conflicts_of(std::size_t node) const {
  const net::NodeId id = node_id_of(node, "conflicts");
  std::vector<std::size_t> indices;
  for (net::NodeId partner : net::conflict_partners(simulation_->network(), id))
    indices.push_back(join_index_of_[partner]);
  std::sort(indices.begin(), indices.end());
  return indices;
}

AssignmentEngine::Summary AssignmentEngine::summary() const {
  Summary s;
  s.live = simulation_->network().node_count();
  s.joined = by_join_order_.size();
  s.events = simulation_->totals().events;
  s.recodings = simulation_->totals().recodings;
  const std::vector<net::NodeId> nodes = simulation_->network().nodes();
  s.distinct_colors = simulation_->assignment().distinct_colors(nodes);
  s.max_color = simulation_->max_color();
  return s;
}

util::LatencyHistogram AssignmentEngine::total_latency() const {
  util::LatencyHistogram total;
  for (const util::LatencyHistogram& h : latency_) total.merge(h);
  return total;
}

void AssignmentEngine::reset() {
  simulation_.emplace(*strategy_, simulation_params(params_));
  by_join_order_.clear();
  departed_.clear();
  join_index_of_.clear();
  seq_ = 0;
  for (util::LatencyHistogram& h : latency_) h.reset();
}

}  // namespace minim::serve
