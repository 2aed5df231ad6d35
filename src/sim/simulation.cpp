#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/constraints.hpp"
#include "util/require.hpp"

namespace minim::sim {

Simulation::Simulation(core::RecodingStrategy& strategy)
    : Simulation(strategy, Params{}) {}

Simulation::Simulation(core::RecodingStrategy& strategy, const Params& params)
    : strategy_(&strategy),
      params_(params),
      network_(params.width, params.height) {}

void account_event(Totals& totals, const core::RecodeReport& report) {
  ++totals.events;
  totals.recodings += report.recodings();
  totals.messages += report.messages;
  const auto type_index = static_cast<std::size_t>(report.event);
  ++totals.events_by_type[type_index];
  totals.recodings_by_type[type_index] += report.recodings();
}

void validate_assignment(const net::AdhocNetwork& network,
                         const net::CodeAssignment& assignment) {
  const auto violations = net::find_violations(network, assignment);
  if (!violations.empty())
    throw std::logic_error("assignment invalid after event: " +
                           violations.front().to_string());
  if (!net::all_colored(network, assignment))
    throw std::logic_error("uncolored live node after event");
}

void Simulation::account(const core::RecodeReport& report) {
  account_event(totals_, report);
  if (params_.keep_history) history_.push_back(report);
  if (params_.validate_after_each) validate();
}

void Simulation::validate() const { validate_assignment(network_, assignment_); }

net::NodeId Simulation::join(const net::NodeConfig& config) {
  const net::NodeId id = network_.add_node(config);
  account(strategy_->on_join(network_, assignment_, id));
  return id;
}

void Simulation::leave(net::NodeId v) {
  network_.remove_node(v);
  assignment_.clear(v);
  account(strategy_->on_leave(network_, assignment_, v));
}

void Simulation::move(net::NodeId v, util::Vec2 new_position) {
  network_.set_position(v, new_position);
  account(strategy_->on_move(network_, assignment_, v));
}

void Simulation::change_power(net::NodeId v, double new_range) {
  const double old_range = network_.config(v).range;
  network_.set_range(v, new_range);
  account(strategy_->on_power_change(network_, assignment_, v, old_range));
}

void Simulation::account_batch(std::span<const core::BatchedEvent> events,
                               const core::RecodeReport& report) {
  totals_.events += events.size();
  for (const core::BatchedEvent& be : events)
    ++totals_.events_by_type[static_cast<std::size_t>(be.event)];
  totals_.recodings += report.recodings();
  totals_.messages += report.messages;
  totals_.recodings_by_type[static_cast<std::size_t>(report.event)] +=
      report.recodings();
  if (params_.keep_history) history_.push_back(report);
  if (params_.validate_after_each) validate();
}

void Simulation::apply_batch(std::span<const TraceEvent> events,
                             std::vector<net::NodeId>& by_join_order,
                             BatchResult& result) {
  result.events = events.size();
  result.recoded = 0;
  result.repairs = 0;
  result.coalesced = false;
  result.max_color = assignment_.max_color();
  result.live_nodes = network_.node_count();
  result.outcomes.clear();
  if (events.empty()) return;

  const auto resolve = [&](const TraceEvent& e) {
    MINIM_REQUIRE(e.node < by_join_order.size(),
                  std::string(to_string(e.kind)) + ": node has not joined yet");
    const net::NodeId v = by_join_order[e.node];
    MINIM_REQUIRE(network_.contains(v),
                  std::string(to_string(e.kind)) + ": node already left");
    return v;
  };

  // The outcome row of `e`, named by join order like the trace itself.
  const auto outcome_of = [&](const TraceEvent& e) {
    BatchEventOutcome outcome;
    outcome.kind = e.kind;
    outcome.node =
        e.kind == TraceEvent::Kind::kJoin ? by_join_order.size() : e.node;
    return outcome;
  };

  const std::size_t recodings_before = totals_.recodings;

  if (!strategy_->supports_batch() || events.size() == 1) {
    // Per-event delivery: the strategy sees each event exactly as the
    // sequential API would hand it over, so the outcomes are exact.
    for (const TraceEvent& e : events) {
      const std::size_t before = totals_.recodings;
      BatchEventOutcome outcome = outcome_of(e);
      outcome.exact = true;
      switch (e.kind) {
        case TraceEvent::Kind::kJoin:
          by_join_order.push_back(join(net::NodeConfig{e.position, e.range}));
          break;
        case TraceEvent::Kind::kLeave:
          leave(resolve(e));
          break;
        case TraceEvent::Kind::kMove:
          move(resolve(e), e.position);
          break;
        case TraceEvent::Kind::kPower:
          change_power(resolve(e), e.range);
          break;
      }
      outcome.recoded = totals_.recodings - before;
      outcome.max_color = assignment_.max_color();
      outcome.live_nodes = network_.node_count();
      result.outcomes.push_back(outcome);
      ++result.repairs;
    }
    result.recoded = totals_.recodings - recodings_before;
    result.max_color = assignment_.max_color();
    result.live_nodes = network_.node_count();
    return;
  }

  // Coalesced path: apply every network mutation, then one repair over the
  // final graph.  The strategy's `supports_batch` contract makes this
  // equivalent to the sequential loop above.
  batch_events_.clear();
  for (const TraceEvent& e : events) {
    result.outcomes.push_back(outcome_of(e));
    core::BatchedEvent be;
    switch (e.kind) {
      case TraceEvent::Kind::kJoin:
        be.event = core::EventType::kJoin;
        be.subject = network_.add_node(net::NodeConfig{e.position, e.range});
        by_join_order.push_back(be.subject);
        break;
      case TraceEvent::Kind::kLeave:
        be.event = core::EventType::kLeave;
        be.subject = resolve(e);
        network_.remove_node(be.subject);
        assignment_.clear(be.subject);
        break;
      case TraceEvent::Kind::kMove:
        be.event = core::EventType::kMove;
        be.subject = resolve(e);
        network_.set_position(be.subject, e.position);
        break;
      case TraceEvent::Kind::kPower:
        be.subject = resolve(e);
        be.old_range = network_.config(be.subject).range;
        be.event = e.range > be.old_range ? core::EventType::kPowerIncrease
                                          : core::EventType::kPowerDecrease;
        network_.set_range(be.subject, e.range);
        break;
    }
    batch_events_.push_back(be);
  }

  // Joiners live at batch end, ordered by their LAST join event: the
  // network reuses freed ids, so an id can be joined, freed, and joined
  // again within one batch — only its final incarnation's order matters.
  batch_joiners_.clear();
  for (const core::BatchedEvent& be : batch_events_) {
    if (be.event != core::EventType::kJoin) continue;
    std::erase(batch_joiners_, be.subject);
    batch_joiners_.push_back(be.subject);
  }
  std::erase_if(batch_joiners_,
                [this](net::NodeId v) { return !network_.contains(v); });

  // Reborn: ids that departed within the batch and are live again at its
  // end — freed by the network and reassigned to a later joiner.
  batch_reborn_.clear();
  for (const core::BatchedEvent& be : batch_events_)
    if (be.event == core::EventType::kLeave && network_.contains(be.subject))
      batch_reborn_.push_back(be.subject);
  std::sort(batch_reborn_.begin(), batch_reborn_.end());
  batch_reborn_.erase(std::unique(batch_reborn_.begin(), batch_reborn_.end()),
                      batch_reborn_.end());

  const core::BatchRepairContext context{batch_events_, batch_joiners_,
                                         batch_reborn_};
  account_batch(batch_events_,
                strategy_->on_batch(network_, assignment_, context));

  result.repairs = 1;
  result.coalesced = true;
  result.recoded = totals_.recodings - recodings_before;
  result.max_color = assignment_.max_color();
  result.live_nodes = network_.node_count();
  for (BatchEventOutcome& outcome : result.outcomes) {
    outcome.recoded = result.recoded;
    outcome.max_color = result.max_color;
    outcome.live_nodes = result.live_nodes;
  }
}

}  // namespace minim::sim
