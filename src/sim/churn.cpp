#include "sim/churn.hpp"

#include <cmath>
#include <numbers>
#include <queue>

#include "net/constraints.hpp"
#include "util/require.hpp"

namespace minim::sim {

namespace {

/// Exponential inter-arrival draw; rate 0 means "never".
double exponential(util::Rng& rng, double rate) {
  if (rate <= 0.0) return std::numeric_limits<double>::infinity();
  return -std::log(1.0 - rng.uniform01()) / rate;
}

enum class EventKind : std::uint8_t { kArrival, kLeave, kMove, kPower, kSample };

struct QueuedEvent {
  double time;
  std::uint64_t sequence;  // total order among simultaneous events
  EventKind kind;
  net::NodeId node = net::kInvalidNode;
  std::uint64_t generation = 0;  // guards against stale per-node events

  bool operator>(const QueuedEvent& other) const {
    if (time != other.time) return time > other.time;
    return sequence > other.sequence;
  }
};

/// Per-live-node bookkeeping.
struct NodeState {
  std::uint64_t generation = 0;
  double full_range = 0.0;
  bool power_saving = false;
  bool alive = false;
};

}  // namespace

void check_churn_params(const ChurnParams& params) {
  const auto positive = [](double x) { return std::isfinite(x) && x > 0; };
  const auto rate = [](double x) { return std::isfinite(x) && x >= 0; };
  MINIM_REQUIRE(positive(params.duration), "churn duration must be positive");
  MINIM_REQUIRE(positive(params.sample_interval), "sample interval must be positive");
  MINIM_REQUIRE(rate(params.arrival_rate), "churn arrival_rate must be finite and >= 0");
  MINIM_REQUIRE(rate(params.move_rate), "churn move_rate must be finite and >= 0");
  MINIM_REQUIRE(rate(params.power_rate), "churn power_rate must be finite and >= 0");
  MINIM_REQUIRE(params.min_range <= params.max_range, "min_range > max_range");
}

ChurnResult run_churn(const ChurnParams& params, core::RecodingStrategy& strategy,
                      util::Rng& rng) {
  check_churn_params(params);

  Simulation::Params sim_params;
  sim_params.width = params.width;
  sim_params.height = params.height;
  sim_params.validate_after_each = params.validate;
  Simulation simulation(strategy, sim_params);

  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, std::greater<>> queue;
  std::uint64_t sequence = 0;
  auto push = [&queue, &sequence](double time, EventKind kind, net::NodeId node,
                                  std::uint64_t generation) {
    queue.push(QueuedEvent{time, sequence++, kind, node, generation});
  };

  std::vector<NodeState> states;
  auto state_of = [&states](net::NodeId v) -> NodeState& {
    if (v >= states.size()) states.resize(v + 1);
    return states[v];
  };

  auto schedule_node_events = [&](double now, net::NodeId v) {
    const NodeState& state = states[v];
    push(now + exponential(rng, params.move_rate), EventKind::kMove, v,
         state.generation);
    push(now + exponential(rng, params.power_rate), EventKind::kPower, v,
         state.generation);
  };

  ChurnResult result;

  // Seed population: join `initial_nodes` configurations at time 0, then
  // give every seeded node the same event schedules an arrival would get.
  if (params.initial_nodes > 0) {
    WorkloadParams seed_params;
    seed_params.n = params.initial_nodes;
    seed_params.min_range = params.min_range;
    seed_params.max_range = params.max_range;
    seed_params.width = params.width;
    seed_params.height = params.height;
    seed_params.placement = params.initial_placement;
    seed_params.cluster_count = params.initial_cluster_count;
    seed_params.cluster_sigma = params.initial_cluster_sigma;
    seed_params.min_separation = params.initial_min_separation;
    const Workload seed = make_join_workload(seed_params, rng);
    for (const net::NodeConfig& config : seed.joins) {
      if (simulation.network().node_count() >= params.max_nodes) {
        ++result.dropped_arrivals;
        continue;
      }
      const net::NodeId id = simulation.join(config);
      NodeState& state = state_of(id);
      ++state.generation;
      state.full_range = config.range;
      state.power_saving = false;
      state.alive = true;
      push(exponential(rng, 1.0 / params.mean_lifetime), EventKind::kLeave, id,
           state.generation);
      schedule_node_events(0.0, id);
    }
    result.peak_nodes = simulation.network().node_count();
  }

  push(exponential(rng, params.arrival_rate), EventKind::kArrival, net::kInvalidNode, 0);
  push(params.sample_interval, EventKind::kSample, net::kInvalidNode, 0);

  while (!queue.empty()) {
    const QueuedEvent event = queue.top();
    queue.pop();
    if (event.time > params.duration) break;
    const double now = event.time;

    switch (event.kind) {
      case EventKind::kArrival: {
        push(now + exponential(rng, params.arrival_rate), EventKind::kArrival,
             net::kInvalidNode, 0);
        if (simulation.network().node_count() >= params.max_nodes) {
          ++result.dropped_arrivals;
          break;
        }
        net::NodeConfig config;
        config.position = {rng.uniform(0, params.width), rng.uniform(0, params.height)};
        config.range = rng.uniform(params.min_range, params.max_range);
        const net::NodeId id = simulation.join(config);
        NodeState& state = state_of(id);
        ++state.generation;
        state.full_range = config.range;
        state.power_saving = false;
        state.alive = true;
        push(now + exponential(rng, 1.0 / params.mean_lifetime), EventKind::kLeave,
             id, state.generation);
        schedule_node_events(now, id);
        result.peak_nodes = std::max(result.peak_nodes,
                                     simulation.network().node_count());
        break;
      }
      case EventKind::kLeave: {
        NodeState& state = states[event.node];
        if (!state.alive || state.generation != event.generation) break;
        state.alive = false;
        simulation.leave(event.node);
        break;
      }
      case EventKind::kMove: {
        NodeState& state = states[event.node];
        if (!state.alive || state.generation != event.generation) break;
        const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
        const double displacement = rng.uniform(0.0, params.max_displacement);
        const util::Vec2 target =
            simulation.network().config(event.node).position +
            util::Vec2::from_angle(angle) * displacement;
        simulation.move(event.node, target);  // engine clamps to the field
        push(now + exponential(rng, params.move_rate), EventKind::kMove, event.node,
             state.generation);
        break;
      }
      case EventKind::kPower: {
        NodeState& state = states[event.node];
        if (!state.alive || state.generation != event.generation) break;
        state.power_saving = !state.power_saving;
        const double range = state.power_saving
                                 ? state.full_range * params.power_save_factor
                                 : state.full_range;
        simulation.change_power(event.node, range);
        push(now + exponential(rng, params.power_rate), EventKind::kPower,
             event.node, state.generation);
        break;
      }
      case EventKind::kSample: {
        result.samples.push_back(
            ChurnSample{now, simulation.network().node_count(),
                        simulation.max_color(), simulation.totals().recodings});
        push(now + params.sample_interval, EventKind::kSample, net::kInvalidNode, 0);
        break;
      }
    }
  }

  result.totals = simulation.totals();
  result.final_max_color = simulation.max_color();
  result.final_valid =
      net::is_valid(simulation.network(), simulation.assignment());
  return result;
}

}  // namespace minim::sim
