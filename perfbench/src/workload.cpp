#include "workload.hpp"

#include <cmath>
#include <cstdio>
#include <deque>
#include <stdexcept>

#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kRampBurst = 64;

/// Values go over the wire with three decimals; rounding them at generation
/// keeps the generator's own state equal to what the server parses.
double round3(double x) { return std::round(x * 1000.0) / 1000.0; }

std::string fmt(const char* format, double a, double b = 0.0, double c = 0.0) {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, format, a, b, c);
  return buffer;
}

std::string node_line(const char* verb, std::size_t node) {
  return std::string(verb) + " " + std::to_string(node);
}

/// Stratified uniform draws: each block of kStrata draws takes one value
/// from every stratum [i/kStrata, (i+1)/kStrata), in shuffled order.  The
/// marginal stays uniform, but every seed gets the mix's proportions almost
/// exactly, which keeps seed-to-seed spread down to the workload's shape.
class Strata {
 public:
  double next(minim::util::Rng& rng) {
    if (deck_.empty()) {
      for (std::size_t i = 0; i < kStrata; ++i)
        deck_.push_back((static_cast<double>(i) + rng.uniform01()) /
                        static_cast<double>(kStrata));
      rng.shuffle(deck_);
    }
    const double u = deck_.back();
    deck_.pop_back();
    return u;
  }

 private:
  static constexpr std::size_t kStrata = 64;
  std::vector<double> deck_;
};

class Generator {
 public:
  Generator(const WorkloadSpec& spec, std::uint64_t seed)
      : spec_(spec),
        rng_(minim::util::Rng::for_stream(seed, 0)) {}

  std::string join() {
    const double x = round3(rng_.uniform(0.0, spec_.width));
    const double y = round3(rng_.uniform(0.0, spec_.height));
    const double r = fresh_range();
    live_.push_back(base_range_.size());
    base_range_.push_back(r);
    raise_token_.push_back(0);
    return fmt("join %.3f %.3f %.3f", x, y, r);
  }

  /// One event: a due restore, a due raise, or the occupancy-biased mix.
  std::string event() {
    ++events_;
    while (!restores_.empty() && restores_.front().due <= events_) {
      const Restore due = restores_.front();
      restores_.pop_front();
      if (raise_token_[due.node] != due.token) {
        ++skipped_restores_;  // the node left or was re-tweaked meanwhile
        continue;
      }
      raise_token_[due.node] = 0;
      ++restore_count_;
      return power_line(due.node, base_range_[due.node]);
    }
    if (events_ >= next_raise_ && !live_.empty()) {
      next_raise_ += kRaiseEvery;
      for (int attempt = 0; attempt < 8; ++attempt) {
        const std::size_t node = random_live();
        if (raise_token_[node] != 0) continue;
        raise_token_[node] = ++next_token_;
        ++raise_count_;
        restores_.push_back({events_ + kRaiseHold, next_token_, node});
        return power_line(node, round3(base_range_[node] * 3.0));
      }
    }

    const double occupancy = static_cast<double>(live_.size()) /
                             static_cast<double>(spec_.population);
    const double u = mix_.next(rng_);
    if (live_.empty() || occupancy < 0.8 || (occupancy <= 1.2 && u < 0.25))
      return join();
    if (occupancy > 1.2 || u < 0.5) {
      const std::size_t slot = rng_.below(live_.size());
      const std::size_t node = live_[slot];
      live_[slot] = live_.back();
      live_.pop_back();
      raise_token_[node] = 0;  // a pending restore is dropped
      return node_line("leave", node);
    }
    if (u < 0.8) {
      const std::size_t node = random_live();
      const double x = round3(rng_.uniform(0.0, spec_.width));
      const double y = round3(rng_.uniform(0.0, spec_.height));
      return node_line("move", node) + fmt(" %.3f %.3f", x, y);
    }
    const std::size_t node = random_live();
    raise_token_[node] = 0;  // a tweak ends any raise
    base_range_[node] = fresh_range();
    return power_line(node, base_range_[node]);
  }

  std::size_t live() const { return live_.size(); }
  std::size_t raises() const { return raise_count_; }
  std::size_t restores() const { return restore_count_; }
  std::size_t skipped_restores() const { return skipped_restores_; }

 private:
  struct Restore {
    std::size_t due = 0;
    std::uint64_t token = 0;  ///< matches raise_token_ while still raised
    std::size_t node = 0;
  };

  double fresh_range() {
    return round3(rng_.uniform(spec_.min_range, spec_.max_range));
  }
  std::size_t random_live() { return live_[rng_.below(live_.size())]; }
  std::string power_line(std::size_t node, double range) {
    return node_line("power", node) + fmt(" %.3f", range);
  }

  WorkloadSpec spec_;
  minim::util::Rng rng_;
  Strata mix_;
  std::vector<std::size_t> live_;          ///< join indices currently live
  std::vector<double> base_range_;         ///< by join index
  std::vector<std::uint64_t> raise_token_; ///< by join index; 0 = not raised
  std::deque<Restore> restores_;           ///< due in raise order
  std::size_t events_ = 0;
  std::size_t next_raise_ = kRaiseEvery;
  std::uint64_t next_token_ = 0;
  std::size_t raise_count_ = 0;
  std::size_t restore_count_ = 0;
  std::size_t skipped_restores_ = 0;
};

void add_event(Burst& burst, const std::string& line) {
  burst.text += line;
  burst.text += '\n';
  ++burst.requests;
  ++burst.events;
}

Burst queries(const std::string& text, std::size_t requests) {
  Burst burst;
  burst.text = text;
  burst.requests = requests;
  return burst;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"dense-churn", "sparse-churn"};
  return names;
}

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "dense-churn") {
    // bench_serve_latency's field: 300 nodes on 100x100, ranges 10-25,
    // mean out-degree ~28.
    spec.population = 300;
    spec.burst = 8;
    spec.stream_bursts = 1200;
    return spec;
  }
  if (name == "sparse-churn") {
    // Constant-density field of make_large_n_params at mean degree ~12.
    // 5000 nodes rather than 3000: at 3000, a 64-event burst dirties more
    // than half the network and bbb-bounded falls back on most repairs.
    const minim::sim::WorkloadParams p = minim::sim::make_large_n_params(
        5000, 12.0, minim::sim::Placement::kUniform);
    spec.population = p.n;
    spec.width = p.width;
    spec.height = p.height;
    spec.min_range = p.min_range;
    spec.max_range = p.max_range;
    spec.burst = 64;
    // 1000 distinct bursts: at least 10 lie beyond the RTT p99.
    spec.stream_bursts = 1000;
    return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::size_t Stream::total_requests() const {
  std::size_t total = 0;
  for (const auto* part : {&setup, &measured, &tail})
    for (const Burst& burst : *part) total += burst.requests;
  return total;
}

Stream generate_stream(const WorkloadSpec& spec, std::uint64_t seed) {
  Generator gen(spec, seed);
  Stream stream;
  stream.width = spec.width;
  stream.height = spec.height;
  for (std::size_t joined = 0; joined < spec.population;) {
    Burst burst;
    for (std::size_t i = 0; i < kRampBurst && joined < spec.population;
         ++i, ++joined)
      add_event(burst, gen.join());
    stream.setup.push_back(std::move(burst));
  }
  stream.setup.push_back(queries("stats\n", 1));

  for (std::size_t b = 0; b < spec.stream_bursts; ++b) {
    Burst burst;
    for (std::size_t i = 0; i < spec.burst; ++i) add_event(burst, gen.event());
    stream.measured_events += burst.events;
    stream.measured_requests += burst.requests;
    stream.measured.push_back(std::move(burst));
  }
  stream.tail.push_back(queries("stats\nquit\n", 2));

  stream.final_live = gen.live();
  stream.raises = gen.raises();
  stream.restores = gen.restores();
  stream.skipped_restores = gen.skipped_restores();
  return stream;
}

}  // namespace perfbench
