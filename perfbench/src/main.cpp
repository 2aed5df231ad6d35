// perfbench: the closed-loop serving benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-dir D]
//
// Generates the workload's request stream from the seed, then serves it in
// rounds until S seconds have passed: each round is one session per engine
// (minim, then bbb-bounded), each with its own engine, TCP listener and
// ramp.  Rounds replay the identical stream, so counts repeat exactly and
// each burst's round trip is its median over the rounds; throughput and
// round-trip quantiles derive from those.  After the rounds, each engine's reply
// stream is compared with a StreamTransport replay of the same bursts.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds, prints the per-layer metrics (plus the tracing
// overhead against the untraced rounds) and writes the spans to the spans
// directory.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is 0 only when every correctness check passed.

#include <sys/resource.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Rounds plus the replay end by about this time; run.py kills the run at
/// 170 s, which leaves room for a host that slows down mid-round.
constexpr double kHardCapSeconds = 100.0;
constexpr std::size_t kSpanCap = 500'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".bench_build/perfbench-spans";
};

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument(key + " needs a value");
    }
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--spans-dir") {
      options.spans_dir = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return options;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

/// Core count, CPU model, compiler and build type.  A build with asserts
/// enabled times different code, so its results are not comparable.
std::string host_fingerprint() {
#if defined(__clang__)
  const std::string compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = "gcc " __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool asserts = false;
#else
  const bool asserts = true;
#endif
  std::ostringstream os;
  os << "{\"cores\": " << std::thread::hardware_concurrency() << ", \"cpu\": \""
     << cpu_model() << "\", \"compiler\": \"" << compiler
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"asserts\": " << (asserts ? "true" : "false")
     << ", \"comparable\": " << (asserts ? "false" : "true") << "}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// One checked session; reply bytes are dropped once checked.
struct Session {
  bool traced = false;
  double setup_s = 0.0;
  std::vector<std::uint32_t> rtt_ns;
  ReplyCheck check;
  minim::serve::SessionStats stats;
  LayerTotals layers;
  std::vector<std::int64_t> codes;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics of one traced session.
std::vector<Metric> layer_metrics(const Stream& stream, EngineKind kind,
                                  const Session& s) {
  const std::string p = label(kind);
  const LayerTotals& t = s.layers;
  const auto requests = static_cast<double>(stream.measured_requests);
  const auto events = static_cast<double>(stream.measured_events);
  const double us = 1e-3;
  const double engine_us = t.engine_ns * us / events;
  const double strategy_us = static_cast<double>(t.strategy_ns) * us / events;
  const double self_ns = static_cast<double>(t.busy_ns) -
                         static_cast<double>(t.io_ns) - t.engine_ns;
  // The ramp's join bursts are one engine batch each.
  const std::size_t setup_batches = stream.setup.size() - 1;
  const std::size_t setup_events = s.stats.events - stream.measured_events;

  std::vector<Metric> m = {
      {p + ".transport.wait_us_per_req", static_cast<double>(t.wait_ns) * us / requests, "us/req"},
      {p + ".transport.io_us_per_req", static_cast<double>(t.io_ns) * us / requests, "us/req"},
      {p + ".transport.lines_per_read", ratio(static_cast<double>(t.lines_in), static_cast<double>(t.reads)), "lines/read"},
      {p + ".transport.bytes_out_per_req", static_cast<double>(t.bytes_out) / requests, "B/req"},
      {p + ".session.self_us_per_req", self_ns * us / requests, "us/req"},
      {p + ".session.events_per_batch",
       ratio(static_cast<double>(s.stats.events - setup_events),
             static_cast<double>(s.stats.batches - setup_batches)),
       "events/batch"},
      {p + ".session.split_bursts", static_cast<double>(s.check.split_bursts), "bursts"},
      {p + ".engine.us_per_event", engine_us, "us/event"},
      {p + ".sim.us_per_event", engine_us - strategy_us, "us/event"},
      {p + ".sim.engine_share", ratio(engine_us - strategy_us, engine_us), "fraction"},
      {p + ".strategy.us_per_event", strategy_us, "us/event"},
  };
  if (kind != EngineKind::kBbb) return m;

  const auto d = [](std::uint64_t end, std::uint64_t begin) {
    return static_cast<double>(end - begin);
  };
  const auto& b0 = t.bbb_begin;
  const auto& b1 = t.bbb_end;
  // Per repair (one strategy call): the counters count bounded work per
  // event but fallbacks per repair, so repairs come from the decorator.
  const auto bounded = static_cast<double>(t.bounded_calls);
  const double full = d(b1.full_events, b0.full_events);
  const double repairs = bounded + static_cast<double>(t.fallback_calls);
  const double parallel = d(b1.parallel_events, b0.parallel_events);
  const double demotions = d(b1.parallel_demotions, b0.parallel_demotions);
  const auto& o0 = t.order_begin;
  const auto& o1 = t.order_end;
  const double per_k = 1000.0 / events;
  const std::vector<Metric> bbb = {
      {"bbb.strategy.bounded_us_per_repair", ratio(static_cast<double>(t.bounded_ns) * us, static_cast<double>(t.bounded_calls)), "us/repair"},
      {"bbb.strategy.fallback_us_per_repair", ratio(static_cast<double>(t.fallback_ns) * us, static_cast<double>(t.fallback_calls)), "us/repair"},
      {"bbb.absorb_frac", ratio(bounded, repairs), "fraction"},
      {"bbb.slack_bailout_frac", ratio(d(b1.slack_bailouts, b0.slack_bailouts), repairs), "fraction"},
      {"bbb.pops_per_bounded_repair", ratio(d(b1.processed_ranks, b0.processed_ranks), bounded), "pops/repair"},
      {"bbb.ranks_per_fallback", ratio(d(b1.full_ranks, b0.full_ranks), full), "ranks/repair"},
      {"bbb.parallel_frac", ratio(parallel, repairs), "fraction"},
      {"bbb.components_per_parallel", ratio(d(b1.parallel_components, b0.parallel_components), parallel), "comps/repair"},
      {"bbb.demotion_frac", ratio(demotions, parallel + demotions), "fraction"},
      {"ordering.rank_updates", d(o1.rank_updates, o0.rank_updates) * per_k, "1/kevent"},
      {"ordering.rank_rebuilds", d(o1.rank_rebuilds, o0.rank_rebuilds) * per_k, "1/kevent"},
      {"ordering.degree_rebuilds", d(o1.degree_rebuilds, o0.degree_rebuilds) * per_k, "1/kevent"},
      {"ordering.journal_fallbacks", d(o1.journal_fallbacks, o0.journal_fallbacks) * per_k, "1/kevent"},
  };
  m.insert(m.end(), bbb.begin(), bbb.end());
  return m;
}

/// Each measured burst's round trip (us): its median over the rounds (traced
/// or untraced) that replayed it.  Every round replays the same bursts, so
/// the median drops host stalls that hit one replay but keeps the
/// workload's own tail; quantiles are then taken over distinct bursts.  A
/// stall that hits a burst in fewer than half of its replays cannot reach
/// these quantiles.
std::vector<double> burst_medians(const std::vector<std::array<Session, 2>>& rounds,
                                  std::size_t k, bool traced) {
  std::vector<double> medians;
  for (std::size_t b = 0;; ++b) {
    std::vector<double> replays;
    for (const auto& round : rounds)
      if (round[k].traced == traced && b < round[k].rtt_ns.size())
        replays.push_back(round[k].rtt_ns[b] * 1e-3);
    if (replays.empty()) return medians;
    medians.push_back(median(std::move(replays)));
  }
}

/// Requests answered per second in the closed loop: the client sends the
/// next burst as soon as the last reply arrives, so the measured time is
/// the sum of the bursts' round trips.
double closed_loop_rate(const Stream& stream, const std::vector<double>& rtt_us) {
  double total_us = 0.0;
  for (const double us : rtt_us) total_us += us;
  return ratio(static_cast<double>(stream.measured_requests), total_us * 1e-6);
}

std::string json_number(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", std::isfinite(value) ? value : 0.0);
  return buffer;
}

int run(const Options& options) {
  const WorkloadSpec spec = workload_spec(options.workload);
  const Stream stream = generate_stream(spec, options.seed);
  const std::string host = host_fingerprint();
  std::cout << "perfbench " << spec.name << " seed=" << options.seed
            << " seconds=" << options.seconds << " trace=" << options.trace
            << "\nhost " << host << "\n"
            << "stream: " << spec.population << " nodes on " << spec.width
            << "x" << spec.height << ", " << stream.measured.size()
            << " measured bursts, " << stream.measured_requests << " requests ("
            << stream.measured_events << " events, " << stream.raises
            << " raises, " << stream.skipped_restores << " restores dropped)\n";

  // ------------------------------------------------------------ the rounds
  const auto start = Clock::now();
  Tracer tracer(start, kSpanCap);
  std::vector<std::array<Session, 2>> rounds;
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint32_t session_id = 0;
  const std::size_t min_rounds = options.trace ? 2 : 3;

  while (true) {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    std::array<Session, 2> round;
    for (const EngineKind kind : kEngines) {
      const std::string who = std::string(label(kind)) + " round " +
                              std::to_string(rounds.size() + 1) + ": ";
      SessionResult r = run_session(stream, kind, traced ? &tracer : nullptr,
                                    ++session_id);
      Session& s = round[static_cast<std::size_t>(kind)];
      s.traced = traced;
      s.setup_s = r.setup_s;
      s.rtt_ns = std::move(r.rtt_ns);
      s.check = check_replies(stream, kind, r.replies);
      s.stats = r.stats;
      s.codes = std::move(r.codes);
      if (traced) s.layers = tracer.totals();
      std::cerr << who << "setup " << r.setup_s << " s, measured "
                << r.measured_s << " s" << (traced ? " (traced)" : "") << "\n";

      attempted += stream.total_requests();
      failed += s.check.errors + s.check.unanswered;
      for (const std::string& p : s.check.problems) problems.push_back(who + p);
      for (const std::string* e : {&r.client_error, &r.server_error, &r.invalid})
        if (!e->empty()) problems.push_back(who + *e);
      if (s.check.live != stream.final_live)
        problems.push_back(who + "final live " + std::to_string(s.check.live) +
                           ", generator has " + std::to_string(stream.final_live));
      // Every round serves the same stream: replies and codes must repeat.
      // Traced receipts read fallback=0, so they compare without it.
      const Session& first = rounds.empty() ? s : rounds[0][static_cast<std::size_t>(kind)];
      if ((traced ? s.check.digest_without_fallback != first.check.digest_without_fallback
                  : s.check.digest != first.check.digest) ||
          s.codes != first.codes)
        problems.push_back(who + "replies or codes differ from round 1");
    }
    rounds.push_back(std::move(round));
    // Stop at the round boundary nearest to --seconds, or earlier when one
    // more round plus the replay below (about one more round) would pass
    // the hard cap on a slowed-down host.
    const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    const double per_round = elapsed / static_cast<double>(rounds.size());
    if ((elapsed + per_round / 2 >= options.seconds && rounds.size() >= min_rounds) ||
        elapsed + 2 * per_round >= kHardCapSeconds || !problems.empty())
      break;
  }
  // Read before the replay, which runs two engines at once: the peak then
  // belongs to the served sessions, one engine at a time.
  const double rss_mb = peak_rss_mb();

  // ------------------------------------- replay through a StreamTransport
  {
    std::array<std::uint64_t, 2> replayed{};
    const auto replay = [&](EngineKind kind) {
      try {
        replayed[static_cast<std::size_t>(kind)] =
            check_replies(stream, kind, replay_stream(stream, kind)).digest;
      } catch (const std::exception&) {
        // Left at 0: reported as a mismatch below.
      }
    };
    std::thread bbb_replay(replay, EngineKind::kBbb);
    replay(EngineKind::kMinim);
    bbb_replay.join();
    for (const EngineKind kind : kEngines)
      if (replayed[static_cast<std::size_t>(kind)] !=
          rounds[0][static_cast<std::size_t>(kind)].check.digest)
        problems.push_back(std::string(label(kind)) +
                           ": TCP replies differ from the StreamTransport replay");
  }

  // --------------------------------------------------------------- metrics
  std::vector<Metric> metrics;
  for (const EngineKind kind : kEngines) {
    const auto k = static_cast<std::size_t>(kind);
    const std::vector<double> rtt = burst_medians(rounds, k, false);
    const double req_per_s = closed_loop_rate(stream, rtt);
    const Session& first = rounds[0][k];
    const std::string p = label(kind);
    if (!options.trace) {
      metrics.push_back({p + ".req_per_s", req_per_s, "1/s"});
      metrics.push_back({p + ".rtt_p50_us", quantile(rtt, 0.50), "us"});
      metrics.push_back({p + ".rtt_p99_us", quantile(rtt, 0.99), "us"});
      metrics.push_back(
          {p + ".recodings_per_event",
           static_cast<double>(first.check.final_recodings - first.check.setup_recodings) /
               static_cast<double>(stream.measured_events),
           "recodings/event"});
      metrics.push_back({p + ".max_color_mean",
                         first.check.max_color_sum / static_cast<double>(stream.measured_events),
                         "codes"});
      continue;
    }
    // Traced: the median of each layer metric over the traced rounds.
    std::map<std::string, std::vector<double>> samples;
    std::vector<std::string> order;
    std::map<std::string, std::string> units;
    for (const auto& round : rounds) {
      if (!round[k].traced) continue;
      for (const Metric& m : layer_metrics(stream, kind, round[k])) {
        if (!samples.count(m.name)) order.push_back(m.name);
        samples[m.name].push_back(m.value);
        units[m.name] = m.unit;
      }
    }
    for (const std::string& name : order)
      metrics.push_back({name, median(samples[name]), units[name]});
    // The per-burst medians above hide a stall that hits a burst in fewer
    // than half of its replays; the pooled p99 keeps every replay's stalls.
    std::vector<double> pooled;
    for (const auto& round : rounds)
      if (!round[k].traced)
        for (const std::uint32_t ns : round[k].rtt_ns) pooled.push_back(ns * 1e-3);
    metrics.push_back({p + ".rtt_p99_pooled_us", quantile(std::move(pooled), 0.99), "us"});
    metrics.push_back(
        {p + ".trace.overhead_frac",
         1.0 - ratio(closed_loop_rate(stream, burst_medians(rounds, k, true)), req_per_s),
         "fraction"});
  }
  if (options.trace) {
    const NetProfile net = profile_network(stream, 3);
    const char* kinds[] = {"join", "leave", "move", "power"};
    for (std::size_t i = 0; i < 4; ++i)
      metrics.push_back({std::string("net.us_per_event.") + kinds[i],
                         net.us_per_event[i], "us/event"});
    metrics.push_back({"net.conflict_dirty_per_event", net.conflict_dirty_per_event, "ids/event"});
    metrics.push_back({"net.conflict_degree_mean", net.conflict_degree_mean, "partners"});
    metrics.push_back({"net.bytes_per_node", net.bytes_per_node, "B/node"});

    std::filesystem::create_directories(options.spans_dir);
    const std::string path = options.spans_dir + "/spans-" + spec.name + "-seed" +
                             std::to_string(options.seed) + ".tsv";
    std::ofstream out(path);
    out << "# host " << host << "\n";
    tracer.write_spans(out);
    std::cout << "spans: " << tracer.spans().size() << " written to " << path
              << " (" << tracer.dropped_spans() << " dropped past the cap)\n";
  } else {
    std::vector<double> setups;
    for (const auto& round : rounds) setups.push_back(round[0].setup_s + round[1].setup_s);
    metrics.insert(metrics.begin(), {"setup_s", median(setups), "s"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
  }

  // ---------------------------------------------------------------- report
  const bool correct = problems.empty() && failed == 0;
  std::cout << "rounds: " << rounds.size() << " ("
            << std::chrono::duration<double>(Clock::now() - start).count()
            << " s)\n";
  for (const std::string& p : problems) std::cout << "FAIL " << p << "\n";
  std::cout << "failed_frac " << ratio(static_cast<double>(failed), static_cast<double>(attempted))
            << " (" << failed << " of " << attempted << " requests)\n";
  for (const Metric& m : metrics)
    std::cout << m.name << " " << json_number(m.value) << " " << m.unit << "\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
              << "\"}";
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_options(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
