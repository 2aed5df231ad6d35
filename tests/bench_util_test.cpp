// The bench-side selection logic the ablation/figure harnesses rely on:
// list parsing, the --runs/--fast precedence of sweep_options_from, metric
// selection in print_series' CSV output — plus end-to-end runs of the real
// harness binaries (directory injected via MINIM_BENCH_DIR): bench_ablations
// selects and prints every ablation section and variant row, and every
// harness exits 2 on a flag it does not read.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../bench/bench_util.hpp"
#include "../bench/trajectory.hpp"

namespace {

namespace fs = std::filesystem;

using minim::bench::double_list_from;
using minim::bench::Metric;
using minim::bench::split_list;
using minim::bench::string_list_from;
using minim::bench::sweep_options_from;
using minim::util::Options;

Options options_from(std::vector<std::string> args) {
  std::vector<const char*> argv{"test"};
  for (const auto& a : args) argv.push_back(a.c_str());
  return Options(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchTrajectory, EntrySingleCoreParsesTheAnnotation) {
  minim::bench::TrajectoryEntry entry;
  EXPECT_FALSE(minim::bench::entry_single_core(entry));  // no config at all

  entry.config_json = R"({"runs": 2, "threads": [1], "seed": 2001})";
  EXPECT_FALSE(minim::bench::entry_single_core(entry));

  entry.config_json =
      R"({"runs": 2, "threads": [1], "seed": 2001, "single_core": true})";
  EXPECT_TRUE(minim::bench::entry_single_core(entry));

  entry.config_json = R"({"single_core": false})";
  EXPECT_FALSE(minim::bench::entry_single_core(entry));

  // Whitespace after the colon must not defeat the scan.
  entry.config_json = "{\"single_core\":   true}";
  EXPECT_TRUE(minim::bench::entry_single_core(entry));
}

TEST(BenchTrajectory, SingleCoreAnnotationRoundTripsThroughTheFile) {
  minim::bench::TrajectoryEntry entry;
  entry.label = "one-core";
  entry.config_json = R"({"runs": 1, "single_core": true})";
  entry.benchmarks.push_back({"bench.x@t4", 1.0, 0.0, 0.0});
  std::ostringstream out;
  minim::bench::write_trajectory(out, {entry});

  const fs::path path =
      fs::temp_directory_path() / "minim_single_core_roundtrip.json";
  {
    std::ofstream file(path);
    file << out.str();
  }
  const auto loaded = minim::bench::load_trajectory(path.string());
  fs::remove(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_TRUE(minim::bench::entry_single_core(loaded[0]));
  const auto* baseline = minim::bench::baseline_for(loaded, "bench.x@t4");
  ASSERT_NE(baseline, nullptr);
  EXPECT_EQ(baseline->label, "one-core");
}

using minim::bench::check_measurements;
using minim::bench::CheckResult;
using minim::bench::Measurement;
using minim::bench::TrajectoryEntry;

TrajectoryEntry entry_with(std::string label, std::string config,
                           std::vector<Measurement> benchmarks) {
  TrajectoryEntry entry;
  entry.label = std::move(label);
  entry.config_json = std::move(config);
  entry.benchmarks = std::move(benchmarks);
  return entry;
}

Measurement wall_of(const std::string& name, double wall_s) {
  Measurement m;
  m.name = name;
  m.wall_s = wall_s;
  return m;
}

Measurement rate_of(const std::string& name, double events_per_s) {
  Measurement m;
  m.name = name;
  m.wall_s = 1.0;
  m.events_per_s = events_per_s;
  return m;
}

/// A config whose single-core annotation MATCHES this machine, so
/// throughput comparisons against it are allowed to proceed.
std::string matched_config() {
  return std::thread::hardware_concurrency() <= 1 ? R"({"single_core": true})"
                                                  : R"({"seed": 1})";
}

/// The opposite annotation: throughput gates must skip this baseline.
std::string mismatched_config() {
  return std::thread::hardware_concurrency() <= 1 ? R"({"seed": 1})"
                                                  : R"({"single_core": true})";
}

TEST(BenchCheck, WallClockGateFlagsSlowdowns) {
  const std::vector<TrajectoryEntry> trajectory{
      entry_with("base", "{}", {wall_of("bench.a", 1.0)})};
  std::ostringstream log;
  const CheckResult slow =
      check_measurements(trajectory, {wall_of("bench.a", 2.0)}, 1.5, log);
  EXPECT_FALSE(slow.ok);
  EXPECT_FALSE(slow.pass());
  EXPECT_EQ(slow.compared, 1u);
  EXPECT_NE(log.str().find("REGRESSION"), std::string::npos);

  const CheckResult fine =
      check_measurements(trajectory, {wall_of("bench.a", 1.4)}, 1.5, log);
  EXPECT_TRUE(fine.pass());
}

TEST(BenchCheck, ThroughputGateFlagsCollapseNotWallClock) {
  // The baseline annotation matches this machine, so the events/s
  // comparison runs: 400 < 1000 / 2 regresses, 600 does not — and a
  // throughput record's wall clock is never compared (it measures the same
  // run from the other side).
  const std::vector<TrajectoryEntry> trajectory{
      entry_with("base", matched_config(), {rate_of("bench.rate", 1000.0)})};
  std::ostringstream log;
  const CheckResult collapsed =
      check_measurements(trajectory, {rate_of("bench.rate", 400.0)}, 2.0, log);
  EXPECT_FALSE(collapsed.ok);
  EXPECT_EQ(collapsed.compared, 1u);

  Measurement slower_but_fast_enough = rate_of("bench.rate", 600.0);
  slower_but_fast_enough.wall_s = 100.0;  // would fail a wall gate
  const CheckResult fine = check_measurements(
      trajectory, {slower_but_fast_enough}, 2.0, log);
  EXPECT_TRUE(fine.pass());
}

TEST(BenchCheck, ScalingNamesSkipSingleCoreBaselines) {
  const std::vector<TrajectoryEntry> trajectory{entry_with(
      "one-core", R"({"single_core": true})", {wall_of("bench.a@t8", 9.0)})};
  std::ostringstream log;
  const CheckResult outcome =
      check_measurements(trajectory, {wall_of("bench.a@t8", 1000.0)}, 1.5, log);
  EXPECT_EQ(outcome.compared, 0u);
  EXPECT_EQ(outcome.skipped, 1u);
  EXPECT_TRUE(outcome.pass()) << "a rule-based skip is not a failure";
  EXPECT_NE(log.str().find("scaling comparison skipped"), std::string::npos);
}

TEST(BenchCheck, ThroughputSkipsHardwareMismatchedBaselines) {
  // events/s across different core counts measures the machine, not the
  // code: the mismatched baseline is skipped even though the measured rate
  // collapsed.
  const std::vector<TrajectoryEntry> trajectory{entry_with(
      "elsewhere", mismatched_config(), {rate_of("bench.rate", 1000.0)})};
  std::ostringstream log;
  const CheckResult outcome =
      check_measurements(trajectory, {rate_of("bench.rate", 1.0)}, 1.5, log);
  EXPECT_EQ(outcome.compared, 0u);
  EXPECT_EQ(outcome.skipped, 1u);
  EXPECT_TRUE(outcome.pass());
  EXPECT_NE(log.str().find("throughput comparison "), std::string::npos);
}

TEST(BenchCheck, AGateThatComparedNothingFails) {
  std::ostringstream log;
  const CheckResult outcome = check_measurements(
      {entry_with("base", "{}", {wall_of("bench.other", 1.0)})},
      {wall_of("bench.a", 1.0)}, 1.5, log);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.compared, 0u);
  EXPECT_EQ(outcome.skipped, 0u);
  EXPECT_FALSE(outcome.pass()) << "no baseline anywhere must not pass vacuously";
  EXPECT_NE(log.str().find("no baseline (skipped)"), std::string::npos);
}

TEST(BenchCheck, TheMostRecentCoveringEntryIsTheBaseline) {
  const std::vector<TrajectoryEntry> trajectory{
      entry_with("old", "{}", {wall_of("bench.a", 100.0)}),
      entry_with("new", "{}", {wall_of("bench.a", 1.0)}),
      entry_with("unrelated", "{}", {wall_of("bench.b", 1.0)})};
  std::ostringstream log;
  // 2.0 s passes against the old baseline but regresses against the new
  // one; the gate must pick "new".
  const CheckResult outcome =
      check_measurements(trajectory, {wall_of("bench.a", 2.0)}, 1.5, log);
  EXPECT_FALSE(outcome.ok);
  EXPECT_NE(log.str().find("baseline \"new\""), std::string::npos);
}

TEST(BenchUtil, SplitListDropsEmptyFields) {
  EXPECT_EQ(split_list("a,b,c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split_list(",a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_list("").empty());
  EXPECT_EQ(split_list("solo"), (std::vector<std::string>{"solo"}));
}

TEST(BenchUtil, ListOptionsFallBackWhenAbsent) {
  const Options options = options_from({"--strategies=minim,bbb"});
  EXPECT_EQ(string_list_from(options, "strategies", {"cp"}),
            (std::vector<std::string>{"minim", "bbb"}));
  EXPECT_EQ(string_list_from(options, "missing", {"cp"}),
            (std::vector<std::string>{"cp"}));
  EXPECT_EQ(double_list_from(options, "missing", {1.5}), (std::vector<double>{1.5}));
  const Options with_ns = options_from({"--ns=40,60"});
  EXPECT_EQ(double_list_from(with_ns, "ns", {}), (std::vector<double>{40, 60}));
}

TEST(BenchUtil, SweepOptionsRunsDefaultsAndFastPrecedence) {
  EXPECT_EQ(sweep_options_from(options_from({}), {"minim"}).runs, 100u);
  EXPECT_EQ(sweep_options_from(options_from({"--runs=7"}), {"minim"}).runs, 7u);
  // --fast is the CI smoke switch: it wins even over an explicit --runs.
  EXPECT_EQ(sweep_options_from(options_from({"--fast"}), {"minim"}).runs, 10u);
  EXPECT_EQ(sweep_options_from(options_from({"--runs=7", "--fast"}), {"minim"}).runs,
            10u);
  const auto sweep = sweep_options_from(options_from({"--seed=5", "--threads=2"}),
                                        {"minim", "cp"});
  EXPECT_EQ(sweep.seed, 5u);
  EXPECT_EQ(sweep.threads, 2u);
  EXPECT_EQ(sweep.strategies, (std::vector<std::string>{"minim", "cp"}));
}

TEST(BenchUtil, PrintSeriesSelectsTheRequestedMetric) {
  // Two distinguishable metrics; the CSV written for kRecodings must carry
  // the recoding stat, not the color stat.
  minim::sim::SweepPoint point;
  point.x = 80.0;
  point.strategy = "minim";
  point.color_metric.add(3.0);
  point.recoding_metric.add(42.0);

  const fs::path dir = fs::temp_directory_path() / "minim_bench_util_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Options options = options_from({"--csv-dir=" + dir.string()});

  testing::internal::CaptureStdout();
  print_series("title", "N", {point}, Metric::kRecodings, options, "series");
  const std::string stdout_text = testing::internal::GetCapturedStdout();
  EXPECT_NE(stdout_text.find("42.00"), std::string::npos);

  std::ifstream csv(dir / "series.csv");
  std::stringstream contents;
  contents << csv.rdbuf();
  EXPECT_NE(contents.str().find("42.000000"), std::string::npos);
  EXPECT_EQ(contents.str().find("3.000000"), std::string::npos);
  fs::remove_all(dir);
}

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(BenchAblations, EveryAblationSectionIsSelectedAndPrinted) {
  const fs::path out = fs::temp_directory_path() / "minim_ablations_out.txt";
  const std::string command = std::string(MINIM_BENCH_DIR) +
                              "/bench_ablations --runs=1 --threads=1 > " +
                              out.string() + " 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const std::string text = read_text(out);
  for (const char* needle :
       {"A. Matching engine", "hungarian (paper)", "greedy 1/2-approx",
        "max-cardinality", "B. Old-color edge weight", "weight 3 (paper)",
        "C. CP variants", "D. BBB coloring order",
        "E. Minim move semantics", "mover keeps preference",
        "mover rejoins uncolored"})
    EXPECT_NE(text.find(needle), std::string::npos) << "missing: " << needle;
  fs::remove(out);
}

TEST(BenchHarnesses, FlagsAHarnessDoesNotReadExitTwo) {
  // A misspelt --check-factor used to run perf_trajectory's gate at the
  // default 1.5 and print PASS.  Each harness names the flag on stderr and
  // exits before doing any work, so stdout stays empty.
  const fs::path out = fs::temp_directory_path() / "minim_harness_flags_out.txt";
  const fs::path err = fs::temp_directory_path() / "minim_harness_flags_err.txt";
  const std::pair<const char*, const char*> cases[] = {
      {"perf_trajectory --runs=1 --trials=1 --check-factr=1000",
       "--check-factr"},
      {"fig10_join --run=2", "--run"},
      {"fig10_join --runs=2 runs=2", "runs=2"},
      {"fig11_power_increase --csv_dir=out", "--csv_dir"},
      {"fig12_movement --trials=2", "--trials"},
      {"ablations --runs=1 --sed=1", "--sed"},
      {"large_n --smoke --check-rs=x.json", "--check-rs"},
      {"protocol_overhead --runs=1 --threads=2", "--threads"},
      {"serve_latency --smoke --recolor-threads=1,2", "--recolor-threads"},
      {"steady_state_churn --runs=1 --arrival_rate=0.5", "--arrival_rate"}};
  for (const auto& [args, named] : cases) {
    const std::string command = std::string(MINIM_BENCH_DIR) + "/bench_" +
                                args + " > " + out.string() + " 2> " +
                                err.string();
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    EXPECT_NE(read_text(err).find(std::string("unexpected argument ") + named),
              std::string::npos)
        << command << "\n" << read_text(err);
    EXPECT_EQ(read_text(out), "") << command;
  }
  fs::remove(out);
  fs::remove(err);
}

}  // namespace
