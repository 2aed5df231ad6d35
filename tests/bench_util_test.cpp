// The bench-side logic the harnesses rely on: the BENCH_sweep.json reader
// and writer (the committed file round-trips byte for byte) and its one
// regression gate, list parsing, the --runs/--fast precedence of
// sweep_options_from, metric and strategy selection in print_series' CSV
// output — plus end-to-end runs of the real harness binaries (directory
// injected via MINIM_BENCH_DIR): bench_ablations selects and prints every
// ablation section and variant row, every harness exits 2 on a flag it
// does not read, on a --runs or --trials below 1 and on a number list
// field that does not parse whole or is not finite, and on a stage size,
// rate or churn point out of range, an unwritable output exits 2 before the
// run, and bench_large_n parses its population tolerance whole.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
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

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  std::stringstream contents;
  contents << in.rdbuf();
  return contents.str();
}

TEST(BenchTrajectory, TheCommittedFileRoundTripsByteForByte) {
  // `--append` loads the trajectory and writes it back with one more entry,
  // so a field the reader drops would vanish from the committed file.
  const std::string committed = read_text(MINIM_BENCH_SWEEP);
  const auto entries = minim::bench::load_trajectory(MINIM_BENCH_SWEEP);
  ASSERT_FALSE(entries.empty());
  std::ostringstream rewritten;
  minim::bench::write_trajectory(rewritten, entries);
  EXPECT_EQ(rewritten.str(), committed);
}

using minim::bench::check_measurements;
using minim::bench::CheckResult;
using minim::bench::kPeakRss;
using minim::bench::kWallClock;
using minim::bench::Measurement;
using minim::bench::TrajectoryEntry;

TrajectoryEntry entry_with(std::string label, std::vector<Measurement> benchmarks) {
  TrajectoryEntry entry;
  entry.label = std::move(label);
  entry.config_json = "{}";
  entry.benchmarks = std::move(benchmarks);
  return entry;
}

Measurement wall_of(const std::string& name, double wall_s) {
  Measurement m;
  m.name = name;
  m.wall_s = wall_s;
  return m;
}

Measurement rss_of(const std::string& name, double peak_rss_mb) {
  Measurement m = wall_of(name, 1.0);
  m.peak_rss_mb = peak_rss_mb;
  return m;
}

TEST(BenchCheck, WallClockGateFlagsSlowdowns) {
  const std::vector<TrajectoryEntry> trajectory{
      entry_with("base", {wall_of("bench.a", 1.0)})};
  std::ostringstream log;
  const CheckResult slow = check_measurements(
      trajectory, {wall_of("bench.a", 2.0)}, kWallClock, 1.5, "perf check", log);
  EXPECT_FALSE(slow.ok);
  EXPECT_FALSE(slow.pass());
  EXPECT_EQ(slow.compared, 1u);
  EXPECT_NE(log.str().find("REGRESSION"), std::string::npos);
  EXPECT_NE(log.str().find("perf check: FAIL\n"), std::string::npos);

  const CheckResult fine = check_measurements(
      trajectory, {wall_of("bench.a", 1.4)}, kWallClock, 1.5, "perf check", log);
  EXPECT_TRUE(fine.pass());
  EXPECT_NE(log.str().find("perf check: PASS\n"), std::string::npos);
}

TEST(BenchCheck, PeakRssGateSkipsBaselinesWithoutRss) {
  // "bench.b"'s latest baseline records no RSS, so it is skipped rather
  // than compared against 0; "bench.a" still gates the run.
  const std::vector<TrajectoryEntry> trajectory{
      entry_with("old", {rss_of("bench.b", 10.0)}),
      entry_with("new", {rss_of("bench.a", 100.0), wall_of("bench.b", 1.0)})};
  std::ostringstream log;
  const CheckResult grown = check_measurements(
      trajectory, {rss_of("bench.a", 151.0), rss_of("bench.b", 1000.0)},
      kPeakRss, 1.5, "rss check", log);
  EXPECT_EQ(grown.compared, 1u);
  EXPECT_FALSE(grown.pass());
  EXPECT_NE(log.str().find("bench.a: 151.0 MB vs baseline \"new\" 100.0 MB"
                           "  REGRESSION"),
            std::string::npos)
      << log.str();
  EXPECT_NE(log.str().find("bench.b: baseline \"new\" has no peak_rss_mb "
                           "(skipped)"),
            std::string::npos)
      << log.str();

  // Every baseline lacks RSS: the gate compared nothing, so it fails.
  std::ostringstream none;
  const CheckResult vacuous = check_measurements(
      trajectory, {rss_of("bench.b", 1.0)}, kPeakRss, 1.5, "rss check", none);
  EXPECT_TRUE(vacuous.ok);
  EXPECT_EQ(vacuous.compared, 0u);
  EXPECT_FALSE(vacuous.pass());
  EXPECT_NE(none.str().find("rss check: FAIL (no measurement had a baseline)"),
            std::string::npos)
      << none.str();
}

TEST(BenchCheck, AGateThatComparedNothingFails) {
  std::ostringstream log;
  const CheckResult outcome = check_measurements(
      {entry_with("base", {wall_of("bench.other", 1.0)})},
      {wall_of("bench.a", 1.0)}, kWallClock, 1.5, "perf check", log);
  EXPECT_TRUE(outcome.ok);
  EXPECT_EQ(outcome.compared, 0u);
  EXPECT_FALSE(outcome.pass()) << "no baseline anywhere must not pass vacuously";
  EXPECT_NE(log.str().find("no baseline (skipped)"), std::string::npos);
  EXPECT_NE(log.str().find("perf check: FAIL (no measurement had a baseline)"),
            std::string::npos);
}

TEST(BenchCheck, TheMostRecentCoveringEntryIsTheBaseline) {
  const std::vector<TrajectoryEntry> trajectory{
      entry_with("old", {wall_of("bench.a", 100.0)}),
      entry_with("new", {wall_of("bench.a", 1.0)}),
      entry_with("unrelated", {wall_of("bench.b", 1.0)})};
  std::ostringstream log;
  // 2.0 s passes against the old baseline but regresses against the new
  // one; the gate must pick "new".
  const CheckResult outcome = check_measurements(
      trajectory, {wall_of("bench.a", 2.0)}, kWallClock, 1.5, "perf check", log);
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

TEST(BenchUtil, SweepFlagsRunsDefaultsAndFastPrecedence) {
  EXPECT_EQ(sweep_options_from(options_from({})).trials, 100u);
  EXPECT_EQ(sweep_options_from(options_from({"--runs=7"})).trials, 7u);
  // --fast is the CI smoke switch: it wins even over an explicit --runs.
  EXPECT_EQ(sweep_options_from(options_from({"--fast"})).trials, 10u);
  EXPECT_EQ(sweep_options_from(options_from({"--runs=7", "--fast"})).trials, 10u);
  const auto run = sweep_options_from(options_from({"--seed=5", "--threads=2"}));
  EXPECT_EQ(run.seed, 5u);
  EXPECT_EQ(run.threads, 2u);
  // A harness's own defaults (bench_ablations: 60 runs, seed 99).
  const auto ablations = sweep_options_from(options_from({}), 60, 99);
  EXPECT_EQ(ablations.trials, 60u);
  EXPECT_EQ(ablations.seed, 99u);
}

TEST(BenchUtil, PrintSeriesSelectsTheRequestedMetric) {
  // Two distinguishable metrics; the CSV written for kRecodings must carry
  // the recoding stat, not the color stat, and only the strategies asked
  // for.
  minim::sim::ExperimentResult result;
  result.axis_names = {"n"};
  result.points = {{80.0}};
  result.strategies = {"minim", "cp"};
  for (std::size_t s = 0; s < 2; ++s) {
    minim::sim::RunOutcome trial;
    trial.max_color = 3;
    trial.totals.recodings = 42 + s;
    result.cells.push_back({0, s, {trial}});
  }

  const fs::path dir = fs::temp_directory_path() / "minim_bench_util_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const Options options = options_from({"--csv-dir=" + dir.string()});

  testing::internal::CaptureStdout();
  print_series("title", "N", result, Metric::kRecodings, options, "series",
               {"minim"});
  const std::string stdout_text = testing::internal::GetCapturedStdout();
  EXPECT_NE(stdout_text.find("42.00"), std::string::npos);
  EXPECT_EQ(stdout_text.find("43.00"), std::string::npos);

  std::ifstream csv(dir / "series.csv");
  std::stringstream contents;
  contents << csv.rdbuf();
  EXPECT_EQ(contents.str(),
            "N,strategy,mean,ci95,stddev,min,max,runs\n"
            "80.000,minim,42.000000,0.000000,0.000000,42.000,42.000,1\n");
  fs::remove_all(dir);
}

/// One run of a harness binary (`args` starts with its name, less the
/// "bench_" prefix), cut after 60 s: its wait status and what it wrote to
/// stdout and stderr.
struct HarnessRun {
  int status = 0;
  std::string out;
  std::string err;
};

HarnessRun run_harness(const std::string& args) {
  // Named after the running test: CTest runs the cases in parallel.
  const std::string test =
      testing::UnitTest::GetInstance()->current_test_info()->name();
  const fs::path out = fs::temp_directory_path() / ("minim_" + test + ".out");
  const fs::path err = fs::temp_directory_path() / ("minim_" + test + ".err");
  // A harness that hangs fails here (timeout's exit 124) instead of
  // stalling the suite.
  const std::string command = "timeout 60 " + std::string(MINIM_BENCH_DIR) +
                              "/bench_" + args + " > " + out.string() +
                              " 2> " + err.string();
  HarnessRun run;
  run.status = std::system(command.c_str());
  run.out = read_text(out);
  run.err = read_text(err);
  fs::remove(out);
  fs::remove(err);
  return run;
}

TEST(BenchAblations, EveryAblationSectionIsSelectedAndPrinted) {
  const HarnessRun run = run_harness("ablations --runs=1 --threads=1");
  ASSERT_EQ(run.status, 0) << run.err;
  for (const char* needle :
       {"A. Matching engine", "hungarian (paper)", "greedy 1/2-approx",
        "max-cardinality", "B. Old-color edge weight", "weight 3 (paper)",
        "C. CP variants", "D. BBB coloring order",
        "E. Minim move semantics", "mover keeps preference",
        "mover rejoins uncolored"})
    EXPECT_NE(run.out.find(needle), std::string::npos) << "missing: " << needle;
}

TEST(BenchHarnesses, FlagsAHarnessDoesNotReadExitTwo) {
  // A misspelt --check-factor used to run perf_trajectory's gate at the
  // default 1.5 and print PASS.  Each harness names the flag on stderr and
  // exits before doing any work, so stdout stays empty.
  const std::pair<const char*, const char*> cases[] = {
      {"perf_trajectory --runs=1 --trials=1 --check-factr=1000",
       "--check-factr"},
      {"perf_trajectory --runs=1 --trials=1 --threads=1", "--threads"},
      {"fig10_join --run=2", "--run"},
      {"fig10_join --runs=2 runs=2", "runs=2"},
      {"fig11_power_increase --csv_dir=out", "--csv_dir"},
      {"fig12_movement --trials=2", "--trials"},
      {"ablations --runs=1 --sed=1", "--sed"},
      {"large_n --smoke --check-rs=x.json", "--check-rs"},
      {"protocol_overhead --runs=1 --threads=2", "--threads"},
      {"steady_state_churn --runs=1 --arrival_rate=0.5", "--arrival_rate"}};
  for (const auto& [args, named] : cases) {
    const HarnessRun run = run_harness(args);
    ASSERT_TRUE(WIFEXITED(run.status)) << args;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << args;
    EXPECT_NE(run.err.find(std::string("unexpected argument ") + named),
              std::string::npos)
        << args << "\n" << run.err;
    EXPECT_EQ(run.out, "") << args;
  }
}

TEST(BenchHarnesses, UnwritableOutputsExitTwoBeforeTheRun) {
  // These outputs used to be opened after the whole run had been computed,
  // and the harness then died in std::terminate.  Each now exits 2 naming
  // the path before any trial runs, so stdout stays empty.
  const fs::path missing = fs::temp_directory_path() / "minim_no_such_dir";
  fs::remove_all(missing);
  const std::string grid =
      "cdma_drive --trials=1 --axes=n:10 --strategies=minim --threads=1 ";
  const std::string file = (missing / "x.csv").string();
  const std::pair<std::string, std::string> cases[] = {
      {grid + "--save-experiment=" + file, "--save-experiment: cannot write to " + file},
      {grid + "--csv-dir=" + missing.string(),
       "--csv-dir: cannot write to " + missing.string()},
      {grid + "--shard=0/2 --out=" + file, "--out: cannot write to " + file},
      {"fig10_join --runs=1 --csv-dir=" + missing.string(),
       "--csv-dir: cannot write to " + missing.string()}};
  for (const auto& [args, reason] : cases) {
    const HarnessRun run = run_harness(args);
    ASSERT_TRUE(WIFEXITED(run.status)) << args;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << args;
    EXPECT_NE(run.err.find(reason), std::string::npos) << args << "\n" << run.err;
    EXPECT_EQ(run.out, "") << args;
  }
  EXPECT_FALSE(fs::exists(missing));
}

TEST(BenchHarnesses, LargeNPopulationToleranceParsesWhole) {
  // std::strtod used to read "abc" as tolerance 0 and "0.25x" as 0.25.
  // Like every other number option, the value must parse whole, or the
  // harness aborts before any stage runs.
  for (const char* tolerance : {"abc", "0.25x"}) {
    const HarnessRun run = run_harness(
        std::string("large_n --smoke --smoke-n=1000 --churn "
                    "--check-population=") +
        tolerance);
    EXPECT_FALSE(WIFEXITED(run.status) && WEXITSTATUS(run.status) <= 2)
        << tolerance << ": status " << run.status;
    EXPECT_NE(run.err.find(std::string("option --check-population expects a "
                                       "number, got '") +
                           tolerance + "'"),
              std::string::npos)
        << run.err;
    EXPECT_EQ(run.out, "") << tolerance;
  }
}

TEST(BenchHarnesses, RunAndTrialCountsBelowOneExitTwo) {
  // --runs=0 used to abort the figure harnesses, bench_ablations and
  // bench_perf_trajectory in std::terminate, and to print -nan from
  // bench_steady_state_churn and tables of zeros from
  // bench_protocol_overhead and bench_cdma_drive --trials=0.  Each now
  // names the flag and exits 2 before any run, so stdout stays empty.
  const std::pair<const char*, const char*> cases[] = {
      {"fig10_join --runs=0", "--runs"},
      {"fig11_power_increase --runs=0", "--runs"},
      {"fig12_movement --runs=-3", "--runs"},
      {"ablations --runs=0", "--runs"},
      {"perf_trajectory --runs=0", "--runs"},
      {"perf_trajectory --trials=0", "--trials"},
      {"steady_state_churn --runs=0", "--runs"},
      {"protocol_overhead --runs=0", "--runs"},
      {"cdma_drive --trials=0", "--trials"}};
  for (const auto& [args, named] : cases) {
    const HarnessRun run = run_harness(args);
    ASSERT_TRUE(WIFEXITED(run.status)) << args;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << args;
    EXPECT_NE(run.err.find(std::string(named) + " wants at least 1"),
              std::string::npos)
        << args << "\n" << run.err;
    EXPECT_EQ(run.out, "") << args;
  }
}

TEST(BenchHarnesses, NumberListFieldsParseWhole) {
  // bench_large_n used to abort on --ns=abc and to run --ns=1000x as a
  // 1,000-node stage.  --ns now parses each field whole, as --axes does,
  // and either flag exits 2 naming the bad field; so does an axis name
  // outside the experiment layer's table, listing the known ones.
  const std::pair<const char*, const char*> cases[] = {
      {"large_n --ns=abc", "--ns: bad value \"abc\""},
      {"large_n --ns=1000,1000x", "--ns: bad value \"1000x\""},
      {"cdma_drive --axes=n:1000x", "--axes entry \"n:1000x\": bad value \"1000x\""},
      {"cdma_drive --axes=foo:1",
       "unknown axis \"foo\" (expected n|raise_factor|max_displacement|"
       "move_rounds|min_range|max_range|avg_range|clusters|cluster_sigma|"
       "churn_duration|arrival_rate|mean_lifetime)"}};
  for (const auto& [args, reason] : cases) {
    const HarnessRun run = run_harness(args);
    ASSERT_TRUE(WIFEXITED(run.status)) << args;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << args;
    EXPECT_NE(run.err.find(reason), std::string::npos) << args << "\n" << run.err;
    EXPECT_EQ(run.out, "") << args;
  }
}

TEST(BenchHarnesses, DegenerateSizesAndRatesExitTwoBeforeAnyRun) {
  // Each of these used to abort with exit 134 (a zero or negative stage
  // size, a mean degree below 0, a zero churn duration), to run something
  // else (--ns=1000.5 ran 1,000 nodes, a negative rate meant "never"), or
  // to never return: a zero lifetime or an infinite arrival rate repeats
  // arrivals at one instant forever.  Each now names the flag or the parameter and exits 2 before
  // any stage or trial runs, so stdout stays empty.
  const std::pair<const char*, const char*> cases[] = {
      {"large_n --ns=0", "--ns wants whole node counts from 1"},
      {"large_n --ns=-5", "--ns wants whole node counts from 1"},
      {"large_n --ns=1000.5", "--ns wants whole node counts from 1"},
      {"large_n --smoke --smoke-n=0", "--smoke-n wants whole node counts from 1"},
      {"large_n --mean-degree=-1", "--mean-degree wants a number above 0, got -1"},
      {"large_n --smoke --smoke-n=1000 --churn --churn-duration=0",
       "--churn-duration wants a number above 0, got 0"},
      {"large_n --smoke --smoke-n=500 --churn --churn-lifetime=0",
       "--churn-lifetime wants a number above 0, got 0"},
      {"large_n --smoke --smoke-n=500 --churn --churn-move-rate=-1",
       "--churn-move-rate wants a number of at least 0, got -1"},
      {"cdma_drive --scenario=churn --axes=arrival_rate:inf --trials=1 "
       "--strategies=minim",
       "--axes entry \"arrival_rate:inf\": bad value \"inf\""},
      {"cdma_drive --scenario=churn --axes=churn_duration:0 --trials=1 "
       "--strategies=minim",
       "churn duration must be positive"},
      {"steady_state_churn --runs=1 --arrival-rate=inf",
       "churn arrival_rate must be finite and >= 0"}};
  for (const auto& [args, reason] : cases) {
    const HarnessRun run = run_harness(args);
    ASSERT_TRUE(WIFEXITED(run.status)) << args;
    EXPECT_EQ(WEXITSTATUS(run.status), 2) << args;
    EXPECT_NE(run.err.find(reason), std::string::npos) << args << "\n" << run.err;
    EXPECT_EQ(run.out, "") << args;
  }
}

}  // namespace
