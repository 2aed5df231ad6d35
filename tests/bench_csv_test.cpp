// End-to-end tests of the real bench_cdma_drive binary (path injected by
// CMake via MINIM_BENCH_CDMA_DRIVE) on the grid study, N x raise_factor
// on the power scenario:
//  * the --csv-dir summary (header, d_* columns and row counts) the way a
//    user drives it;
//  * scale-out across machines: two --shard processes merged with --merge
//    must save a per-trial CSV byte-identical to the single-process run;
//  * --shard=i/k takes digits only: a sign or a blank exits 2;
//  * --merge of a missing file, a truncated file or overlapping shards
//    exits 2 and names the reason;
//  * a flag the binary does not read exits 2 and writes nothing;
//  * --serve's --port and --max-batch out of range exit 2 before any
//    transport is built;
//  * an unknown strategy name exits 2 before any work, in the grid, in
//    --serve and in bench_large_n (path injected as MINIM_BENCH_LARGE_N).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::vector<std::string> read_lines(const fs::path& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(BenchCsv, GridStudyWritesTheSeriesCsv) {
  const fs::path dir = fs::temp_directory_path() / "minim_bench_csv_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  // 2 x 2 grid x 2 strategies, tiny trial count: 8 data rows expected.
  const std::string command = std::string(MINIM_BENCH_CDMA_DRIVE) +
                              " --scenario=power --trials=2"
                              " --axes=n:20:30,raise_factor:2.0:3.0"
                              " --strategies=minim,cp --threads=1"
                              " --csv-dir=" +
                              dir.string() + " > /dev/null 2>&1";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  const fs::path csv = dir / "cdma_drive.csv";
  ASSERT_TRUE(fs::exists(csv)) << csv;
  const std::vector<std::string> lines = read_lines(csv);
  ASSERT_EQ(lines.size(), 1u + 2u * 2u * 2u);  // header + points x strategies
  EXPECT_EQ(lines.front(),
            "n,raise_factor,strategy,trials,events_mean,recodings_mean,"
            "recodings_stddev,max_color_mean,d_color_mean,d_color_ci95,"
            "d_recodings_mean,d_recodings_ci95");
  // Every data row carries the full column set and the right trial count.
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), ','), 11) << lines[i];
    EXPECT_NE(lines[i].find(",2,"), std::string::npos) << lines[i];
  }

  fs::remove_all(dir);
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(BenchCsv, ShardedRunMergesByteForByteWithSingleProcess) {
  const fs::path dir = fs::temp_directory_path() / "minim_bench_shard_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string study = std::string(MINIM_BENCH_CDMA_DRIVE) +
                            " --scenario=power --trials=6"
                            " --axes=n:30:40,raise_factor:2.0:3.0";
  const auto run = [&dir](const std::string& command) {
    const std::string logged =
        command + " > " + (dir / "run.log").string() + " 2>&1";
    return std::system(logged.c_str());
  };
  const fs::path single_csv = dir / "single.csv";
  const fs::path merged_csv = dir / "merged.csv";
  const fs::path shard0 = dir / "s0.csv";
  const fs::path shard1 = dir / "s1.csv";

  ASSERT_EQ(run(study + " --threads=1 --save-experiment=" + single_csv.string()),
            0)
      << read_file(dir / "run.log");
  ASSERT_EQ(run(study + " --threads=2 --shard=0/2 --out=" + shard0.string()), 0)
      << read_file(dir / "run.log");
  ASSERT_EQ(run(study + " --threads=2 --shard=1/2 --out=" + shard1.string()), 0)
      << read_file(dir / "run.log");
  ASSERT_EQ(run(study + " --merge=" + shard0.string() + "," + shard1.string() +
                " --save-experiment=" + merged_csv.string()),
            0)
      << read_file(dir / "run.log");

  const std::string expected = read_file(single_csv);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(merged_csv), expected)
      << "--shard/--merge is not byte-identical to the single-process run";

  fs::remove_all(dir);
}

TEST(BenchCsv, ShardArgumentsAreDigitsOnly) {
  const fs::path dir = fs::temp_directory_path() / "minim_bench_shard_args_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const fs::path out = dir / "shard.csv";
  const std::string study = std::string(MINIM_BENCH_CDMA_DRIVE) +
                            " --scenario=power --trials=2"
                            " --axes=n:20,raise_factor:2.0"
                            " --strategies=minim --threads=1 --out=" +
                            out.string();
  // "1/-4" used to run shard 1 of 2^64-4.
  for (const char* shard :
       {"'--shard=+1/4'", "'--shard=1/-4'", "'--shard= 1/4'"}) {
    const std::string command = study + " " + shard + " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    EXPECT_FALSE(fs::exists(out)) << command;
  }
  // The same study with a well-formed shard runs and writes its file.
  ASSERT_EQ(std::system((study + " --shard=1/4 > /dev/null 2>&1").c_str()), 0);
  EXPECT_TRUE(fs::exists(out));

  fs::remove_all(dir);
}

TEST(BenchCsv, MergeOfABadShardSetExitsTwoWithTheReason) {
  const fs::path dir = fs::temp_directory_path() / "minim_bench_merge_errors_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const std::string study = std::string(MINIM_BENCH_CDMA_DRIVE) +
                            " --scenario=power --trials=6"
                            " --axes=n:20,raise_factor:2.0"
                            " --strategies=minim --threads=1";
  const fs::path half = dir / "half.csv";
  const fs::path third = dir / "third.csv";
  const fs::path truncated = dir / "truncated.csv";
  ASSERT_EQ(std::system((study + " --shard=0/2 --out=" + half.string() +
                         " > /dev/null 2>&1")
                            .c_str()),
            0);
  ASSERT_EQ(std::system((study + " --shard=0/3 --out=" + third.string() +
                         " > /dev/null 2>&1")
                            .c_str()),
            0);
  // The shard without its last trial row.
  std::string text = read_file(half);
  text.erase(text.rfind('\n', text.size() - 2) + 1);
  std::ofstream(truncated) << text;

  const fs::path missing = dir / "does_not_exist.csv";
  const fs::path log = dir / "stderr.log";
  const std::pair<std::string, std::string> cases[] = {
      {missing.string(), "cannot open for reading: " + missing.string()},
      {truncated.string(),
       truncated.string() + ": read_experiment_csv: cell has 2 trials, "
                            "expected 3 (truncated file?)"},
      {half.string() + "," + third.string(),
       "merge_shards: trial ranges leave a gap or overlap"}};
  for (const auto& [shards, reason] : cases) {
    const std::string command = std::string(MINIM_BENCH_CDMA_DRIVE) +
                                " --merge=" + shards + " > /dev/null 2> " +
                                log.string();
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    const std::string err = read_file(log);
    EXPECT_EQ(err.rfind("cdma_drive: ", 0), 0u) << err;
    EXPECT_NE(err.find(reason), std::string::npos) << err;
  }

  fs::remove_all(dir);
}

TEST(BenchCsv, FlagsTheBinaryDoesNotReadExitTwo) {
  const fs::path dir = fs::temp_directory_path() / "minim_bench_flags_test";
  fs::remove_all(dir);
  fs::create_directories(dir);

  const fs::path out = dir / "experiment.csv";
  const std::string drive = std::string(MINIM_BENCH_CDMA_DRIVE) +
                            " --trials=2 --threads=1 --save-experiment=" +
                            out.string() + " --csv-dir=" + dir.string();
  const fs::path log = dir / "stderr.log";
  // The flags of the old grid-study and scenario-sweep harnesses used to run
  // the default join grid silently, and --recolor-threads left with the
  // parallel recolor pass.  Each is named on stderr.
  const std::pair<const char*, const char*> cases[] = {
      {"--ns=30,40 --factors=2.0,4.0 --selfcheck=3", "--ns"},
      {"--n=50", "--n"},
      {"--churn-duration=200", "--churn-duration"},
      {"--serial-check", "--serial-check"},
      {"--serve --trials=2", "--trials"},
      {"--serve --recolor-threads=2", "--recolor-threads"},
      {"stray.csv", "stray.csv"}};
  for (const auto& [flags, named] : cases) {
    const std::string command =
        drive + " " + flags + " > /dev/null 2> " + log.string();
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    EXPECT_NE(read_file(log).find(named), std::string::npos) << command;
    EXPECT_FALSE(fs::exists(out)) << command;
    EXPECT_FALSE(fs::exists(dir / "cdma_drive.csv")) << command;
  }
  // The same run without them writes both files.
  ASSERT_EQ(std::system((drive + " > /dev/null 2>&1").c_str()), 0);
  EXPECT_TRUE(fs::exists(out));
  EXPECT_TRUE(fs::exists(dir / "cdma_drive.csv"));

  fs::remove_all(dir);
}

TEST(BenchCsv, PortAndMaxBatchOutOfRangeExitTwo) {
  // --port used to be cast straight to uint16_t (70000 listened on 4464,
  // -1 on 65535), and a --max-batch below 1 silently served at 1.  Each is
  // named on stderr before an engine or transport exists; the sessions read
  // /dev/null on the stdin transport, so no socket is ever opened.
  const fs::path dir = fs::temp_directory_path() / "minim_bench_port_flags_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path out = dir / "stdout.log";
  const fs::path log = dir / "stderr.log";
  const std::pair<const char*, const char*> cases[] = {
      {"--port=70000", "--port wants 0..65535, got 70000"},
      {"--port=-1", "--port wants 0..65535, got -1"},
      {"--max-batch=0", "--max-batch wants at least 1, got 0"},
      {"--max-batch=-7", "--max-batch wants at least 1, got -7"}};
  for (const auto& [flag, reason] : cases) {
    const std::string command = std::string(MINIM_BENCH_CDMA_DRIVE) +
                                " --serve " + flag + " < /dev/null > " +
                                out.string() + " 2> " + log.string();
    const int status = std::system(command.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    EXPECT_NE(read_file(log).find(reason), std::string::npos)
        << command << "\n" << read_file(log);
    EXPECT_EQ(read_file(out), "") << command;
  }

  fs::remove_all(dir);
}

TEST(BenchCsv, UnknownStrategyExitsTwoBeforeAnyWork) {
  // Each of these used to end in std::terminate (exit 134), the grid after
  // printing its header.  The name is now checked against the strategy
  // factory before any trial, transport or stage; --serve reads /dev/null
  // on the stdin transport, so no socket is ever opened.
  const fs::path dir = fs::temp_directory_path() / "minim_bench_strategy_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path out = dir / "stdout.log";
  const fs::path log = dir / "stderr.log";
  const std::string drive = MINIM_BENCH_CDMA_DRIVE;
  const std::string large_n = MINIM_BENCH_LARGE_N;
  for (const std::string& command :
       {drive + " --strategies=nosuch --trials=1 --axes=n:10",
        drive + " --serve --strategy=nosuch < /dev/null",
        large_n + " --smoke --smoke-n=1000 --strategy=nosuch"}) {
    const std::string run = "timeout 60 " + command + " > " + out.string() +
                            " 2> " + log.string();
    const int status = std::system(run.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << command;
    EXPECT_EQ(WEXITSTATUS(status), 2) << command;
    EXPECT_NE(read_file(log).find("unknown strategy 'nosuch'; known: minim, "),
              std::string::npos)
        << command << "\n" << read_file(log);
    EXPECT_EQ(read_file(out), "") << command;
  }

  fs::remove_all(dir);
}

}  // namespace
