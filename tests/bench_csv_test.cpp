// End-to-end tests of the real bench_cdma_drive binary (path injected by
// CMake via MINIM_BENCH_CDMA_DRIVE) on the grid study, N x raise_factor
// on the power scenario:
//  * the --csv-dir summary (header, d_* columns and row counts) the way a
//    user drives it;
//  * scale-out across machines: two --shard processes merged with --merge
//    must save a per-trial CSV byte-identical to the single-process run;
//  * --shard=i/k takes digits only: a sign or a blank exits 2;
//  * a flag the binary does not read exits 2 and writes nothing.

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
  // the default join grid silently.  Each is named on stderr.
  const std::pair<const char*, const char*> cases[] = {
      {"--ns=30,40 --factors=2.0,4.0 --selfcheck=3", "--ns"},
      {"--n=50", "--n"},
      {"--churn-duration=200", "--churn-duration"},
      {"--serial-check", "--serial-check"},
      {"--serve --trials=2", "--trials"},
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

}  // namespace
