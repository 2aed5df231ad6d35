#pragma once

#include <iosfwd>
#include <string>

#include "sim/experiment.hpp"

/// \file experiment_io.hpp
/// \brief Exact persistence for experiment shards.
///
/// A sharded study runs as k processes, each producing one
/// `ExperimentResult` for its trial range; these helpers write a result as a
/// self-describing CSV (metadata preamble + one row per (cell, trial)) and
/// read it back *exactly*: integers verbatim, doubles with 17 significant
/// digits, so a write/read/merge round-trip stays bit-identical to the
/// in-memory result.  `bench_cdma_drive --shard=i/k --out=F` and
/// `--merge=F1,...` are the end-to-end demonstration, and its `--selfcheck`
/// compares these bytes against the unsharded run's.

namespace minim::sim {

/// Writes `result` (typically one shard) to `out`.
void write_experiment_csv(const ExperimentResult& result, std::ostream& out);

/// Parses a stream produced by `write_experiment_csv`.  Throws
/// std::runtime_error on malformed input.
ExperimentResult read_experiment_csv(std::istream& in);

/// File convenience wrappers; throw std::runtime_error when the file cannot
/// be opened, or (reading) when it is malformed, naming the file.
void write_experiment_csv_file(const ExperimentResult& result,
                               const std::string& path);
ExperimentResult read_experiment_csv_file(const std::string& path);

}  // namespace minim::sim
