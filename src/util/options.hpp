#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

/// \file options.hpp
/// \brief Tiny `--key=value` command-line parser for benches and examples.
///
/// Every bench binary must also run with *no* arguments (the CI loop executes
/// `for b in build/bench/*; do $b; done`), so options always carry defaults.

namespace minim::util {

/// Parses `--key=value`, `--key value` and bare `--flag` arguments.
/// Unknown positional arguments are collected in `positional()`.
class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv);

  bool has(const std::string& key) const { return values_.count(key) != 0; }

  /// Raw string lookup; `fallback` when absent.
  std::string get(const std::string& key, const std::string& fallback) const;

  /// Numbers: the whole value must parse ("3x" and "2.9" are not integers,
  /// "20.5x" is not a number); anything else throws std::invalid_argument.
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  /// Flags: `--x`, `--x=true/1/yes/on` are true; `--x=false/0/no/off` false.
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders all parsed key/value pairs (diagnostics).
  std::string to_string() const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace minim::util
