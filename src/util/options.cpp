#include "util/options.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/require.hpp"

namespace minim::util {

namespace {

bool starts_with_dashes(const std::string& s) {
  return s.size() > 2 && s[0] == '-' && s[1] == '-';
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!starts_with_dashes(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` if the next token is not another option; else bare flag.
    if (i + 1 < argc && !starts_with_dashes(argv[i + 1])) {
      values_[arg] = argv[i + 1];
      ++i;
    } else {
      values_[arg] = "";
    }
  }
}

std::string Options::get(const std::string& key, const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  bool whole = false;
  try {
    std::size_t used = 0;
    value = std::stoll(it->second, &used);
    whole = used == it->second.size();
  } catch (const std::exception&) {
    // No digits, or out of range: reported below like trailing text.
  }
  MINIM_REQUIRE(whole, "option --" + key + " expects an integer, got '" + it->second + "'");
  return value;
}

std::size_t Options::get_count(const std::string& key, std::size_t fallback) const {
  const std::int64_t value = get_int(key, static_cast<std::int64_t>(fallback));
  MINIM_REQUIRE(value >= 0, "option --" + key + " expects a count (>= 0), got '" +
                                get(key, "") + "'");
  return static_cast<std::size_t>(value);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  double value = 0.0;
  bool whole = false;
  try {
    std::size_t used = 0;
    value = std::stod(it->second, &used);
    whole = used == it->second.size();
  } catch (const std::exception&) {
    // No digits, or out of range: reported below like trailing text.
  }
  MINIM_REQUIRE(whole, "option --" + key + " expects a number, got '" + it->second + "'");
  return value;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string v = lower(it->second);
  if (v.empty() || v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  MINIM_REQUIRE(false, "option --" + key + " expects a boolean, got '" + it->second + "'");
  return fallback;  // unreachable
}

std::vector<std::string> Options::keys_outside(
    const std::vector<std::string>& known) const {
  std::vector<std::string> unknown;
  for (const auto& entry : values_)
    if (std::find(known.begin(), known.end(), entry.first) == known.end())
      unknown.push_back(entry.first);
  return unknown;
}

std::string Options::to_string() const {
  std::ostringstream os;
  for (const auto& [k, v] : values_) os << "--" << k << "=" << v << " ";
  for (const auto& p : positional_) os << p << " ";
  return os.str();
}

}  // namespace minim::util
