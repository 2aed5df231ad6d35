#pragma once

#include <functional>
#include <string>

#include "core/strategy.hpp"

/// \file factory.hpp
/// \brief Construct strategies by name for benches and examples.
///
/// `known_strategy_names()` lists every accepted name.

namespace minim::strategies {

/// Builds the named strategy; throws std::invalid_argument on unknown names.
core::StrategyPtr make_strategy(const std::string& name);

/// All names accepted by `make_strategy`, for help text.
std::string known_strategy_names();

/// Pluggable named-strategy constructor used by the experiment engines.
/// An empty (default-constructed) factory means `make_strategy`.  Tests
/// inject custom factories — e.g. deliberately invalid strategies to prove
/// the validate flag really runs the CA1/CA2 checks.
using StrategyFactory = std::function<core::StrategyPtr(const std::string&)>;

}  // namespace minim::strategies
