#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace dtr {

/// Experiment effort levels. The paper's search budgets take hours-to-days per
/// table cell; presets scale iteration counts while keeping every parameter
/// *ratio* (q, z, chi, tail fraction, |Ec|/|E|, ...) at its paper value.
enum class Effort {
  kSmoke,  ///< seconds per cell — CI / ctest integration level
  kQuick,  ///< default for bench binaries — minutes per table
  kFull,   ///< paper-scale budgets — hours
};

/// Reads DTR_EFFORT (smoke|quick|full) from the environment; defaults to
/// `fallback` when unset or unrecognized.
Effort effort_from_env(Effort fallback = Effort::kQuick);

/// Reads DTR_REPEATS; defaults to `fallback` (the paper repeats 5x).
int repeats_from_env(int fallback);

/// Reads DTR_SEED; defaults to `fallback`.
unsigned long long seed_from_env(unsigned long long fallback);

/// Reads DTR_NODES (synthesized-topology size override); defaults to
/// `fallback`. Lets benches run paper-size topologies (30 nodes) under
/// quick search budgets, or tiny ones for smoke runs.
int nodes_from_env(int fallback);

std::string to_string(Effort e);
/// Inverse of to_string; nullopt on an unknown name.
std::optional<Effort> parse_effort(std::string_view text);

}  // namespace dtr
