#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

/// The one command-line layer behind every binary in the repo: strict value
/// parsers (shared with the campaign spec reader) and a table-driven flag
/// parser. A command is a table of flags, each with a value placeholder (or
/// none, for a switch), one help line and an apply callback; `parse` applies
/// them in argv order and `print_usage` renders the same table as help.
namespace dtr::cli {

/// Every command-line input error. Derives from std::invalid_argument so the
/// front ends' "input error => exit 2" handlers catch it unchanged.
struct Error : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Inclusive bounds for a parsed value; the defaults admit everything.
template <typename T>
struct Range {
  T min = std::numeric_limits<T>::lowest();
  T max = std::numeric_limits<T>::max();
  bool contains(T v) const { return v >= min && v <= max; }
};

/// ">= 1", "<= 9" or "in [0, 4096]" — reads after "must be".
std::string describe(Range<int> range);
std::string describe(Range<double> range);

// ---- strict value parsers: the WHOLE token must parse (no silently
// truncated "12x7") and unsigned values reject a minus sign instead of
// wrapping it modulo 2^64. nullopt otherwise.

std::optional<int> parse_int(std::string_view text);
/// Finite only: NaN would slip past every later range check.
std::optional<double> parse_double(std::string_view text);
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Throwing forms for flag callbacks. The reason reads after the flag name
/// ("must be an integer, got '8abc'"); `parse` prefixes the name.
int to_int(std::string_view text, Range<int> range = {});
std::uint64_t to_u64(std::string_view text);
/// Any whole-token double, inf and nan included: finiteness and ranges
/// belong to the layer that consumes the value (the generators, traffic
/// scaling and the optimizer reject non-finite input with their own
/// messages).
double to_double(std::string_view text);

/// Throws Error("must be <expected>, got '<text>'").
[[noreturn]] void reject(std::string_view expected, std::string_view text);

// ---- the flag table

struct Flag {
  std::string name;   ///< "--nodes"; for a positional, its placeholder ("FILE")
  std::string value;  ///< value placeholder ("N"); empty = switch
  std::string help;   ///< one line
  /// Receives the value ("" for a switch); throws Error (or calls reject)
  /// with a reason that reads after the flag name.
  std::function<void(std::string_view)> apply;
};
using Flags = std::vector<Flag>;

/// Entries for the common case: the flag parses its value into `out`
/// (to_int / to_double / to_u64 / verbatim), or sets the switch to true.
Flag value(std::string name, std::string placeholder, std::string help, int& out,
           Range<int> range = {});
Flag value(std::string name, std::string placeholder, std::string help, double& out);
Flag value(std::string name, std::string placeholder, std::string help, std::uint64_t& out);
Flag value(std::string name, std::string placeholder, std::string help, std::string& out);
Flag toggle(std::string name, std::string help, bool& out);

/// Concatenates flag groups into one table.
Flags join(std::vector<Flags> groups);

struct Command {
  std::string synopsis;  ///< usage line, e.g. "dtr_tool tail FILE [--follow]"
  Flags flags;
  /// Positional arguments, consumed in order; a surplus one is an error.
  Flags positionals = {};
};

enum class Parsed { kOk, kHelp };

/// Applies argv[first, argc) to `command` in argv order. `--help` / `-h`
/// anywhere returns kHelp before anything is applied. Throws Error on an
/// unknown flag, a missing value, a surplus positional, or a value its flag
/// rejects (the message names the flag).
Parsed parse(const Command& command, int argc, const char* const* argv, int first = 1);

/// Writes the synopsis and one aligned line per flag.
void print_usage(std::ostream& os, const Command& command);

/// Prints "<program>: <message>" and a --help hint to stderr, exits 2.
[[noreturn]] void usage_error(std::string_view program, std::string_view message);

/// `parse` for single-command binaries: help prints the usage to stdout and
/// exits 0; an error goes through `usage_error` (exit 2).
void parse_or_exit(std::string_view program, const Command& command, int argc,
                   const char* const* argv);

}  // namespace dtr::cli
