#include "util/cli.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>

namespace dtr::cli {

namespace {

template <typename T>
std::string describe_range(Range<T> range) {
  constexpr Range<T> all{};
  std::ostringstream os;
  if (range.max == all.max) os << ">= " << range.min;
  else if (range.min == all.min) os << "<= " << range.max;
  else os << "in [" << range.min << ", " << range.max << "]";
  return os.str();
}

/// Runs a strtoX-style conversion over the whole token: nullopt unless every
/// character was consumed and the value did not overflow.
template <typename T, typename Convert>
std::optional<T> convert_whole(std::string_view text, Convert convert) {
  if (text.empty()) return std::nullopt;
  const std::string token(text);
  char* end = nullptr;
  errno = 0;
  const T value = convert(token.c_str(), &end);
  if (errno == ERANGE || end != token.c_str() + token.size()) return std::nullopt;
  return value;
}

/// Whole-token strtod; the result may be inf or nan.
std::optional<double> parse_number(std::string_view text) {
  return convert_whole<double>(text,
                               [](const char* s, char** end) { return std::strtod(s, end); });
}

const Flag* find_flag(const Flags& flags, std::string_view name) {
  const auto it =
      std::find_if(flags.begin(), flags.end(), [&](const Flag& f) { return f.name == name; });
  return it == flags.end() ? nullptr : &*it;
}

}  // namespace

std::string describe(Range<int> range) { return describe_range(range); }
std::string describe(Range<double> range) { return describe_range(range); }

std::optional<int> parse_int(std::string_view text) {
  const auto v = convert_whole<long>(
      text, [](const char* s, char** end) { return std::strtol(s, end, 10); });
  if (!v || *v < std::numeric_limits<int>::min() || *v > std::numeric_limits<int>::max())
    return std::nullopt;
  return static_cast<int>(*v);
}

std::optional<double> parse_double(std::string_view text) {
  const auto v = parse_number(text);
  if (!v || !std::isfinite(*v)) return std::nullopt;
  return v;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  const auto sign = text.find_first_not_of(" \t\n\v\f\r");
  if (sign != std::string_view::npos && text[sign] == '-') return std::nullopt;
  return convert_whole<std::uint64_t>(
      text, [](const char* s, char** end) { return std::strtoull(s, end, 10); });
}

void reject(std::string_view expected, std::string_view text) {
  throw Error("must be " + std::string(expected) + ", got '" + std::string(text) + "'");
}

int to_int(std::string_view text, Range<int> range) {
  const auto v = parse_int(text);
  if (!v) reject("an integer", text);
  if (!range.contains(*v)) reject(describe(range), text);
  return *v;
}

std::uint64_t to_u64(std::string_view text) {
  const auto v = parse_u64(text);
  if (!v) reject("a non-negative integer", text);
  return *v;
}

double to_double(std::string_view text) {
  const auto v = parse_number(text);
  if (!v) reject("a number", text);
  return *v;
}

Flag value(std::string name, std::string placeholder, std::string help, int& out,
           Range<int> range) {
  return {std::move(name), std::move(placeholder), std::move(help),
          [&out, range](std::string_view v) { out = to_int(v, range); }};
}

Flag value(std::string name, std::string placeholder, std::string help, double& out) {
  return {std::move(name), std::move(placeholder), std::move(help),
          [&out](std::string_view v) { out = to_double(v); }};
}

Flag value(std::string name, std::string placeholder, std::string help, std::uint64_t& out) {
  return {std::move(name), std::move(placeholder), std::move(help),
          [&out](std::string_view v) { out = to_u64(v); }};
}

Flag value(std::string name, std::string placeholder, std::string help, std::string& out) {
  return {std::move(name), std::move(placeholder), std::move(help),
          [&out](std::string_view v) { out = v; }};
}

Flag toggle(std::string name, std::string help, bool& out) {
  return {std::move(name), "", std::move(help), [&out](std::string_view) { out = true; }};
}

Flags join(std::vector<Flags> groups) {
  Flags all;
  for (Flags& group : groups)
    all.insert(all.end(), std::make_move_iterator(group.begin()),
               std::make_move_iterator(group.end()));
  return all;
}

Parsed parse(const Command& command, int argc, const char* const* argv, int first) {
  // Resolve the whole line before applying anything, so --help never runs
  // behind a half-applied command line.
  std::vector<std::pair<const Flag*, std::string_view>> applied;
  std::size_t positional = 0;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") return Parsed::kHelp;
    if (arg.size() > 1 && arg[0] == '-') {
      const Flag* flag = find_flag(command.flags, arg);
      if (flag == nullptr) throw Error("unknown flag: " + std::string(arg));
      if (flag->value.empty()) {
        applied.emplace_back(flag, std::string_view());
        continue;
      }
      if (i + 1 >= argc) throw Error(std::string(arg) + " needs a value");
      applied.emplace_back(flag, argv[++i]);
    } else {
      if (positional >= command.positionals.size())
        throw Error("unexpected argument: " + std::string(arg));
      applied.emplace_back(&command.positionals[positional++], arg);
    }
  }
  for (const auto& [flag, value] : applied) {
    try {
      flag->apply(value);
    } catch (const Error& e) {
      throw Error(flag->name + " " + e.what());
    }
  }
  return Parsed::kOk;
}

void print_usage(std::ostream& os, const Command& command) {
  // Help text starts in one column; a longer flag gets a line of its own.
  constexpr std::size_t kMaxWidth = 28;
  const auto left = [](const Flag& f) { return f.value.empty() ? f.name : f.name + " " + f.value; };
  std::size_t width = 0;
  for (const Flags* table : {&command.positionals, &command.flags})
    for (const Flag& f : *table) width = std::max(width, std::min(left(f).size(), kMaxWidth));
  os << "Usage: " << command.synopsis << "\n";
  for (const Flags* table : {&command.positionals, &command.flags}) {
    for (const Flag& f : *table) {
      const std::string text = left(f);
      os << "  " << text;
      if (text.size() > width) os << "\n  " << std::string(width, ' ');
      else os << std::string(width - text.size(), ' ');
      os << "  " << f.help << "\n";
    }
  }
}

void usage_error(std::string_view program, std::string_view message) {
  std::cerr << program << ": " << message << "\n(run " << program << " --help for usage)\n";
  std::exit(2);
}

void parse_or_exit(std::string_view program, const Command& command, int argc,
                   const char* const* argv) {
  try {
    if (parse(command, argc, argv) == Parsed::kHelp) {
      print_usage(std::cout, command);
      std::exit(0);
    }
  } catch (const Error& e) {
    usage_error(program, e.what());
  }
}

}  // namespace dtr::cli
