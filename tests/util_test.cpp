#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.h"
#include "util/presets.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace dtr {
namespace {

// ---------------------------------------------------------------- Rng

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(2);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 2000; ++i) ++seen[rng.uniform_int(0, 4)];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW(rng.uniform_int(6, 5), std::invalid_argument);
}

TEST(RngTest, UniformIndexBounds) {
  Rng rng(4);
  for (int i = 0; i < 500; ++i) EXPECT_LT(rng.uniform_index(7), 7u);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(RngTest, UniformRealInHalfOpenInterval) {
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int differences = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform_int(0, 1 << 20) != b.uniform_int(0, 1 << 20)) ++differences;
  EXPECT_GT(differences, 40);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(9);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  // Children should have distinct streams from each other and the parent.
  int same12 = 0;
  for (int i = 0; i < 50; ++i)
    if (child1.uniform_int(0, 1 << 20) == child2.uniform_int(0, 1 << 20)) ++same12;
  EXPECT_LT(same12, 5);
}

TEST(RngTest, SplitDeterministicFromSeed) {
  Rng a(77), b(77);
  Rng ca = a.split(), cb = b.split();
  EXPECT_EQ(ca.uniform_int(0, 1 << 30), cb.uniform_int(0, 1 << 30));
}

TEST(RngTest, NormalMeanApproximately) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, NormalZeroStddevReturnsMean) {
  Rng rng(6);
  EXPECT_EQ(rng.normal(3.5, 0.0), 3.5);
}

TEST(RngTest, ChanceEdgeCases) {
  Rng rng(8);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
  EXPECT_FALSE(rng.chance(-0.5));
  EXPECT_TRUE(rng.chance(1.5));
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, MeanBasics) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(StatsTest, StddevKnownValue) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Sample stddev with n-1: variance = 32/7.
  EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, StddevDegenerate) {
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{}), 0.0);
}

TEST(StatsTest, LeftTailMeanTakesSmallestFraction) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  // Smallest 10% of 100 samples = {1..10}, mean 5.5.
  EXPECT_DOUBLE_EQ(left_tail_mean(xs, 0.10), 5.5);
}

TEST(StatsTest, LeftTailMeanAtLeastOneSample) {
  const std::vector<double> xs{3.0, 1.0, 2.0};
  // floor(0.1*3)=0 -> clamped to 1 sample -> min element.
  EXPECT_DOUBLE_EQ(left_tail_mean(xs, 0.10), 1.0);
}

TEST(StatsTest, LeftTailDoesNotMutateInput) {
  const std::vector<double> xs{5.0, 1.0, 3.0};
  auto copy = xs;
  left_tail_mean(xs, 0.5);
  EXPECT_EQ(xs, copy);
}

TEST(StatsTest, TopTailMeanTakesLargestFraction) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(top_tail_mean(xs, 0.10), 95.5);
}

TEST(StatsTest, TailFractionValidation) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(left_tail_mean(xs, -0.1), std::invalid_argument);
  EXPECT_THROW(left_tail_mean(xs, 1.1), std::invalid_argument);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
}

TEST(StatsTest, QuantileValidation) {
  EXPECT_THROW(quantile(std::vector<double>{1.0}, 1.5), std::invalid_argument);
}

TEST(StatsTest, MaxValue) {
  EXPECT_DOUBLE_EQ(max_value(std::vector<double>{1.0, 9.0, 3.0}), 9.0);
  EXPECT_DOUBLE_EQ(max_value(std::vector<double>{}), 0.0);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
}

TEST(StatsTest, RunningStatsEmpty) {
  RunningStats rs;
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

// ---------------------------------------------------------------- table

TEST(TableTest, PrintsAlignedColumnsAndSeparator) {
  Table t({"name", "value"});
  t.row().cell("alpha").num(1.5, 1);
  t.row().cell("b").integer(42);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.5"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
}

TEST(TableTest, MeanStdFormatting) {
  Table t({"x"});
  t.row().mean_std(1.234, 0.567, 2);
  std::ostringstream os;
  t.print(os);
  EXPECT_NE(os.str().find("1.23 (0.57)"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell("x").cell("y");
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\nx,y\n");
}

TEST(TableTest, RowCount) {
  Table t({"a"});
  EXPECT_EQ(t.row_count(), 0u);
  t.row().cell("1");
  t.row().cell("2");
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(2.0, 0), "2");
}

// ---------------------------------------------------------------- presets

TEST(PresetsTest, EffortFromEnvDefaults) {
  unsetenv("DTR_EFFORT");
  EXPECT_EQ(effort_from_env(Effort::kQuick), Effort::kQuick);
  EXPECT_EQ(effort_from_env(Effort::kSmoke), Effort::kSmoke);
}

TEST(PresetsTest, EffortFromEnvParses) {
  setenv("DTR_EFFORT", "full", 1);
  EXPECT_EQ(effort_from_env(Effort::kQuick), Effort::kFull);
  setenv("DTR_EFFORT", "smoke", 1);
  EXPECT_EQ(effort_from_env(Effort::kQuick), Effort::kSmoke);
  setenv("DTR_EFFORT", "bogus", 1);
  EXPECT_EQ(effort_from_env(Effort::kQuick), Effort::kQuick);
  unsetenv("DTR_EFFORT");
}

TEST(PresetsTest, RepeatsFromEnv) {
  unsetenv("DTR_REPEATS");
  EXPECT_EQ(repeats_from_env(5), 5);
  setenv("DTR_REPEATS", "3", 1);
  EXPECT_EQ(repeats_from_env(5), 3);
  setenv("DTR_REPEATS", "-2", 1);
  EXPECT_EQ(repeats_from_env(5), 5);
  unsetenv("DTR_REPEATS");
}

TEST(PresetsTest, SeedFromEnv) {
  unsetenv("DTR_SEED");
  EXPECT_EQ(seed_from_env(11ull), 11ull);
  setenv("DTR_SEED", "123", 1);
  EXPECT_EQ(seed_from_env(11ull), 123ull);
  unsetenv("DTR_SEED");
}

TEST(PresetsTest, NodesFromEnv) {
  unsetenv("DTR_NODES");
  EXPECT_EQ(nodes_from_env(16), 16);
  setenv("DTR_NODES", "30", 1);
  EXPECT_EQ(nodes_from_env(16), 30);
  setenv("DTR_NODES", "2", 1);  // below minimum -> fallback
  EXPECT_EQ(nodes_from_env(16), 16);
  unsetenv("DTR_NODES");
}

TEST(PresetsTest, ToString) {
  EXPECT_EQ(to_string(Effort::kSmoke), "smoke");
  EXPECT_EQ(to_string(Effort::kQuick), "quick");
  EXPECT_EQ(to_string(Effort::kFull), "full");
}

TEST(PresetsTest, ParseEffortInvertsToString) {
  for (const Effort e : {Effort::kSmoke, Effort::kQuick, Effort::kFull})
    EXPECT_EQ(parse_effort(to_string(e)), e);
  EXPECT_FALSE(parse_effort("warp").has_value());
  EXPECT_FALSE(parse_effort("").has_value());
}

// ---------------------------------------------------------------- cli

TEST(CliTest, StrictInt) {
  EXPECT_EQ(cli::parse_int("8"), 8);
  EXPECT_EQ(cli::parse_int("-3"), -3);
  EXPECT_FALSE(cli::parse_int("8abc").has_value());  // no silent truncation
  EXPECT_FALSE(cli::parse_int("12x7").has_value());
  EXPECT_FALSE(cli::parse_int("").has_value());
  EXPECT_FALSE(cli::parse_int("eight").has_value());
  EXPECT_FALSE(cli::parse_int("3.5").has_value());
  EXPECT_FALSE(cli::parse_int("99999999999").has_value());  // beyond int
}

TEST(CliTest, StrictDouble) {
  EXPECT_EQ(cli::parse_double("0.25"), 0.25);
  EXPECT_EQ(cli::parse_double("1e3"), 1000.0);
  EXPECT_FALSE(cli::parse_double("3x").has_value());
  EXPECT_FALSE(cli::parse_double("0.1.5").has_value());
  EXPECT_FALSE(cli::parse_double("").has_value());
  for (const char* non_finite : {"nan", "inf", "-inf", "1e999"})
    EXPECT_FALSE(cli::parse_double(non_finite).has_value()) << non_finite;
}

TEST(CliTest, FlagDoublesLeaveFinitenessToTheConsumer) {
  EXPECT_EQ(cli::to_double("2.5"), 2.5);
  EXPECT_TRUE(std::isinf(cli::to_double("inf")));
  EXPECT_TRUE(std::isnan(cli::to_double("nan")));
  EXPECT_THROW(cli::to_double("3x"), cli::Error);
  EXPECT_THROW(cli::to_double(""), cli::Error);
}

TEST(CliTest, StrictU64) {
  EXPECT_EQ(cli::parse_u64("18446744073709551615"), 18446744073709551615ull);
  EXPECT_EQ(cli::parse_u64("0"), 0u);
  EXPECT_FALSE(cli::parse_u64("-1").has_value());  // would wrap mod 2^64
  EXPECT_FALSE(cli::parse_u64(" -1").has_value());
  EXPECT_FALSE(cli::parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(cli::parse_u64("7s").has_value());
}

TEST(CliTest, Range) {
  constexpr cli::Range<int> kCount{0, 4096};
  EXPECT_EQ(cli::to_int("0", kCount), 0);
  EXPECT_EQ(cli::to_int("4096", kCount), 4096);
  EXPECT_THROW(cli::to_int("4097", kCount), cli::Error);
  EXPECT_THROW(cli::to_int("-1", kCount), cli::Error);
  constexpr cli::Range<double> kUnit{0.0, 1.0};
  EXPECT_TRUE(kUnit.contains(1.0));
  EXPECT_FALSE(kUnit.contains(1.5));
  EXPECT_FALSE(kUnit.contains(std::nan("")));
  EXPECT_EQ(cli::describe(kCount), "in [0, 4096]");
  EXPECT_EQ(cli::describe(cli::Range<int>{.min = 1}), ">= 1");
  EXPECT_EQ(cli::describe(cli::Range<double>{.max = 2.5}), "<= 2.5");
  try {
    cli::to_int("9000", kCount);
    FAIL() << "expected a range error";
  } catch (const cli::Error& e) {
    EXPECT_STREQ(e.what(), "must be in [0, 4096], got '9000'");
  }
}

/// A small command: --n N, --x X, the --on switch, and one positional.
struct CliFixture {
  int n = 0;
  double x = 0.0;
  bool on = false;
  std::vector<std::string> order;
  std::string file;
  cli::Command command{
      "tool [flags] FILE",
      {{"--n", "N", "an integer",
        [this](std::string_view v) {
          n = cli::to_int(v);
          order.emplace_back("n");
        }},
       {"--x", "X", "a number", [this](std::string_view v) { x = cli::to_double(v); }},
       {"--on", "", "a switch",
        [this](std::string_view) {
          on = true;
          order.emplace_back("on");
        }}},
      {{"FILE", "", "the input", [this](std::string_view v) { file = v; }}}};

  cli::Parsed parse(std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return cli::parse(command, static_cast<int>(args.size()), args.data());
  }
  std::string error(std::vector<const char*> args) {
    try {
      parse(std::move(args));
    } catch (const cli::Error& e) {
      return e.what();
    }
    return "no error";
  }
};

TEST(CliTest, AppliesFlagsSwitchesAndPositionalsInArgvOrder) {
  CliFixture f;
  EXPECT_EQ(f.parse({"--on", "in.txt", "--n", "3", "--x", "0.5", "--n", "7"}), cli::Parsed::kOk);
  EXPECT_TRUE(f.on);
  EXPECT_EQ(f.n, 7);  // the last occurrence wins
  EXPECT_EQ(f.x, 0.5);
  EXPECT_EQ(f.file, "in.txt");
  EXPECT_EQ(f.order, (std::vector<std::string>{"on", "n", "n"}));
}

TEST(CliTest, RejectsBadInputNamingTheFlag) {
  CliFixture f;
  EXPECT_EQ(f.error({"--n", "8abc"}), "--n must be an integer, got '8abc'");
  EXPECT_EQ(f.error({"--x", "0.5.1"}), "--x must be a number, got '0.5.1'");
  EXPECT_EQ(f.error({"--bogus"}), "unknown flag: --bogus");
  EXPECT_EQ(f.error({"--n"}), "--n needs a value");
  EXPECT_EQ(f.error({"a", "b"}), "unexpected argument: b");
  EXPECT_EQ(f.error({"--on", "-1"}), "unknown flag: -1");
}

TEST(CliTest, HelpWinsWithoutApplyingAnything) {
  for (const char* help : {"--help", "-h"}) {
    CliFixture f;
    EXPECT_EQ(f.parse({"--n", "3", help, "--bogus"}), cli::Parsed::kHelp);
    EXPECT_EQ(f.n, 0);
  }
}

TEST(CliTest, UsageListsEveryFlag) {
  CliFixture f;
  std::ostringstream os;
  cli::print_usage(os, f.command);
  const std::string usage = os.str();
  EXPECT_EQ(usage.rfind("Usage: tool [flags] FILE\n", 0), 0u) << usage;
  for (const char* line : {"  --n N", "  --x X", "  --on ", "  FILE "})
    EXPECT_NE(usage.find(line), std::string::npos) << line << "\n" << usage;
}

TEST(CliTest, JoinConcatenatesGroups) {
  const cli::Flags joined = cli::join({cli::Flags{{"--a", "", "", {}}},
                                       cli::Flags{{"--b", "", "", {}}, {"--c", "", "", {}}}});
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined[2].name, "--c");
}

}  // namespace
}  // namespace dtr
