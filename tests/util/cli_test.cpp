#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace billcap::util {
namespace {

CliArgs parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgsTest, CommandAndPositionals) {
  const CliArgs args = parse({"simulate", "extra1", "extra2"});
  EXPECT_EQ(args.command(), "simulate");
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[1], "extra2");
}

TEST(CliArgsTest, FlagWithSeparateValue) {
  const CliArgs args = parse({"run", "--budget", "1.5e6"});
  EXPECT_TRUE(args.has("budget"));
  EXPECT_DOUBLE_EQ(args.get_double("budget", 0.0), 1.5e6);
}

TEST(CliArgsTest, FlagWithEqualsValue) {
  const CliArgs args = parse({"run", "--policy=3"});
  EXPECT_EQ(args.get_long("policy", 0), 3);
}

TEST(CliArgsTest, BareSwitch) {
  const CliArgs args = parse({"run", "--verbose", "--budget", "5"});
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("quiet"));
  EXPECT_DOUBLE_EQ(args.get_double("budget", 0.0), 5.0);
}

TEST(CliArgsTest, DefaultsWhenAbsent) {
  const CliArgs args = parse({"run"});
  EXPECT_EQ(args.get("name", "fallback"), "fallback");
  EXPECT_DOUBLE_EQ(args.get_double("x", 2.5), 2.5);
  EXPECT_EQ(args.get_long("n", 7), 7);
}

TEST(CliArgsTest, TypeErrorsThrow) {
  const CliArgs args = parse({"run", "--x", "abc"});
  EXPECT_THROW(args.get_double("x", 0.0), std::runtime_error);
  EXPECT_THROW(args.get_long("x", 0), std::runtime_error);
  EXPECT_THROW(args.get_bool("x"), std::runtime_error);
}

TEST(CliArgsTest, DoubleList) {
  const CliArgs args = parse({"run", "--budgets", "0.5e6,1e6,2.5e6"});
  const auto list = args.get_double_list("budgets", {});
  ASSERT_EQ(list.size(), 3u);
  EXPECT_DOUBLE_EQ(list[0], 0.5e6);
  EXPECT_DOUBLE_EQ(list[2], 2.5e6);
}

TEST(CliArgsTest, DoubleListErrors) {
  EXPECT_THROW(parse({"run", "--xs", "1,zz"}).get_double_list("xs", {}),
               std::runtime_error);
  const auto fallback =
      parse({"run"}).get_double_list("xs", {1.0, 2.0});
  EXPECT_EQ(fallback.size(), 2u);
}

TEST(CliArgsTest, NegativeNumbersAreValuesNotFlags) {
  const CliArgs args = parse({"run", "--delta", "-3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), -3.5);
}

TEST(CliArgsTest, EmptyArgv) {
  const CliArgs args = parse({});
  EXPECT_TRUE(args.command().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(CliArgsTest, GetProbAcceptsRangeAndFallsBack) {
  const CliArgs args = parse({"run", "--p", "0.25"});
  EXPECT_DOUBLE_EQ(args.get_prob("p", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(args.get_prob("absent", 0.5), 0.5);
  const CliArgs edges = parse({"run", "--lo", "0", "--hi", "1"});
  EXPECT_DOUBLE_EQ(edges.get_prob("lo", 0.5), 0.0);
  EXPECT_DOUBLE_EQ(edges.get_prob("hi", 0.5), 1.0);
}

TEST(CliArgsTest, GetProbRejectsOutOfRangeNanAndGarbage) {
  EXPECT_THROW(parse({"run", "--p", "-0.1"}).get_prob("p", 0.0), UsageError);
  EXPECT_THROW(parse({"run", "--p", "1.5"}).get_prob("p", 0.0), UsageError);
  EXPECT_THROW(parse({"run", "--p", "nan"}).get_prob("p", 0.0), UsageError);
  EXPECT_THROW(parse({"run", "--p", "abc"}).get_prob("p", 0.0), UsageError);
}

TEST(CliArgsTest, GetPositiveDoubleRejectsNonPositiveAndNonFinite) {
  const CliArgs ok = parse({"run", "--ms", "250.5"});
  EXPECT_DOUBLE_EQ(ok.get_positive_double("ms", 1.0), 250.5);
  EXPECT_THROW(parse({"run", "--ms", "0"}).get_positive_double("ms", 1.0),
               UsageError);
  EXPECT_THROW(parse({"run", "--ms", "-3"}).get_positive_double("ms", 1.0),
               UsageError);
  EXPECT_THROW(parse({"run", "--ms", "inf"}).get_positive_double("ms", 1.0),
               UsageError);
  EXPECT_THROW(parse({"run", "--ms", "nan"}).get_positive_double("ms", 1.0),
               UsageError);
}

TEST(CliArgsTest, GetPositiveLongRejectsZeroAndNegative) {
  const CliArgs ok = parse({"run", "--n", "4"});
  EXPECT_EQ(ok.get_positive_long("n", 1), 4);
  EXPECT_THROW(parse({"run", "--n", "0"}).get_positive_long("n", 1),
               UsageError);
  EXPECT_THROW(parse({"run", "--n", "-2"}).get_positive_long("n", 1),
               UsageError);
  EXPECT_THROW(parse({"run", "--n", "2.5"}).get_positive_long("n", 1),
               UsageError);
}

TEST(CliArgsTest, UsageErrorIsDistinguishableFromRuntimeError) {
  // main() maps UsageError to exit code 2 and other exceptions to 1, so
  // the validated getters must throw the distinct type.
  try {
    parse({"run", "--p", "2"}).get_prob("p", 0.0);
    FAIL() << "expected UsageError";
  } catch (const UsageError&) {
  } catch (const std::exception&) {
    FAIL() << "wrong exception type";
  }
}

constexpr std::string_view kRunFlags[] = {"budget", "checkpoint", "resume"};
constexpr std::string_view kExtraFlags[] = {"csv"};

TEST(CliArgsTest, RequireKnownAcceptsListedFlags) {
  const CliArgs args =
      parse({"run", "--budget", "5", "--resume", "--csv=out.csv"});
  EXPECT_NO_THROW(args.require_known({kRunFlags, kExtraFlags}));
  EXPECT_NO_THROW(parse({"run", "positional"}).require_known({kRunFlags}));
}

TEST(CliArgsTest, RequireKnownNamesTheUnknownFlag) {
  // The motivating typo: --checkpint silently ran a month without a
  // checkpoint and exited 0.
  const CliArgs args = parse({"run", "--budget", "2500000", "--checkpint",
                              "ck.j"});
  try {
    args.require_known({kRunFlags, kExtraFlags});
    FAIL() << "expected UsageError";
  } catch (const UsageError& e) {
    EXPECT_NE(std::string(e.what()).find("--checkpint"), std::string::npos)
        << e.what();
  }
  // A flag listed only in a table that is not passed is unknown too.
  EXPECT_THROW(parse({"run", "--csv", "x"}).require_known({kRunFlags}),
               UsageError);
  EXPECT_THROW(parse({"run", "--help"}).require_known({kRunFlags}),
               UsageError);
}

TEST(CliArgsTest, ListedSearchesEveryTable) {
  EXPECT_TRUE(CliArgs::listed("csv", {kRunFlags, kExtraFlags}));
  EXPECT_TRUE(CliArgs::listed("budget", {kRunFlags}));
  EXPECT_FALSE(CliArgs::listed("csv", {kRunFlags}));
  EXPECT_FALSE(CliArgs::listed("budge", {kRunFlags, kExtraFlags}));
  EXPECT_FALSE(CliArgs::listed("budget", {}));
}

}  // namespace
}  // namespace billcap::util
