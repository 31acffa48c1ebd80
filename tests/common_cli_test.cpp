#include "tokenring/common/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "tokenring/common/checks.hpp"

namespace tokenring {
namespace {

// Helper building a mutable argv from string literals.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(Cli, DefaultsApplyWithoutArgs) {
  CliFlags flags;
  flags.declare("sets", "100", "number of sets");
  Argv a({"prog"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kOk);
  EXPECT_EQ(flags.get_int("sets"), 100);
}

TEST(Cli, EqualsSyntax) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--sets=25"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kOk);
  EXPECT_EQ(flags.get_int("sets"), 25);
}

TEST(Cli, SpaceSyntax) {
  CliFlags flags;
  flags.declare("seed", "1", "");
  Argv a({"prog", "--seed", "777"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kOk);
  EXPECT_EQ(flags.get_int("seed"), 777);
}

TEST(Cli, UnknownFlagRejected) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--bogus=1"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kError);
}

TEST(Cli, MissingValueRejected) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--sets"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kError);
}

TEST(Cli, PositionalRejected) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "17"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kError);
}

TEST(Cli, HelpShortCircuits) {
  CliFlags flags;
  flags.declare("sets", "100", "");
  Argv a({"prog", "--help"});
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kHelp);
}

TEST(Cli, ParseDetailedDistinguishesHelpFromErrors) {
  // --help is a successful outcome (the caller exits 0); unknown flags and
  // missing values are errors (exit 1).
  CliFlags flags;
  flags.declare("sets", "100", "");
  {
    Argv a({"prog", "--help"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kHelp);
  }
  {
    Argv a({"prog", "--bogus=1"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kError);
  }
  {
    Argv a({"prog", "--sets"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kError);
  }
  {
    Argv a({"prog", "--sets=7"});
    EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    EXPECT_EQ(flags.get_int("sets"), 7);
  }
}

TEST(Cli, TypedAccessors) {
  CliFlags flags;
  flags.declare("d", "2.5", "");
  flags.declare("b", "true", "");
  flags.declare("s", "hello", "");
  Argv a({"prog"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kOk);
  EXPECT_DOUBLE_EQ(flags.get_double("d"), 2.5);
  EXPECT_TRUE(flags.get_bool("b"));
  EXPECT_EQ(flags.get_string("s"), "hello");
}

TEST(Cli, BadTypeThrows) {
  CliFlags flags;
  flags.declare("d", "abc", "");
  Argv a({"prog"});
  ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kOk);
  EXPECT_THROW(flags.get_double("d"), PreconditionError);
  EXPECT_THROW(flags.get_int("d"), PreconditionError);
  EXPECT_THROW(flags.get_bool("d"), PreconditionError);
}

TEST(Cli, UndeclaredAccessThrows) {
  CliFlags flags;
  EXPECT_THROW(flags.get_string("nope"), PreconditionError);
}

TEST(Cli, DoubleDeclarationThrows) {
  CliFlags flags;
  flags.declare("x", "1", "");
  EXPECT_THROW(flags.declare("x", "2", ""), PreconditionError);
}

TEST(Cli, BatchFlagDefaultsValidatesAndWarns) {
  {
    CliFlags flags;
    declare_batch_flag(flags);
    Argv a({"prog"});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    EXPECT_EQ(get_batch(flags), 64u);
  }
  {
    CliFlags flags;
    declare_batch_flag(flags);
    Argv a({"prog", "--batch=8"});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    EXPECT_EQ(get_batch(flags), 8u);
  }
  {
    CliFlags flags;
    declare_batch_flag(flags);
    Argv a({"prog", "--batch=0"});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    EXPECT_THROW(get_batch(flags), PreconditionError);
  }
  {
    // Oversized batches are accepted: a batch group is min(batch, trials)
    // lanes wide.
    CliFlags flags;
    declare_batch_flag(flags);
    Argv a({"prog", "--batch=256"});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    EXPECT_EQ(get_batch(flags), 256u);
  }
}

/// Flags parsed from `--name=value` pairs, for the getter tests below.
CliFlags parsed(const std::vector<std::pair<std::string, std::string>>& kv) {
  CliFlags flags;
  std::vector<std::string> args = {"prog"};
  for (const auto& [name, value] : kv) {
    flags.declare(name, "0", "");
    args.push_back("--" + name + "=" + value);
  }
  Argv a(args);
  EXPECT_EQ(flags.parse_detailed(a.argc(), a.argv()),
            CliFlags::ParseOutcome::kOk);
  return flags;
}

/// The PreconditionError message get(flags) throws, or "" if none.
template <typename Get>
std::string error_of(Get get) {
  try {
    get();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, NumbersMustBeTheWholeValue) {
  const CliFlags flags = parsed({{"sets", "1e3"},
                                 {"bw", "100x"},
                                 {"pad", " 42 "},
                                 {"sci", "1e3"},
                                 {"neg", "-7"},
                                 {"big", "9223372036854775808"},
                                 {"empty", ""}});
  // Trailing text is an error, never ignored: --sets=1e3 must not run 1 set.
  const std::string sets = error_of([&] { flags.get_int("sets"); });
  EXPECT_NE(sets.find("flag --sets is not an integer: 1e3"), std::string::npos)
      << sets;
  const std::string bw = error_of([&] { flags.get_double("bw"); });
  EXPECT_NE(bw.find("flag --bw is not a number: 100x"), std::string::npos)
      << bw;
  EXPECT_THROW(flags.get_int("big"), PreconditionError);  // > INT64_MAX
  EXPECT_THROW(flags.get_int("empty"), PreconditionError);
  EXPECT_THROW(flags.get_double("empty"), PreconditionError);
  // Surrounding blanks, signs and exponents stay valid where they are
  // numbers of the requested kind.
  EXPECT_EQ(flags.get_int("pad"), 42);
  EXPECT_DOUBLE_EQ(flags.get_double("pad"), 42.0);
  EXPECT_DOUBLE_EQ(flags.get_double("sci"), 1000.0);
  EXPECT_EQ(flags.get_int("neg"), -7);
}

TEST(Cli, RangeCheckedIntAcceptsItsBoundsAndNamesTheFlag) {
  const CliFlags flags = parsed({{"lo", "0"},
                                 {"hi", "65535"},
                                 {"over", "70000"},
                                 {"under", "-1"},
                                 {"int-max", "2147483647"},
                                 {"wraps", "4294967297"},
                                 {"seed", "-1"}});
  EXPECT_EQ(flags.get_int("lo", 0, 65535), 0);
  EXPECT_EQ(flags.get_int("hi", 0, 65535), 65535);
  EXPECT_EQ(flags.get_int("int-max", 0, 2147483647), 2147483647);
  const std::string over = error_of([&] { flags.get_int("over", 0, 65535); });
  EXPECT_NE(over.find("flag --over must be in [0, 65535]: 70000"),
            std::string::npos)
      << over;
  EXPECT_THROW(flags.get_int("under", 0, 65535), PreconditionError);
  // Refused, not narrowed: as an int, 4294967297 would read as 1.
  EXPECT_THROW(flags.get_int("wraps", 0, 2147483647), PreconditionError);
  // The count and seed readers of the bench and example binaries.
  EXPECT_EQ(get_count(flags, "int-max"), 2147483647);
  EXPECT_NE(error_of([&] { get_count(flags, "lo"); })
                .find("flag --lo must be in [1, 2147483647]: 0"),
            std::string::npos);
  EXPECT_THROW(get_count(flags, "wraps"), PreconditionError);
  EXPECT_NE(error_of([&] { get_seed(flags); }).find("flag --seed"),
            std::string::npos);
}

TEST(Cli, JobsAndBatchUseTheRangeCheckedGetter) {
  {
    CliFlags flags;
    declare_jobs_flag(flags);
    Argv a({"prog", "--jobs=0"});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    EXPECT_EQ(get_jobs(flags), 0u);  // boundary: hardware concurrency
  }
  for (const char* bad : {"--jobs=-1", "--jobs=2x", "--jobs=4294967297"}) {
    CliFlags flags;
    declare_jobs_flag(flags);
    Argv a({"prog", bad});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    const std::string what = error_of([&] { get_jobs(flags); });
    EXPECT_NE(what.find("flag --jobs"), std::string::npos) << bad;
  }
  {
    CliFlags flags;
    declare_batch_flag(flags);
    Argv a({"prog", "--batch=1"});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    EXPECT_EQ(get_batch(flags), 1u);  // boundary
  }
  {
    CliFlags flags;
    declare_batch_flag(flags);
    Argv a({"prog", "--batch=8.5"});
    ASSERT_EQ(flags.parse_detailed(a.argc(), a.argv()),
              CliFlags::ParseOutcome::kOk);
    const std::string what = error_of([&] { get_batch(flags); });
    EXPECT_NE(what.find("flag --batch"), std::string::npos) << what;
  }
}

TEST(Cli, DoubleListRejectsNonNumbersNamingTheFlag) {
  const CliFlags flags = parsed({{"bandwidths-mbps", "4,x"}, {"ok", "4, 16"}});
  // A PreconditionError naming the flag, which the tool reports and exits 1.
  const std::string what =
      error_of([&] { flags.get_double_list("bandwidths-mbps"); });
  EXPECT_NE(what.find("flag --bandwidths-mbps"), std::string::npos) << what;
  EXPECT_EQ(flags.get_double_list("ok"), (std::vector<double>{4.0, 16.0}));
  EXPECT_THROW(parse_double_list("1,2x"), PreconditionError);
}

TEST(Cli, ParseDoubleList) {
  const auto v = parse_double_list("1,2.5,100");
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.0);
  EXPECT_DOUBLE_EQ(v[1], 2.5);
  EXPECT_DOUBLE_EQ(v[2], 100.0);
}

TEST(Cli, ParseDoubleListSkipsEmpty) {
  const auto v = parse_double_list("1,,2,");
  ASSERT_EQ(v.size(), 2u);
}

TEST(Cli, ParseDoubleListEmptyString) {
  EXPECT_TRUE(parse_double_list("").empty());
}

}  // namespace
}  // namespace tokenring
