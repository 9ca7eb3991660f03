// The tools' command-line parser (common/flags.h): value forms, the
// "requires a value" and did-you-mean paths, each value kind's rejection
// message and floor, list splitting, the mode rule and the "given" record.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/flags.h"

namespace ndp {
namespace {

constexpr unsigned kBatch = 1, kServe = 2;

/// One flag of each kind, bound to its own field.
struct Tool {
  unsigned jobs = 1, repeat = 1;
  std::uint16_t port = 0;
  double scale = 0;
  bool stats = false;
  std::string out = "-", bypass, shard;
  std::vector<unsigned> cores{4};
  std::vector<std::string> mechanisms{"ndpage"}, positionals;
  int listed = 0;
  std::size_t selection = 0;
  Flags flags{"[options]", "exit codes: 0 ok, 2 usage\n", {"batch", "--serve"}};

  Tool() {
    flags.number("--jobs", Flags::kAll, "N", &jobs, 0, "a number", "threads");
    flags.number("--repeat", kBatch, "N", &repeat, 1, "a positive number",
                 "runs");
    flags.text("--out", kBatch, "PATH", &out, "output file");
    flags.toggle("--stats", kBatch, &stats, "dump counters");
    flags.section("serving");
    flags.number("--port", kServe, "P", &port, 0, "a port number", "port");
    selection = flags.section("selection");
    flags.number("--scale", kBatch, "F", &scale,
                 std::numeric_limits<double>::lowest(), "a number", "scale");
    flags.numbers("--cores", kBatch, "N[,N...]", &cores,
                  "a comma-separated list of core counts", "core counts");
    flags.list("--mechanism", kBatch, "SPEC[,...]", &mechanisms,
               "mechanisms");
    flags.choice("--bypass", kBatch, {"on", "off"}, &bypass, "bypass");
    flags.text("--shard", kBatch, "I/N", "I/N with 0 <= I < N",
               [this](const std::string& v) {
                 shard = v;
                 return v.find('/') != std::string::npos;
               },
               "shard");
    flags.action("--list", [this] { ++listed; }, "list and exit");
  }

  // The flags hold pointers into this object.
  Tool(const Tool&) = delete;
  Tool& operator=(const Tool&) = delete;

  std::optional<int> parse(std::vector<std::string> args) {
    std::string program = "tool";
    std::vector<char*> argv{program.data()};
    for (std::string& a : args) argv.push_back(a.data());
    return flags.parse(static_cast<int>(argv.size()), argv.data());
  }
};

TEST(Flags, TakesValuesInBothForms) {
  Tool t;
  EXPECT_EQ(t.parse({"--jobs=4", "--out", "r.json", "--stats"}), std::nullopt);
  EXPECT_EQ(t.jobs, 4u);
  EXPECT_EQ(t.out, "r.json");
  EXPECT_TRUE(t.stats);
  // Everything after the first '=' is the value, '=' included.
  EXPECT_EQ(t.parse({"--mechanism=ech(ways=4,probes=2),radix"}), std::nullopt);
  EXPECT_EQ(t.mechanisms,
            (std::vector<std::string>{"ech(ways=4,probes=2)", "radix"}));
}

TEST(Flags, ValueFlagEndingArgvRequiresAValue) {
  Tool t;
  EXPECT_EQ(t.parse({"--stats", "--out"}), 2);
  EXPECT_EQ(t.flags.error(), "option '--out' requires a value");
  // The space form takes the next argument whatever it looks like.
  Tool u;
  EXPECT_EQ(u.parse({"--out", "--stats"}), std::nullopt);
  EXPECT_EQ(u.out, "--stats");
  EXPECT_FALSE(u.stats);
}

TEST(Flags, UnknownFlagSuggestsTheClosestOrPrintsUsage) {
  Tool t;
  EXPECT_EQ(t.parse({"--jbos=3"}), 2);
  EXPECT_EQ(t.flags.error(),
            "unknown option '--jbos=3'; did you mean '--jobs'?");
  Tool u;
  EXPECT_EQ(u.parse({"--hepl"}), 2);
  EXPECT_EQ(u.flags.error(), "unknown option '--hepl'; did you mean '--help'?");
  Tool v;
  EXPECT_EQ(v.parse({"--zzzzzzzzzz"}), 2);
  EXPECT_EQ(
      v.flags.error().rfind("unknown option '--zzzzzzzzzz'\n\nusage: ", 0), 0u)
      << v.flags.error();
  // Without a positional sink a bare word is an unknown flag too.
  Tool w;
  EXPECT_EQ(w.parse({"stray"}), 2);
}

TEST(Flags, EachKindRejectsWithItsTakesMessage) {
  const struct {
    const char* arg;
    const char* error;
  } cases[] = {
      {"--jobs=abc", "--jobs takes a number, got 'abc'"},
      {"--jobs=-1", "--jobs takes a number, got '-1'"},
      {"--jobs=4x", "--jobs takes a number, got '4x'"},
      {"--jobs=", "--jobs takes a number, got ''"},
      {"--repeat=0", "--repeat takes a positive number, got '0'"},
      {"--port=65536", "--port takes a port number, got '65536'"},
      {"--scale=inf", "--scale takes a number, got 'inf'"},
      {"--cores=1,x", "--cores takes a comma-separated list of core counts, "
                      "got '1,x'"},
      {"--cores=,", "--cores takes a comma-separated list of core counts, "
                    "got ','"},
      {"--mechanism=", "--mechanism takes SPEC[,...], got ''"},
      {"--bypass=maybe", "--bypass takes on|off, got 'maybe'"},
      {"--shard=3", "--shard takes I/N with 0 <= I < N, got '3'"},
      {"--stats=1", "--stats takes no value, got '1'"},
  };
  for (const auto& c : cases) {
    Tool t;
    EXPECT_EQ(t.parse({c.arg}), 2) << c.arg;
    EXPECT_EQ(t.flags.error(), c.error);
  }
}

TEST(Flags, NumbersParseWholeTextAboveTheirFloor) {
  unsigned u = 7;
  EXPECT_TRUE(parse_number("0", u));
  EXPECT_EQ(u, 0u);
  EXPECT_FALSE(parse_number("0", u, 1));
  EXPECT_TRUE(parse_number("1", u, 1));
  for (const char* bad : {"", " 5", "5 ", "+5", "-5", "1e5", "20k", "0x10"}) {
    std::uint64_t v = 42;
    EXPECT_FALSE(parse_number(bad, v)) << "'" << bad << "'";
    EXPECT_EQ(v, 42u) << "a rejected value leaves the target alone";
  }
  std::uint16_t port = 0;
  EXPECT_TRUE(parse_number("65535", port));
  EXPECT_FALSE(parse_number("65536", port));
  double d = 0;
  EXPECT_TRUE(parse_number("0.02", d));
  EXPECT_DOUBLE_EQ(d, 0.02);
  EXPECT_TRUE(parse_number("-0.5", d));
  EXPECT_FALSE(parse_number("nan", d));
  EXPECT_FALSE(parse_number("inf", d));
  int ms = 0;
  EXPECT_FALSE(parse_number("0", ms, 1));
  EXPECT_TRUE(parse_number("250", ms, 1));
}

TEST(Flags, ListsSplitOutsideParenthesesAndDropEmptyItems) {
  Tool t;
  EXPECT_EQ(t.parse({"--cores=1,,4"}), std::nullopt);
  EXPECT_EQ(t.cores, (std::vector<unsigned>{1, 4}));
  EXPECT_EQ(split_list("ech(ways=4,probes=2),,radix,"),
            (std::vector<std::string>{"ech(ways=4,probes=2)", "radix"}));
  EXPECT_TRUE(split_list("").empty());
  std::vector<unsigned> levels{9};
  EXPECT_TRUE(parse_number_list("", levels));
  EXPECT_TRUE(levels.empty());
  EXPECT_FALSE(parse_number_list("4,x", levels));
}

TEST(Flags, ChoicesMatchCaseInsensitivelyAndStoreTheListedSpelling) {
  Tool t;
  EXPECT_EQ(t.parse({"--bypass=ON"}), std::nullopt);
  EXPECT_EQ(t.bypass, "on");
}

TEST(Flags, ModeRuleNamesTheFlagAndTheMode) {
  Tool t;
  ASSERT_EQ(t.parse({"--jobs=2", "--port=5"}), std::nullopt);
  EXPECT_TRUE(t.flags.check_mode(kServe));
  EXPECT_FALSE(t.flags.check_mode(kBatch));
  EXPECT_EQ(t.flags.error(),
            "--port does not apply in batch mode (its modes: --serve)");
  Tool u;
  ASSERT_EQ(u.parse({"--stats", "--repeat=3"}), std::nullopt);
  EXPECT_FALSE(u.flags.check_mode(kServe));
  EXPECT_EQ(u.flags.error(),
            "--stats does not apply in --serve mode (its modes: batch)");
}

TEST(Flags, GivenRecordsAFlagSetToItsDefaultValue) {
  // The fleet layering asks "was --port given?", not "does it differ from
  // the default?": an explicit --port=0 must beat a config file's port.
  Tool t;
  ASSERT_EQ(t.parse({"--port=0", "--scale=0.02"}), std::nullopt);
  EXPECT_EQ(t.port, 0u);
  EXPECT_TRUE(t.flags.given("--port"));
  EXPECT_FALSE(t.flags.given("--jobs"));
  EXPECT_EQ(t.flags.first_given({t.selection}), "--scale");
  Tool u;
  ASSERT_EQ(u.parse({"--jobs=1"}), std::nullopt);
  EXPECT_EQ(u.flags.first_given({u.selection}), "");
}

TEST(Flags, HelpAndActionsEndTheParse) {
  Tool t;
  EXPECT_EQ(t.parse({"--list", "--bogus"}), 0);
  EXPECT_EQ(t.listed, 1);
  Tool u;
  EXPECT_EQ(u.parse({"-h", "--bogus"}), 0);
  const std::string help = u.flags.help();
  EXPECT_NE(help.find("usage: tool [options]\n"), std::string::npos) << help;
  EXPECT_NE(help.find("\nserving:\n  --port=P "), std::string::npos) << help;
  EXPECT_NE(help.find("port [--serve]\n"), std::string::npos) << help;
  EXPECT_NE(help.find("  --jobs=N                 threads\n"),
            std::string::npos)
      << "a flag of every mode lists no modes\n" << help;
  EXPECT_NE(help.find("  --bypass=on|off "), std::string::npos) << help;
  EXPECT_NE(help.find("  -h, --help "), std::string::npos) << help;
  EXPECT_NE(help.find("\n\nexit codes: 0 ok, 2 usage\n"), std::string::npos)
      << help;
}

TEST(Flags, PositionalsCollectArgumentsThatAreNotFlags) {
  Tool t;
  t.flags.positional(&t.positionals);
  EXPECT_EQ(t.parse({"a.json", "--out=m.json", "-", "b.json"}), std::nullopt);
  EXPECT_EQ(t.positionals, (std::vector<std::string>{"a.json", "-", "b.json"}));
  EXPECT_EQ(t.out, "m.json");
}

}  // namespace
}  // namespace ndp
