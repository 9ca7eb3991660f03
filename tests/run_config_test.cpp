// Config front-end contract: the JsonValue parser (values, escapes,
// pinpointed errors), RunConfig parsing with registry-validated names,
// to_json/from_json round-trips, grid expansion order, and the
// malformed-config diagnostics a CLI user actually sees.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/json.h"
#include "sim/run_config.h"

namespace ndp {
namespace {

// --- JsonValue --------------------------------------------------------------

TEST(JsonValue, ParsesScalarsArraysObjects) {
  const JsonValue v = JsonValue::parse(
      R"({"s": "a\"b\nc", "n": -2.5e2, "i": 42, "t": true, "f": false,
          "null": null, "arr": [1, [2]], "obj": {"k": "v"}})");
  EXPECT_EQ(v.at("s").as_string(), "a\"b\nc");
  EXPECT_DOUBLE_EQ(v.at("n").as_double(), -250.0);
  EXPECT_EQ(v.at("i").as_u64(), 42u);
  EXPECT_TRUE(v.at("t").as_bool());
  EXPECT_FALSE(v.at("f").as_bool());
  EXPECT_TRUE(v.at("null").is_null());
  ASSERT_EQ(v.at("arr").array().size(), 2u);
  EXPECT_EQ(v.at("arr").array()[1].array()[0].as_u64(), 2u);
  EXPECT_EQ(v.at("obj").at("k").as_string(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), JsonError);
}

TEST(JsonValue, DumpParsesBack) {
  const char* doc = R"({"a":[1,2.5,"x"],"b":{"c":true,"d":null}})";
  const JsonValue v = JsonValue::parse(doc);
  EXPECT_EQ(v.dump(), doc);
  // dump() of a parse is a fixed point.
  EXPECT_EQ(JsonValue::parse(v.dump()).dump(), v.dump());
}

TEST(JsonValue, UnicodeEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("é")").as_string(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(JsonValue::parse(R"("Aé")").as_string(), "Aé");  // raw UTF-8 ok
  // Surrogate-pair escapes are rejected, not mangled.
  EXPECT_THROW(JsonValue::parse(R"("\uD83D\uDE00")"), JsonError);
  EXPECT_THROW(JsonValue::parse(R"("\uZZZZ")"), JsonError);
}

TEST(JsonValue, ErrorsCarryLineAndColumn) {
  try {
    JsonValue::parse("{\n  \"a\": 1,\n  \"b\": }\n");
    FAIL() << "expected JsonError";
  } catch (const JsonError& e) {
    // The bad token is on line 3.
    EXPECT_NE(std::string(e.what()).find("3:"), std::string::npos) << e.what();
  }
}

TEST(JsonValue, RejectsMalformedDocuments) {
  EXPECT_THROW(JsonValue::parse(""), JsonError);
  EXPECT_THROW(JsonValue::parse("{"), JsonError);
  EXPECT_THROW(JsonValue::parse("[1,]"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1,}"), JsonError);
  EXPECT_THROW(JsonValue::parse("{\"a\":1}{"), JsonError);  // trailing
  EXPECT_THROW(JsonValue::parse("{\"a\":1,\"a\":2}"), JsonError);  // dup key
  EXPECT_THROW(JsonValue::parse("nul"), JsonError);
  EXPECT_THROW(JsonValue::parse("01"), JsonError);  // trailing garbage
  EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonError);
  EXPECT_THROW(JsonValue::parse("1."), JsonError);
  // Depth bomb: deeply nested arrays are refused, not a stack overflow.
  EXPECT_THROW(JsonValue::parse(std::string(500, '[')), JsonError);
}

TEST(JsonValue, U64RejectsNonIntegers) {
  EXPECT_THROW(JsonValue::parse("2.5").as_u64(), JsonError);
  EXPECT_THROW(JsonValue::parse("-1").as_u64(), JsonError);
  EXPECT_EQ(JsonValue::parse("150000").as_u64(), 150000u);
}

// --- RunConfig --------------------------------------------------------------

TEST(RunConfig, ParsesFullDocumentWithCanonicalNames) {
  const RunConfig cfg = RunConfig::from_json(R"({
    "name": "test_grid",
    "description": "a grid",
    "systems": ["ndp", "cpu"],
    "mechanisms": ["radix", "flat"],
    "workloads": ["gups", "PR"],
    "cores": [1, 4],
    "instructions": 9000,
    "warmup": 600,
    "scale": 0.5,
    "seed": 7,
    "overrides": { "bypass": true, "pwc_levels": [4, 3], "dram": "hbm2" },
    "baseline": "radix",
    "output": { "json": "out.json", "csv": "out.csv" }
  })");
  EXPECT_EQ(cfg.name, "test_grid");
  ASSERT_EQ(cfg.systems.size(), 2u);
  EXPECT_EQ(cfg.systems[0], SystemKind::kNdp);
  // Aliases resolve to canonical registry spellings at parse time.
  EXPECT_EQ(cfg.mechanisms, (std::vector<std::string>{"Radix", "NDPage"}));
  EXPECT_EQ(cfg.workloads, (std::vector<std::string>{"RND", "PR"}));
  EXPECT_EQ(cfg.cores, (std::vector<unsigned>{1, 4}));
  EXPECT_EQ(cfg.instructions, 9000u);
  EXPECT_EQ(cfg.warmup, 600u);
  EXPECT_DOUBLE_EQ(cfg.scale, 0.5);
  EXPECT_EQ(cfg.seed, 7u);
  ASSERT_TRUE(cfg.overrides.bypass.has_value());
  EXPECT_TRUE(*cfg.overrides.bypass);
  ASSERT_TRUE(cfg.overrides.pwc_levels.has_value());
  EXPECT_EQ(*cfg.overrides.pwc_levels, (std::vector<unsigned>{4, 3}));
  ASSERT_TRUE(cfg.overrides.dram.has_value());
  EXPECT_EQ(cfg.overrides.dram->name, "HBM2");
  EXPECT_EQ(cfg.baseline, "Radix");
  EXPECT_EQ(cfg.json_output, "out.json");
  EXPECT_EQ(cfg.csv_output, "out.csv");
}

TEST(RunConfig, SingularFormsAndAllWorkloads) {
  const RunConfig cfg = RunConfig::from_json(R"({
    "system": "cpu", "mechanism": "ech", "workloads": "all", "cores": 2
  })");
  EXPECT_EQ(cfg.systems, (std::vector<SystemKind>{SystemKind::kCpu}));
  EXPECT_EQ(cfg.mechanisms, (std::vector<std::string>{"ECH"}));
  EXPECT_EQ(cfg.workloads.size(), 11u);  // the Table II built-ins
  EXPECT_EQ(cfg.workloads.front(), "BC");
  EXPECT_EQ(cfg.workloads.back(), "GEN");
  EXPECT_EQ(cfg.cores, (std::vector<unsigned>{2}));
}

TEST(RunConfig, DefaultsWhenKeysAbsent) {
  const RunConfig cfg = RunConfig::from_json("{}");
  EXPECT_EQ(cfg.systems, (std::vector<SystemKind>{SystemKind::kNdp}));
  EXPECT_EQ(cfg.mechanisms, (std::vector<std::string>{"NDPage"}));
  EXPECT_EQ(cfg.workloads, (std::vector<std::string>{"RND"}));
  EXPECT_EQ(cfg.cores, (std::vector<unsigned>{4}));
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_FALSE(cfg.overrides.any());
}

TEST(RunConfig, RoundTripsThroughToJson) {
  const char* doc = R"({
    "name": "rt", "systems": ["ndp", "cpu"],
    "mechanisms": ["radix", "ndpage"], "workloads": ["RND", "PR"],
    "cores": [1, 2, 8], "instructions": 4000, "scale": 0.25, "seed": 3,
    "overrides": { "bypass": false, "dram": "ddr4" }, "baseline": "radix",
    "output": { "csv": "x.csv" }
  })";
  const RunConfig a = RunConfig::from_json(doc);
  const RunConfig b = RunConfig::from_json(a.to_json());
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_EQ(b.name, "rt");
  EXPECT_EQ(b.systems.size(), 2u);
  EXPECT_EQ(b.mechanisms, a.mechanisms);
  EXPECT_EQ(b.workloads, a.workloads);
  EXPECT_EQ(b.cores, a.cores);
  EXPECT_EQ(b.instructions, 4000u);
  EXPECT_DOUBLE_EQ(b.scale, 0.25);
  ASSERT_TRUE(b.overrides.bypass.has_value());
  EXPECT_FALSE(*b.overrides.bypass);
  ASSERT_TRUE(b.overrides.dram.has_value());
  EXPECT_EQ(b.overrides.dram->name, "DDR4-2400");
  EXPECT_EQ(b.baseline, "Radix");
  EXPECT_EQ(b.csv_output, "x.csv");
}

TEST(RunConfig, ShareImagesIsAnUnknownKey) {
  // Whether cells share a Session is the sweep's decision, not the
  // config's: the old opt-out key is rejected like any other typo.
  for (const char* doc :
       {R"({"share_images": false})", R"({"share_images": true})"}) {
    try {
      RunConfig::from_json(doc);
      ADD_FAILURE() << doc << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("unknown key \"share_images\""),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(RunConfig, ExpandIsSystemMajorThenMechanismMajor) {
  const RunConfig cfg = RunConfig::from_json(R"({
    "systems": ["ndp", "cpu"], "mechanisms": ["radix", "ndpage"],
    "workloads": ["RND"], "cores": [1, 4], "seed": 9
  })");
  const std::vector<RunSpec> specs = cfg.expand();
  ASSERT_EQ(specs.size(), 8u);
  EXPECT_EQ(specs[0].system, SystemKind::kNdp);
  EXPECT_EQ(specs[0].mechanism_label(), "Radix");
  EXPECT_EQ(specs[0].cores, 1u);
  EXPECT_EQ(specs[1].cores, 4u);
  EXPECT_EQ(specs[2].mechanism_label(), "NDPage");
  EXPECT_EQ(specs[4].system, SystemKind::kCpu);
  for (const RunSpec& s : specs) {
    EXPECT_EQ(s.workload_label(), "RND");
    EXPECT_EQ(s.seed, 9u);
  }
}

TEST(RunConfig, MalformedConfigsNameTheProblem) {
  auto error_of = [](const char* doc) -> std::string {
    try {
      RunConfig::from_json(doc);
      return "";
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  };
  // Malformed JSON carries the parse position.
  EXPECT_NE(error_of("{").find("parse error"), std::string::npos);
  // Unknown keys (typo protection).
  EXPECT_NE(error_of(R"({"mechanims": ["radix"]})").find("mechanims"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"overrides": {"bypas": true}})").find("bypas"),
            std::string::npos);
  // Unknown names list the registered alternatives.
  const std::string mech_err = error_of(R"({"mechanisms": ["bogus"]})");
  EXPECT_NE(mech_err.find("bogus"), std::string::npos);
  EXPECT_NE(mech_err.find("NDPage"), std::string::npos);
  const std::string wl_err = error_of(R"({"workloads": ["bogus"]})");
  EXPECT_NE(wl_err.find("bogus"), std::string::npos);
  EXPECT_NE(wl_err.find("RND"), std::string::npos);
  // Type and range errors.
  EXPECT_NE(error_of(R"({"cores": "four"})").find("cores"),
            std::string::npos);
  EXPECT_NE(error_of(R"({"cores": [0]})").find(">= 1"), std::string::npos);
  EXPECT_NE(error_of(R"({"cores": []})").find("cores"), std::string::npos);
  EXPECT_NE(error_of(R"({"scale": 1.5})").find("scale"), std::string::npos);
  EXPECT_NE(error_of(R"({"instructions": -5})").find("instructions"),
            std::string::npos);
  // Both singular and plural axis keys.
  EXPECT_NE(
      error_of(R"({"system": "ndp", "systems": ["cpu"]})").find("not both"),
      std::string::npos);
  // Baseline must be part of the sweep.
  EXPECT_NE(error_of(R"({"mechanisms": ["ndpage"], "baseline": "radix"})")
                .find("baseline"),
            std::string::npos);
  // Bad top level.
  EXPECT_NE(error_of("[1,2]").find("object"), std::string::npos);
}

TEST(RunConfig, LoadReadsFilesAndPrefixesErrorsWithPath) {
  const std::string good = testing::TempDir() + "/run_config_good.json";
  {
    std::ofstream out(good);
    out << R"({"name": "from_file", "workloads": ["gups"], "cores": 1})";
  }
  const RunConfig cfg = RunConfig::load(good);
  EXPECT_EQ(cfg.name, "from_file");
  EXPECT_EQ(cfg.workloads, (std::vector<std::string>{"RND"}));
  std::remove(good.c_str());

  EXPECT_THROW(RunConfig::load("/nonexistent/nope.json"),
               std::invalid_argument);
  const std::string bad = testing::TempDir() + "/run_config_bad.json";
  {
    std::ofstream out(bad);
    out << R"({"cores": })";
  }
  try {
    RunConfig::load(bad);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(bad), std::string::npos) << e.what();
  }
  std::remove(bad.c_str());
}

}  // namespace
}  // namespace ndp
