// The JSON writer must be boring and exact: deterministic ordering, correct
// escaping, correct commas at every nesting depth — campaign records and
// bench JSON lines both ride on it. The reader must take back exactly what
// the writer produced, and nothing looser.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "campaign/json.hpp"
#include "campaign/runner.hpp"

namespace pfi::campaign::json {
namespace {

TEST(JsonWriter, FlatObject) {
  Writer w;
  w.begin_object().kv("a", "x").kv("b", 2).kv("c", true).end_object();
  EXPECT_EQ(w.str(), R"({"a":"x","b":2,"c":true})");
}

TEST(JsonWriter, NestedStructures) {
  Writer w;
  w.begin_object();
  w.key("list").begin_array().value(1).value(2).end_array();
  w.key("obj").begin_object().kv("k", "v").end_object();
  w.key("empty").begin_array().end_array();
  w.end_object();
  EXPECT_EQ(w.str(), R"({"list":[1,2],"obj":{"k":"v"},"empty":[]})");
}

TEST(JsonWriter, ArrayOfObjects) {
  Writer w;
  w.begin_array();
  for (int i = 0; i < 2; ++i) {
    w.begin_object().kv("i", i).end_object();
  }
  w.end_array();
  EXPECT_EQ(w.str(), R"([{"i":0},{"i":1}])");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(escape("plain"), "plain");
  EXPECT_EQ(escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(escape(std::string("\x01", 1)), "\\u0001");
  Writer w;
  w.begin_object().kv("k\"ey", "v\nal").end_object();
  EXPECT_EQ(w.str(), "{\"k\\\"ey\":\"v\\nal\"}");
}

TEST(JsonWriter, NumbersAreLocaleProofAndFixed) {
  Writer w;
  w.begin_array()
      .value(std::uint64_t{18446744073709551615ull})
      .value(std::int64_t{-42})
      .value(1.5)
      .value(0.0005)
      .end_array();
  // Doubles use fixed %.3f — deterministic across platforms.
  EXPECT_EQ(w.str(), "[18446744073709551615,-42,1.500,0.001]");
}

TEST(JsonWriter, RawSplicing) {
  Writer w;
  w.begin_array().value_raw(R"({"pre":"made"})").value(1).end_array();
  EXPECT_EQ(w.str(), R"([{"pre":"made"},1])");
}

TEST(JsonWriter, TopLevelScalar) {
  Writer w;
  w.value("alone");
  EXPECT_EQ(w.str(), R"("alone")");
}

TEST(JsonReader, RecordU64sReadBackExactly) {
  // Past 2^53 a double cannot hold every integer: the reader keeps the
  // token text and reads it as an exact u64.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  RunResult r;
  r.index = 3;
  r.id = "gmp/\"x\"\n";
  r.seed = kMax;
  r.coverage.digest = "00ff00ff00ff00ff";
  r.coverage.msg_types = {{"gmp-mc", (std::uint64_t{1} << 53) + 1}};
  r.coverage.actions = {{"dropped", kMax - 1}};
  const std::string record = record_json(r);
  const auto doc = parse(record);
  ASSERT_TRUE(doc.has_value()) << record;
  EXPECT_EQ(doc->str_or("id", ""), r.id);
  std::uint64_t seed = 0;
  int index = 0;
  ASSERT_TRUE(doc->int_field("seed", &seed));
  ASSERT_TRUE(doc->int_field("index", &index));
  EXPECT_EQ(seed, kMax);
  EXPECT_EQ(index, 3);
  const Value* cov = doc->find("coverage");
  ASSERT_NE(cov, nullptr);
  std::uint64_t n = 0;
  ASSERT_TRUE(cov->find("msg_types")->int_field("gmp-mc", &n));
  EXPECT_EQ(n, (std::uint64_t{1} << 53) + 1);
  ASSERT_TRUE(cov->find("actions")->int_field("dropped", &n));
  EXPECT_EQ(n, kMax - 1);
  // Each value knows its own bytes: a journal hands records on verbatim.
  EXPECT_EQ(record.substr(cov->begin, cov->end - cov->begin).front(), '{');
  EXPECT_EQ(doc->begin, 0u);
  EXPECT_EQ(doc->end, record.size());

  // An integer read never truncates or wraps: the field's type decides.
  const auto num = parse(R"({"a":2.9,"b":4294967297,"c":-1,"d":1e3,"e":"7"})");
  ASSERT_TRUE(num.has_value());
  int i = 0;
  std::uint64_t u = 0;
  EXPECT_FALSE(num->int_field("a", &i));
  EXPECT_FALSE(num->int_field("b", &i));
  EXPECT_TRUE(num->int_field("b", &u));
  EXPECT_FALSE(num->int_field("c", &u));
  EXPECT_FALSE(num->int_field("d", &i));
  EXPECT_FALSE(num->int_field("e", &i));
  EXPECT_TRUE(num->int_field("absent", &i));
}

TEST(JsonReader, RejectsWhatTheWriterNeverEmits) {
  Writer w;
  w.begin_object().kv("s", std::string("q\"b\\n\n\t\x01\xe9", 8)).kv("n", -5);
  w.key("a").begin_array().value(true).value(false).value(1.5).end_array();
  w.end_object();
  const auto back = parse(w.str());
  ASSERT_TRUE(back.has_value()) << w.str();
  EXPECT_EQ(back->str_or("s", ""), std::string("q\"b\\n\n\t\x01\xe9", 8));
  EXPECT_TRUE(parse(" [ null , {} , [] ] ").has_value());

  std::string deep(200, '[');
  deep += std::string(200, ']');
  for (const std::string& bad :
       {std::string(""), std::string("{"), std::string("[1,]"),
        std::string(R"({"a":1,})"), std::string("01"), std::string("1."),
        std::string("-"), std::string("1e"), std::string("+1"),
        std::string(".5"), std::string("nul"), std::string("[1] x"),
        std::string(R"("\u12")"), std::string(R"("\u0100")"),
        std::string(R"("\x")"), std::string("\"raw\nnewline\""),
        std::string("{\"a\" 1}"), std::string("{1:2}"), deep}) {
    EXPECT_FALSE(parse(bad).has_value()) << bad;
  }
}

}  // namespace
}  // namespace pfi::campaign::json
