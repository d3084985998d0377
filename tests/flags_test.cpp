// Flag-table tests: strict numbers into each field's own type (no silent
// 0, truncation or saturation), `--x v` and `--x=v` alike, missing values,
// repeatable rows, the environment fallback and the generated usage.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "campaign/flags.hpp"

namespace pfi::campaign::flags {
namespace {

struct Fields {
  int jobs = 1;
  unsigned workers = 0;
  std::int64_t max_events = -1;
  std::uint64_t seed = 0;
  std::string out;
  std::string token;
  std::vector<std::string> allow;
  bool quiet = false;
  int lint = 0;
};

Parser make(Fields* f) {
  return Parser(
      "prog", {"<spec> [options]"},
      {
          number("--jobs", "N", "worker threads", &f->jobs),
          number("--workers", "N", "worker processes", &f->workers),
          number("--max-events", "N", "event budget", &f->max_events),
          number("--seed", "N", "search seed", &f->seed),
          text("--out", "FILE", "report path", &f->out),
          text("--token", "SECRET", "shared secret", &f->token,
               "PFI_FLAGS_TEST_TOKEN"),
          repeated("--allow", "ADDR", "allowlisted peer", &f->allow),
          toggle("--quiet", "no progress", &f->quiet),
          custom("--lint", "strict", "lint cells", "strict",
                 [f](std::string_view v) {
                   f->lint = v.empty() ? 1 : 2;
                   return v.empty() || v == "strict";
                 },
                 true),
      });
}

/// Parse `args` (argv[0] is supplied); returns parse()'s exit code.
int run(Parser* p, std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<const char*> argv;
  for (const auto& a : args) argv.push_back(a.c_str());
  return p->parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, MalformedNumbersExitTwo) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--max-events", "10k"},
           {"--jobs", "abc"},
           {"--jobs", "1e3"},
           {"--jobs", ""},
           {"--jobs", "+4"},
           {"--workers", "-1"},           // negative into an unsigned field
           {"--jobs", "2147483648"},      // one past INT_MAX
           {"--jobs=-2147483649"},        // one past INT_MIN
           {"--seed", "18446744073709551616"},
       }) {
    Fields f;
    Parser p = make(&f);
    EXPECT_EQ(run(&p, args), 2) << args[0];
    EXPECT_EQ(f.jobs, 1) << "a rejected value must not land";
    EXPECT_EQ(f.max_events, -1);
  }
}

TEST(Flags, NumbersReadExactlyIntoTheFieldType) {
  Fields f;
  Parser p = make(&f);
  ASSERT_EQ(run(&p, {"--seed", "18446744073709551615", "--jobs=-3",
                     "--max-events", "9223372036854775807"}),
            -1);
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_EQ(f.jobs, -3);
  EXPECT_EQ(f.max_events, INT64_MAX);
}

TEST(Flags, MissingTrailingValueAndUnknownFlagsExitTwo) {
  Fields f;
  Parser p = make(&f);
  EXPECT_EQ(run(&p, {"spec", "--jobs"}), 2);
  Parser q = make(&f);
  EXPECT_EQ(run(&q, {"--bogus"}), 2);
  Parser r = make(&f);
  EXPECT_EQ(run(&r, {"--quiet=yes"}), 2);  // a switch takes no value
}

TEST(Flags, EqualsFormRepeatablesAndPositionals) {
  Fields f;
  Parser p = make(&f);
  ASSERT_EQ(run(&p, {"a.spec", "--out=r.json", "--allow", "10.0.0.1",
                     "--allow=10.0.0.2", "--quiet", "--lint", "-", "b"}),
            -1);
  EXPECT_EQ(f.out, "r.json");
  EXPECT_EQ(f.allow, (std::vector<std::string>{"10.0.0.1", "10.0.0.2"}));
  EXPECT_TRUE(f.quiet);
  EXPECT_EQ(f.lint, 1);
  EXPECT_EQ(p.positionals(), (std::vector<std::string>{"a.spec", "-", "b"}));
  EXPECT_TRUE(p.given("--allow"));
  EXPECT_FALSE(p.given("--jobs"));
}

TEST(Flags, OptionalValueAttachesOnlyWithEquals) {
  Fields f;
  Parser p = make(&f);
  ASSERT_EQ(run(&p, {"--lint=strict", "strict"}), -1);
  EXPECT_EQ(f.lint, 2);
  EXPECT_EQ(p.positionals(), std::vector<std::string>{"strict"});
  Parser q = make(&f);
  EXPECT_EQ(run(&q, {"--lint=lax"}), 2);
}

TEST(Flags, EnvironmentFallbackFillsAnAbsentFlagOnly) {
  ::setenv("PFI_FLAGS_TEST_TOKEN", "from-env", 1);
  Fields f;
  Parser p = make(&f);
  ASSERT_EQ(run(&p, {}), -1);
  EXPECT_EQ(f.token, "from-env");
  EXPECT_TRUE(p.given("--token"));

  Fields g;
  Parser q = make(&g);
  ASSERT_EQ(run(&q, {"--token", "from-flag"}), -1);
  EXPECT_EQ(g.token, "from-flag");
  ::unsetenv("PFI_FLAGS_TEST_TOKEN");

  Fields h;
  Parser r = make(&h);
  ASSERT_EQ(run(&r, {}), -1);
  EXPECT_TRUE(h.token.empty());
  EXPECT_FALSE(r.given("--token"));
}

TEST(Flags, HelpExitsZeroAndUsageListsEveryRow) {
  Fields f;
  Parser p = make(&f);
  testing::internal::CaptureStdout();
  EXPECT_EQ(run(&p, {"--jobs", "2", "-h"}), 0);
  const std::string printed = testing::internal::GetCapturedStdout();
  const std::string usage = p.usage();
  EXPECT_EQ(printed, usage);
  EXPECT_EQ(usage.rfind("usage: prog <spec> [options]\n", 0), 0u) << usage;
  for (const char* row :
       {"--jobs N", "--workers N", "--max-events N", "--seed N",
        "--out FILE", "--token SECRET", "--allow ADDR", "--quiet",
        "--lint[=strict]", "-h, --help", "report path",
        "PFI_FLAGS_TEST_TOKEN"}) {
    EXPECT_NE(usage.find(row), std::string::npos) << row << " in\n" << usage;
  }
}

}  // namespace
}  // namespace pfi::campaign::flags
