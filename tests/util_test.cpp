// Config parsing, table rendering and the invariant-divisor divider.

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "util/config.hpp"
#include "util/div_u32.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace simcov {
namespace {

TEST(Config, ParsesKeyValueLines) {
  const Config c = Config::from_string(
      "a = 1\n"
      "# comment line\n"
      "b = hello world  # trailing comment\n"
      "\n"
      "c=3.5\n");
  EXPECT_EQ(c.get_int("a"), 1);
  EXPECT_EQ(c.get_string("b"), "hello world");
  EXPECT_DOUBLE_EQ(c.get_double("c"), 3.5);
}

TEST(Config, LaterKeysOverride) {
  const Config c = Config::from_string("x = 1\nx = 2\n");
  EXPECT_EQ(c.get_int("x"), 2);
}

TEST(Config, RejectsMalformedLines) {
  EXPECT_THROW(Config::from_string("just a line without equals\n"), Error);
  EXPECT_THROW(Config::from_string("= value\n"), Error);
}

TEST(Config, TypeValidation) {
  const Config c = Config::from_string("n = 12x\nf = 1.5.2\nb = maybe\n");
  EXPECT_THROW(c.get_int("n"), Error);
  EXPECT_THROW(c.get_double("f"), Error);
  EXPECT_THROW(c.get_bool("b"), Error);
}

TEST(Config, Booleans) {
  const Config c =
      Config::from_string("a = true\nb = 0\nc = YES\nd = off\n");
  EXPECT_TRUE(c.get_bool("a"));
  EXPECT_FALSE(c.get_bool("b"));
  EXPECT_TRUE(c.get_bool("c"));
  EXPECT_FALSE(c.get_bool("d"));
}

TEST(Config, DefaultsAndRequired) {
  const Config c = Config::from_string("x = 5\n");
  EXPECT_EQ(c.get_int("x", 9), 5);
  EXPECT_EQ(c.get_int("missing", 9), 9);
  EXPECT_THROW(c.get_int("missing"), Error);
}

TEST(Config, FromArgs) {
  const char* argv[] = {"k1=v1", "k2=42"};
  const Config c = Config::from_args(2, argv);
  EXPECT_EQ(c.get_string("k1"), "v1");
  EXPECT_EQ(c.get_int("k2"), 42);
  const char* bad[] = {"notkeyvalue"};
  EXPECT_THROW(Config::from_args(1, bad), Error);
}

TEST(Config, MergeOtherWins) {
  Config a = Config::from_string("x = 1\ny = 2\n");
  const Config b = Config::from_string("y = 3\nz = 4\n");
  a.merge(b);
  EXPECT_EQ(a.get_int("x"), 1);
  EXPECT_EQ(a.get_int("y"), 3);
  EXPECT_EQ(a.get_int("z"), 4);
}

TEST(Config, MissingFileThrows) {
  EXPECT_THROW(Config::from_file("/nonexistent/simcov.cfg"), Error);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("long-name"), std::string::npos);
  // Header separator present.
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, RowArityChecked) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(TextTable, CsvQuoting) {
  TextTable t({"x"});
  t.add_row({"has,comma"});
  t.add_row({"has\"quote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(DivU32, MatchesDivisionAtTheEdgesOfTheNumeratorRange) {
  std::vector<std::uint32_t> divisors;
  for (std::uint32_t d = 1; d <= 1100; ++d) divisors.push_back(d);
  for (std::uint32_t d : {4095u, 4096u, 4097u, 65535u, 65536u, 65537u,
                          1000003u, 0x7fffffffu, 0x80000000u, 0x80000001u,
                          0xfffffffeu, 0xffffffffu}) {
    divisors.push_back(d);
  }
  for (const std::uint32_t d : divisors) {
    const util::DivU32 div(d);
    EXPECT_EQ(div.divisor(), d);
    for (const std::uint32_t n :
         {0u, d - 1, d, d + 1, 2 * d - 1, 0xffffffffu - 1, 0xffffffffu}) {
      ASSERT_EQ(div.div(n), n / d) << n << " / " << d;
    }
  }
  EXPECT_THROW(util::DivU32(0), Error);
}

TEST(DivU32, RandomNumeratorsMatchDivision) {
  std::mt19937 gen(0xd1u);
  for (const std::uint32_t d : {1u, 2u, 3u, 7u, 514u, 0x80000001u}) {
    const util::DivU32 div(d);
    for (const std::uint32_t n : {0u, d - 1, d, 0xffffffffu}) {
      ASSERT_EQ(div.div(n), n / d) << n << " / " << d;
    }
    for (int i = 0; i < 20000; ++i) {
      const std::uint32_t n = gen();
      ASSERT_EQ(div.div(n), n / d) << n << " / " << d;
    }
  }
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_resources(4, 128), "{4,128}");
}

}  // namespace
}  // namespace simcov
