// Tests for CSV emission, table rendering, option parsing and geometry.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/geometry.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace {

using minim::util::clamp_to_box;
using minim::util::CsvWriter;
using minim::util::distance;
using minim::util::distance_squared;
using minim::util::Options;
using minim::util::TextTable;
using minim::util::Vec2;

// ---------------------------------------------------------------- CSV

TEST(Csv, PlainRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"x", "y"});
  csv.row({"1", "2"});
  csv.row({"3", "4"});
  EXPECT_EQ(out.str(), "x,y\n1,2\n3,4\n");
  EXPECT_EQ(csv.rows_written(), 2u);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvWriter::escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RowWidthEnforced) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b", "c"});
  EXPECT_THROW(csv.row({"1", "2"}), std::invalid_argument);
}

TEST(Csv, HeaderTwiceRejected) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a"});
  EXPECT_THROW(csv.header({"b"}), std::invalid_argument);
}

TEST(Csv, NumericFormatting) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row_numeric({1.5, 2.0});
  EXPECT_EQ(out.str(), "1.5,2\n");
}

// ---------------------------------------------------------------- Table

TEST(Table, AlignsColumns) {
  TextTable t("Title");
  t.set_header({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string rendered = t.render();
  EXPECT_NE(rendered.find("Title"), std::string::npos);
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  // Header separator rule present.
  EXPECT_NE(rendered.find("-----"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, NumericRowsUsePrecision) {
  TextTable t;
  t.add_row_numeric({3.14159, 2.0}, 2);
  EXPECT_NE(t.render().find("3.14"), std::string::npos);
  EXPECT_NE(t.render().find("2.00"), std::string::npos);
}

TEST(Table, FmtFixed) {
  EXPECT_EQ(minim::util::fmt_fixed(1.005, 1), "1.0");
  EXPECT_EQ(minim::util::fmt_fixed(-2.5, 0), "-2");  // round-half-even
}

// ---------------------------------------------------------------- Options

TEST(Options, ParsesKeyEqualsValue) {
  const char* argv[] = {"prog", "--runs=50", "--seed=7"};
  Options opts(3, argv);
  EXPECT_EQ(opts.get_int("runs", 0), 50);
  EXPECT_EQ(opts.get_int("seed", 0), 7);
}

TEST(Options, ParsesKeySpaceValue) {
  const char* argv[] = {"prog", "--runs", "25"};
  Options opts(3, argv);
  EXPECT_EQ(opts.get_int("runs", 0), 25);
}

TEST(Options, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--csv"};
  Options opts(2, argv);
  EXPECT_TRUE(opts.get_bool("csv", false));
  EXPECT_FALSE(opts.get_bool("other", false));
}

TEST(Options, BooleanSpellings) {
  const char* argv[] = {"prog", "--a=yes", "--b=off", "--c=TRUE"};
  Options opts(4, argv);
  EXPECT_TRUE(opts.get_bool("a", false));
  EXPECT_FALSE(opts.get_bool("b", true));
  EXPECT_TRUE(opts.get_bool("c", false));
}

TEST(Options, DefaultsWhenAbsent) {
  Options opts;
  EXPECT_EQ(opts.get("name", "fallback"), "fallback");
  EXPECT_EQ(opts.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(opts.get_double("x", 2.5), 2.5);
}

TEST(Options, PositionalCollected) {
  const char* argv[] = {"prog", "input.txt", "--k=1", "more"};
  Options opts(4, argv);
  ASSERT_EQ(opts.positional().size(), 2u);
  EXPECT_EQ(opts.positional()[0], "input.txt");
  EXPECT_EQ(opts.positional()[1], "more");
}

TEST(Options, BadIntegerThrows) {
  // The whole value must parse: trailing text or a fraction is a typo, not
  // a silently truncated integer.
  for (const char* bad : {"--n=abc", "--n=3x", "--n=2.9"}) {
    const char* argv[] = {"prog", bad};
    Options opts(2, argv);
    EXPECT_THROW(opts.get_int("n", 0), std::invalid_argument) << bad;
  }
}

TEST(Options, BadDoubleThrows) {
  for (const char* bad : {"--r=abc", "--r=20.5x"}) {
    const char* argv[] = {"prog", bad};
    Options opts(2, argv);
    EXPECT_THROW(opts.get_double("r", 0), std::invalid_argument) << bad;
  }
}

TEST(Options, DoubleParsing) {
  const char* argv[] = {"prog", "--r=20.5"};
  Options opts(2, argv);
  EXPECT_DOUBLE_EQ(opts.get_double("r", 0), 20.5);
}

// ---------------------------------------------------------------- Geometry

TEST(Geometry, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_squared({1, 1}, {4, 5}), 25.0);
  EXPECT_DOUBLE_EQ(distance({2, 3}, {2, 3}), 0.0);
}

TEST(Geometry, VectorOps) {
  const Vec2 a{1, 2};
  const Vec2 b{3, -1};
  EXPECT_EQ(a + b, Vec2(4, 1));
  EXPECT_EQ(a - b, Vec2(-2, 3));
  EXPECT_EQ(a * 2.0, Vec2(2, 4));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
}

TEST(Geometry, FromAngleIsUnit) {
  for (double angle : {0.0, 0.7, 1.5707963267948966, 3.0}) {
    const Vec2 v = Vec2::from_angle(angle);
    EXPECT_NEAR(v.norm(), 1.0, 1e-12) << angle;
  }
  EXPECT_NEAR(Vec2::from_angle(0.0).x, 1.0, 1e-12);
}

TEST(Geometry, ClampToBox) {
  EXPECT_EQ(clamp_to_box({-5, 50}, 100, 100), Vec2(0, 50));
  EXPECT_EQ(clamp_to_box({105, -2}, 100, 100), Vec2(100, 0));
  EXPECT_EQ(clamp_to_box({42, 17}, 100, 100), Vec2(42, 17));
}

TEST(Geometry, ToStringContainsCoords) {
  EXPECT_EQ(Vec2(1.5, -2).to_string(), "(1.5, -2)");
}

}  // namespace
