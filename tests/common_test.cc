#include <gtest/gtest.h>

#include "common/random.h"
#include "common/result.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/str_util.h"

namespace dar {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, CopyPreservesState) {
  Status s = Status::NotFound("missing");
  Status t = s;
  EXPECT_TRUE(t.IsNotFound());
  EXPECT_EQ(t.message(), "missing");
  EXPECT_EQ(s, t);
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status s = Status::IOError("disk");
  Status t = std::move(s);
  EXPECT_TRUE(t.IsIOError());
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::ResourceExhausted("x").IsResourceExhausted());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  auto inner = []() { return Status::Internal("boom"); };
  auto outer = [&]() -> Status {
    DAR_RETURN_IF_ERROR(inner());
    return Status::OK();
  };
  EXPECT_TRUE(outer().IsInternal());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto makes = [](bool good) -> Result<int> {
    if (good) return 7;
    return Status::InvalidArgument("no");
  };
  auto consumer = [&](bool good) -> Result<int> {
    DAR_ASSIGN_OR_RETURN(int v, makes(good));
    return v * 2;
  };
  EXPECT_EQ(*consumer(true), 14);
  EXPECT_TRUE(consumer(false).status().IsInvalidArgument());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

TEST(StrUtilTest, SplitPreservesEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StrUtilTest, SplitSingleField) {
  auto parts = Split("solo", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "solo");
}

TEST(StrUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y \t"), "x y");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrUtilTest, ParseDoubleAcceptsNumbers) {
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5"), 3.5);
  EXPECT_DOUBLE_EQ(*ParseDouble(" -2e3 "), -2000.0);
  EXPECT_DOUBLE_EQ(*ParseDouble("0"), 0.0);
}

TEST(StrUtilTest, ParseDoubleRejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  // Past the largest double, and below the smallest subnormal: no double
  // holds the value.
  EXPECT_TRUE(ParseDouble("1e999").status().IsOutOfRange());
  EXPECT_TRUE(ParseDouble("1e-400").status().IsOutOfRange());
}

TEST(StrUtilTest, ParseIntAcceptsAndRejects) {
  EXPECT_EQ(*ParseInt("123"), 123);
  EXPECT_EQ(*ParseInt("-7"), -7);
  EXPECT_FALSE(ParseInt("1.5").ok());
  EXPECT_FALSE(ParseInt("").ok());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformWithinBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(7);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(w), 1u);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch w;
  double t0 = w.ElapsedSeconds();
  EXPECT_GE(t0, 0.0);
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  (void)sink;
  EXPECT_GE(w.ElapsedSeconds(), t0);
}

}  // namespace
}  // namespace dar
