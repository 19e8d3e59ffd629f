#include "common/status.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "common/parse.h"

namespace hgm {
namespace {

TEST(StatusTest, OkDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    const char* name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("bad"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("missing"), StatusCode::kNotFound, "NotFound"},
      {Status::IOError("disk"), StatusCode::kIOError, "IOError"},
      {Status::FailedPrecondition("early"),
       StatusCode::kFailedPrecondition, "FailedPrecondition"},
      {Status::OutOfRange("big"), StatusCode::kOutOfRange, "OutOfRange"},
      {Status::Internal("bug"), StatusCode::kInternal, "Internal"},
      {Status::Unavailable("shard down"), StatusCode::kUnavailable,
       "Unavailable"},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    // ToString renders "<code>: <message>".
    EXPECT_NE(c.status.ToString().find(c.name), std::string::npos)
        << c.status.ToString();
    EXPECT_NE(c.status.ToString().find(c.status.message()),
              std::string::npos);
  }
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::IOError("a"), Status::IOError("b"));
  EXPECT_FALSE(Status::IOError("a") == Status::NotFound("a"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.status().message(), "nope");
}

TEST(ResultTest, ArrowAndMutation) {
  Result<std::string> r(std::string("abc"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 3u);
  r.value() += "d";
  EXPECT_EQ(*r, "abcd");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(ResultTest, ErrorPropagationPattern) {
  // The codebase-wide idiom: check ok(), forward status() upward.
  auto fails = []() -> Result<int> {
    return Status::InvalidArgument("inner failure");
  };
  auto caller = [&]() -> Status {
    Result<int> r = fails();
    if (!r.ok()) return r.status();
    return Status::OK();
  };
  Status s = caller();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "inner failure");
}

// ParseUnsignedToken's messages, byte for byte: one per failure kind.
TEST(ParseUnsignedTokenTest, PinsEveryFailureMessage) {
  struct Case {
    const char* token;
    StatusCode code;
    const char* message;
  };
  const Case cases[] = {
      {"", StatusCode::kInvalidArgument, "rows.txt:7: empty numeric token"},
      {"-3", StatusCode::kInvalidArgument,
       "rows.txt:7: signed value '-3' (ids must be plain non-negative)"},
      {"+3", StatusCode::kInvalidArgument,
       "rows.txt:7: signed value '+3' (ids must be plain non-negative)"},
      {"12x", StatusCode::kInvalidArgument,
       "rows.txt:7: non-numeric token '12x'"},
      {"99999999999999999999", StatusCode::kOutOfRange,
       "rows.txt:7: value '99999999999999999999' overflows uint64"},
      {"1001", StatusCode::kOutOfRange,
       "rows.txt:7: value 1001 exceeds the maximum of 1000"},
  };
  for (const Case& c : cases) {
    uint64_t out = 42;
    Status s = ParseUnsignedToken(c.token, 1000, "rows.txt", 7, &out);
    EXPECT_EQ(s.code(), c.code) << c.token;
    EXPECT_EQ(s.message(), c.message);
    EXPECT_EQ(out, 42u) << "failure must not write the output";
  }
  uint64_t out = 0;
  ASSERT_TRUE(ParseUnsignedToken("1000", 1000, "rows.txt", 7, &out).ok());
  EXPECT_EQ(out, 1000u);
}

}  // namespace
}  // namespace hgm
