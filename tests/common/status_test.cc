#include "wsq/common/status.h"

#include <set>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

namespace wsq {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, FactoryConstructorsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::RemoteFault("x").code(), StatusCode::kRemoteFault);

  Status s = Status::NotFound("missing table");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.message(), "missing table");
  EXPECT_EQ(s.ToString(), "not_found: missing table");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
  EXPECT_EQ(Status::Ok(), Status());
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeName(StatusCode::kOk), "ok");
  EXPECT_EQ(StatusCodeName(StatusCode::kInvalidArgument), "invalid_argument");
  EXPECT_EQ(StatusCodeName(StatusCode::kRemoteFault), "remote_fault");
}

TEST(StatusTest, EveryCodeHasADistinctName) {
  const Status errors[] = {
      Status::InvalidArgument("m"), Status::NotFound("m"),
      Status::OutOfRange("m"),      Status::FailedPrecondition("m"),
      Status::Internal("m"),        Status::Unavailable("m"),
      Status::RemoteFault("m")};
  std::set<std::string_view> names = {StatusCodeName(StatusCode::kOk)};
  for (const Status& error : errors) {
    const std::string_view name = StatusCodeName(error.code());
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << name;
    // ToString leads with the code's name.
    EXPECT_EQ(error.ToString(), std::string(name) + ": m");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).value();
  EXPECT_EQ(v, "payload");
}

TEST(ResultTest, AccessingErrorValueDies) {
  Result<int> r = Status::Internal("boom");
  EXPECT_DEATH({ (void)r.value(); }, "Result::value");
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::Ok();
}

Status UsesReturnIfError(int x) {
  WSQ_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace wsq
