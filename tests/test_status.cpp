// Status/Result, the error tier every fallible serving entry point
// returns through: codes, messages, value-or-status access, and
// JIGSAW_RETURN_IF_ERROR propagation.
#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/status.hpp"

namespace jigsaw {
namespace {

TEST(Status, DefaultIsOkAndCarriesMessages) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status().code(), StatusCode::kOk);
  const Status s(StatusCode::kInvalidFormat, "panel 3 is bad");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidFormat);
  EXPECT_NE(s.to_string().find("panel 3 is bad"), std::string::npos);
  EXPECT_NE(s.to_string().find("invalid-format"), std::string::npos);
  EXPECT_EQ(s, Status(StatusCode::kInvalidFormat, "different message"));
}

TEST(Status, ResultHoldsValueOrStatus) {
  const auto make_good = [] { return Result<int>(41); };
  ASSERT_TRUE(make_good().ok());
  EXPECT_EQ(make_good().value(), 41);
  EXPECT_TRUE(make_good().status().ok());

  Result<int> bad(Status(StatusCode::kTruncatedStream, "short read"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTruncatedStream);

  // Wrong-side access and wrapping an OK status are contract violations
  // (programmer errors stay in the throwing tier).
  EXPECT_THROW(bad.value(), jigsaw::Error);
  const auto wrap_ok = [] { return Result<int>(Status()); };
  EXPECT_THROW(wrap_ok(), jigsaw::Error);
}

TEST(Status, ReturnIfErrorMacroPropagates) {
  const auto passthrough = [](Status s) -> Status {
    JIGSAW_RETURN_IF_ERROR(s);
    return Status(StatusCode::kInternal, "reached the end");
  };
  EXPECT_EQ(passthrough(Status(StatusCode::kIoError, "x")).code(),
            StatusCode::kIoError);
  EXPECT_EQ(passthrough(Status()).code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace jigsaw
