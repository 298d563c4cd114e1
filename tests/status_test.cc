// Copyright 2026 The ConsensusDB Authors

#include "common/status.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/result.h"

namespace cpdb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad k");
}

TEST(StatusTest, CopySemantics) {
  Status a = Status::NotFound("x");
  Status b = a;
  EXPECT_EQ(a, b);
  a = Status::OK();
  EXPECT_TRUE(a.ok());
  EXPECT_FALSE(b.ok());
  EXPECT_EQ(b.message(), "x");
}

// Copies share the immutable error record: a batch pre-filled with one
// placeholder error costs no allocation per slot, and every slot still
// reports that error.
TEST(StatusTest, CopiesShareTheErrorRecord) {
  Status a = Status::Internal("request not executed");
  Status b = a;
  EXPECT_EQ(&a.message(), &b.message());
  std::vector<Result<int>> slots(3, Result<int>(a));
  for (const Result<int>& slot : slots) {
    EXPECT_EQ(slot.status(), a);
    EXPECT_EQ(&slot.status().message(), &a.message());
  }
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::AlreadyExists("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::ResourceExhausted("").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::NotImplemented("").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::ParseError("").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::Internal("").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Infeasible("").code(), StatusCode::kInfeasible);
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status {
    CPDB_RETURN_NOT_OK(Status::Internal("inner"));
    return Status::OK();
  };
  EXPECT_EQ(fails().code(), StatusCode::kInternal);
  auto succeeds = []() -> Status {
    CPDB_RETURN_NOT_OK(Status::OK());
    return Status::AlreadyExists("outer");
  };
  EXPECT_EQ(succeeds().code(), StatusCode::kAlreadyExists);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::OutOfRange("nope");
    return 10;
  };
  auto outer = [&](bool fail) -> Result<int> {
    CPDB_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 11);
  EXPECT_EQ(outer(true).status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace cpdb
