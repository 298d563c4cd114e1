// Copyright 2026 The ConsensusDB Authors
//
// Status-based error model in the style of Arrow / RocksDB: fallible
// operations return a Status (or a Result<T>, see result.h) instead of
// throwing. The public API of the library never throws across module
// boundaries.

#ifndef CPDB_COMMON_STATUS_H_
#define CPDB_COMMON_STATUS_H_

#include <memory>
#include <string>
#include <utility>

namespace cpdb {

/// \brief Machine-readable classification of an error.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,
  kOutOfRange = 2,
  kNotFound = 3,
  kAlreadyExists = 4,
  kResourceExhausted = 5,
  kNotImplemented = 6,
  kParseError = 7,
  kInternal = 8,
  kInfeasible = 9,
};

/// \brief Returns a short human-readable name for a StatusCode
/// (e.g. "Invalid argument").
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of a fallible operation: either OK or a code plus message.
///
/// The OK state carries no allocation; error states carry a heap-allocated,
/// immutable code-and-message record that copies share, so copying an error
/// (a Result::status() read, a batch pre-filled with one placeholder error)
/// is a reference-count bump, never an allocation.
class Status {
 public:
  /// Constructs an OK status.
  Status() noexcept = default;

  Status(StatusCode code, std::string msg);

  Status(const Status& other) = default;
  Status& operator=(const Status& other) = default;
  Status(Status&& other) noexcept = default;
  Status& operator=(Status&& other) noexcept = default;

  /// \brief Returns an OK status.
  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }

  /// \brief True iff this status represents success.
  bool ok() const { return rep_ == nullptr; }

  StatusCode code() const { return rep_ == nullptr ? StatusCode::kOk : rep_->code; }

  /// \brief The error message; empty for OK statuses.
  const std::string& message() const;

  /// \brief "OK" or "<code name>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct Rep {
    StatusCode code;
    std::string message;
  };
  std::shared_ptr<const Rep> rep_;  // nullptr <=> OK
};

}  // namespace cpdb

/// \brief Propagates a non-OK Status out of the enclosing function.
#define CPDB_RETURN_NOT_OK(expr)                 \
  do {                                           \
    ::cpdb::Status _st = (expr);                 \
    if (!_st.ok()) return _st;                   \
  } while (0)

#endif  // CPDB_COMMON_STATUS_H_
