// Copyright 2026 The ConsensusDB Authors

#include "common/status.h"

namespace cpdb {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "Invalid argument";
    case StatusCode::kOutOfRange:
      return "Out of range";
    case StatusCode::kNotFound:
      return "Not found";
    case StatusCode::kAlreadyExists:
      return "Already exists";
    case StatusCode::kResourceExhausted:
      return "Resource exhausted";
    case StatusCode::kNotImplemented:
      return "Not implemented";
    case StatusCode::kParseError:
      return "Parse error";
    case StatusCode::kInternal:
      return "Internal error";
    case StatusCode::kInfeasible:
      return "Infeasible";
  }
  return "Unknown";
}

Status::Status(StatusCode code, std::string msg) {
  if (code != StatusCode::kOk) {
    rep_ = std::make_shared<const Rep>(Rep{code, std::move(msg)});
  }
}

const std::string& Status::message() const {
  static const std::string kEmpty;
  return rep_ == nullptr ? kEmpty : rep_->message;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  return out;
}

}  // namespace cpdb
