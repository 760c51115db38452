#include "common/status.h"

namespace etsqp {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "Ok";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kOutOfRange:
      return "OutOfRange";
    case StatusCode::kOverflow:
      return "Overflow";
    case StatusCode::kNotSupported:
      return "NotSupported";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kIoError:
      return "IoError";
    case StatusCode::kInternal:
      return "Internal";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kAborted:
      return "Aborted";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "Ok";
  std::string s = StatusCodeName(code_);
  if (!message_.empty()) {
    s += ": ";
    s += message_;
  }
  return s;
}

}  // namespace etsqp
