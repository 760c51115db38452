#ifndef ETSQP_COMMON_STATUS_H_
#define ETSQP_COMMON_STATUS_H_

#include <cassert>
#include <string>
#include <utility>

namespace etsqp {

/// Error category for operations in the ETSQP library. Modeled after the
/// Status idiom used by embedded database engines: fallible operations return
/// a `Status` (or a `Result<T>`) instead of throwing, so hot decode paths can
/// stay exception-free.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kCorruption,       // malformed encoded bytes
  kOutOfRange,       // position past end of sequence
  kOverflow,         // aggregation overflow (paper Section VI-C)
  kNotSupported,
  kNotFound,
  kIoError,
  kInternal,
  kFailedPrecondition,  // operation needs state the caller does not hold
  kAborted,             // optimistic operation lost its race; retryable
};

/// Returns a stable human-readable name for `code` ("Ok", "Corruption", ...).
const char* StatusCodeName(StatusCode code);

/// Result of a fallible operation: a code plus an optional message. The OK
/// status carries no allocation and is cheap to copy.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Overflow(std::string msg) {
    return Status(StatusCode::kOverflow, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Accessing the value of an
/// errored result is a programming error (asserted in debug builds).
template <typename T>
class Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires a non-OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return value_;
  }
  T& value() & {
    assert(ok());
    return value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(value_);
  }

 private:
  Status status_;
  T value_{};
};

/// Propagates a non-OK status to the caller.
#define ETSQP_RETURN_IF_ERROR(expr)             \
  do {                                          \
    ::etsqp::Status _st = (expr);               \
    if (!_st.ok()) return _st;                  \
  } while (0)

}  // namespace etsqp

#endif  // ETSQP_COMMON_STATUS_H_
