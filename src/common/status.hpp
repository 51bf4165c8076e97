// Non-throwing error tier used at trust boundaries.
//
// The library keeps two error tiers (see docs/ROBUSTNESS.md):
//   * JIGSAW_CHECK / jigsaw::Error (common/error.hpp) — programmer-contract
//     violations inside trusted code: misuse throws, callers never handle.
//   * Status / Result<T> (this header) — expected failures of untrusted
//     input: a corrupt serialized blob, a truncated stream, a reorder that
//     cannot satisfy 2:4. These are values, not exceptions, so a serving
//     loop can inspect the code, count the failure, degrade, and keep
//     running.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "common/error.hpp"

namespace jigsaw {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,     ///< caller-supplied parameter out of contract
  kInvalidFormat,       ///< structural invariant of the format is broken
  kTruncatedStream,     ///< serialized blob ends before its declared size
  kChecksumMismatch,    ///< section payload does not match its CRC32
  kUnsupportedVersion,  ///< blob version this build cannot read
  kReorderFailed,       ///< a panel exhausted the §3.2 reorder-retry
  kNumericalFault,      ///< non-finite or out-of-tolerance numeric result
  kIoError,             ///< file open/read/write failure
  kCapacityExhausted,   ///< a bounded resource (e.g. the plan cache) is full
  kInternal,            ///< invariant violation that indicates a bug
};

inline const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid-argument";
    case StatusCode::kInvalidFormat: return "invalid-format";
    case StatusCode::kTruncatedStream: return "truncated-stream";
    case StatusCode::kChecksumMismatch: return "checksum-mismatch";
    case StatusCode::kUnsupportedVersion: return "unsupported-version";
    case StatusCode::kReorderFailed: return "reorder-failed";
    case StatusCode::kNumericalFault: return "numerical-fault";
    case StatusCode::kIoError: return "io-error";
    case StatusCode::kCapacityExhausted: return "capacity-exhausted";
    case StatusCode::kInternal: return "internal";
  }
  return "?";
}

/// Error code plus human-readable detail. Default-constructed is OK.
/// The class itself is [[nodiscard]]: a dropped Status is a silently
/// swallowed failure, so every call site must consume or propagate it
/// (JIGSAW_RETURN_IF_ERROR). The build adds -Werror=unused-result, so a
/// dropped Status or Result is a compile error, not a warning.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  [[nodiscard]] static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    if (ok()) return "ok";
    std::string s = ::jigsaw::to_string(code_);
    if (!message_.empty()) {
      s += ": ";
      s += message_;
    }
    return s;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a value or a non-OK Status. Accessing the wrong side is a
/// programmer error (JIGSAW_CHECK), keeping the two tiers cleanly layered.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : state_(std::move(status)) {  // NOLINT
    JIGSAW_CHECK_MSG(!std::get<Status>(state_).ok(),
                     "Result constructed from an OK status without a value");
  }

  bool ok() const { return std::holds_alternative<T>(state_); }

  const Status& status() const {
    static const Status kOkStatus;
    return ok() ? kOkStatus : std::get<Status>(state_);
  }

  const T& value() const& {
    JIGSAW_CHECK_MSG(ok(), "Result::value() on error: " << status().to_string());
    return std::get<T>(state_);
  }
  T& value() & {
    JIGSAW_CHECK_MSG(ok(), "Result::value() on error: " << status().to_string());
    return std::get<T>(state_);
  }
  T&& take() && {
    JIGSAW_CHECK_MSG(ok(), "Result::take() on error: " << status().to_string());
    return std::get<T>(std::move(state_));
  }

 private:
  std::variant<Status, T> state_;
};

}  // namespace jigsaw

/// Propagates a non-OK Status out of a Status-returning function.
#define JIGSAW_RETURN_IF_ERROR(expr)              \
  do {                                            \
    ::jigsaw::Status status__ = (expr);           \
    if (!status__.ok()) return status__;          \
  } while (0)
