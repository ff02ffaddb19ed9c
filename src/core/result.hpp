// Unified error convention for the public (gateway-facing) API.
//
// Before the saiyan::Gateway facade, every subsystem reported failure
// its own way: TraceReader/TraceWriter mixed exceptions with bool
// returns, the streaming demodulator counted problems in IngestStats,
// and config mistakes surfaced as std::invalid_argument from whichever
// layer noticed first. saiyan::Result<T> is the one convention at the
// public boundary: an operation either yields a value or an Error that
// carries a human-readable message plus, when the failure came from
// the ingest path, the IngestError class that caused it — so a caller
// can branch on the taxonomy without parsing strings.
//
// Exceptions remain the convention for programmer errors (calling
// value() on a failed Result, writing to a closed TraceWriter); Result
// is for failures the environment can produce: missing files, corrupt
// headers, full disks, bad configuration.
#pragma once

#include <stdexcept>
#include <string>
#include <optional>
#include <utility>

#include "stream/ingest_stats.hpp"

namespace saiyan {

/// The value type of a Result that carries no payload (Result<Unit> is
/// this API's "status" return).
struct Unit {};

struct Error {
  std::string message;
  /// Ingest-taxonomy class when the failure came from trace/stream
  /// parsing; kNone for config/protocol/system failures.
  stream::IngestError ingest = stream::IngestError::kNone;
};

template <typename T>
class [[nodiscard]] Result {
 public:
  /// Success. Implicit so call sites read `return value;`.
  Result(T value) : value_(std::move(value)) {}
  /// Failure. Implicit so call sites read `return fail(...)`.
  Result(Error error) : error_(std::move(error)) {}

  bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  /// The success value; throws std::logic_error on a failed Result
  /// (accessing an error as a value is a programmer error, not an
  /// environment failure).
  const T& value() const& { return *checked(); }
  T& value() & { return *checked(); }
  T&& value() && { return std::move(*checked()); }

  T value_or(T fallback) const& { return ok() ? *value_ : fallback; }

  /// The failure; throws std::logic_error on a successful Result.
  const Error& error() const {
    if (ok()) throw std::logic_error("Result::error() on success");
    return error_;
  }

  /// "" on success, the error message otherwise — printable either way.
  const std::string& message() const { return error_.message; }

 private:
  const T* checked() const {
    if (!ok()) {
      throw std::logic_error("Result::value() on error: " + error_.message);
    }
    return &*value_;
  }
  T* checked() {
    return const_cast<T*>(static_cast<const Result*>(this)->checked());
  }

  // Exactly one is meaningful: value_ on success, error_ otherwise (a
  // success keeps a default Error, so message() reads "").
  std::optional<T> value_;
  Error error_;
};

/// Build a failed Result (deduced at the return site).
inline Error fail(std::string message,
                  stream::IngestError ingest = stream::IngestError::kNone) {
  return Error{std::move(message), ingest};
}

/// Successful no-payload Result.
inline Result<Unit> ok() { return Result<Unit>(Unit{}); }

}  // namespace saiyan
