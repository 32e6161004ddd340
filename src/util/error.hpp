// Error types and precondition checking used throughout ForestView.
//
// The library reports unrecoverable misuse (bad arguments, broken invariants)
// and environmental failures (I/O, parse errors) through exceptions rooted at
// fv::Error, so callers can catch one type at an application boundary.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace fv {

/// Root of the ForestView exception hierarchy.
class Error : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Filesystem / stream failures (file missing, short read, write failure).
class IoError : public Error {
 public:
  using Error::Error;
};

/// Malformed input data (PCL/CDT/OBO/GMT syntax errors). Carries the
/// 1-based line number when known; 0 means "not line-addressable".
class ParseError : public Error {
 public:
  ParseError(const std::string& message, std::size_t line = 0)
      : Error(line == 0 ? message
                        : "line " + std::to_string(line) + ": " + message),
        line_(line) {}

  /// 1-based source line of the problem, or 0 when unknown.
  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_ = 0;
};

/// Caller violated an API precondition.
class InvalidArgument : public Error {
 public:
  using Error::Error;
};

/// Internal invariant broke; indicates a bug in ForestView itself.
class LogicError : public Error {
 public:
  using Error::Error;
};

/// A bounded-wait operation's deadline expired before it completed (the
/// serving layer's job waits).
class TimeoutError : public Error {
 public:
  using Error::Error;
};

/// A bounded-capacity resource (the serving layer's job queue, its session
/// table) is full and admission was refused rather than queued unboundedly.
/// Always recoverable by retrying later — nothing was partially done. The
/// HTTP layer maps this to 503 Service Unavailable.
class OverloadedError : public Error {
 public:
  using Error::Error;
};

/// A message failed its envelope integrity check: the payload checksum no
/// longer matches what the sender sealed, so the bytes were truncated or
/// corrupted in transit. Surfaced *before* payload decoding, so consumers
/// never see a garbage PayloadReader stream.
class CorruptMessageError : public Error {
 public:
  using Error::Error;
};

/// A persisted artifact failed an integrity check at open: bad magic, a
/// header or payload checksum mismatch, a payload shorter than its header
/// claims, or a section layout that does not decode. The bytes on disk are
/// not trustworthy — consumers must quarantine the file and recompute from
/// inputs (the artifact store's load_or_compute helpers do exactly that).
class CorruptArtifactError : public Error {
 public:
  using Error::Error;
};

/// A persisted artifact is internally consistent but no longer usable: its
/// format version predates the current reader, or its sealed kind/key does
/// not match what the caller asked for (a renamed or collided file).
/// Recoverable by recomputing; the stale file is safe to delete.
class StaleArtifactError : public Error {
 public:
  using Error::Error;
};

/// A cooperating group (mpx ranks) was aborted while this participant was
/// blocked. Carries the rank whose failure originated the abort (-1 when the
/// abort was not attributed to a rank) so victims see *why* they died.
class AbortError : public Error {
 public:
  explicit AbortError(const std::string& message, int origin_rank = -1)
      : Error(message), origin_rank_(origin_rank) {}

  /// Rank whose failure triggered the abort, or -1 when unknown.
  int origin_rank() const noexcept { return origin_rank_; }

 private:
  int origin_rank_ = -1;
};

namespace detail {

[[noreturn]] inline void throw_check_failure(std::string_view kind,
                                             std::string_view expr,
                                             std::string_view file, int line,
                                             const std::string& message) {
  std::ostringstream os;
  os << kind << " failed: (" << expr << ") at " << file << ':' << line;
  if (!message.empty()) os << " — " << message;
  if (kind == "invariant") throw LogicError(os.str());
  throw InvalidArgument(os.str());
}

}  // namespace detail

}  // namespace fv

/// Validate a public API precondition; throws fv::InvalidArgument on failure.
#define FV_REQUIRE(cond, msg)                                               \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::fv::detail::throw_check_failure("precondition", #cond, __FILE__,    \
                                        __LINE__, std::string(msg));        \
    }                                                                       \
  } while (false)

/// Validate an internal invariant; throws fv::LogicError on failure.
#define FV_ASSERT(cond, msg)                                                \
  do {                                                                      \
    if (!(cond)) {                                                          \
      ::fv::detail::throw_check_failure("invariant", #cond, __FILE__,       \
                                        __LINE__, std::string(msg));        \
    }                                                                       \
  } while (false)

/// Debug-build-only precondition: checked like FV_REQUIRE in Debug builds,
/// compiled out entirely under NDEBUG. For checks on per-element hot paths
/// (e.g. condensed-index ordering) where a branch per access is measurable.
#ifdef NDEBUG
#define FV_DBG_REQUIRE(cond, msg) \
  do {                            \
  } while (false)
#else
#define FV_DBG_REQUIRE(cond, msg) FV_REQUIRE(cond, msg)
#endif
