#pragma once

/// \file error.hpp
/// Error handling for the WSMD library.
///
/// The library throws `wsmd::Error` (derived from std::runtime_error) for
/// precondition violations and unrecoverable runtime failures. The
/// WSMD_REQUIRE macro is the standard way to express a checked precondition:
/// it is always active (also in Release builds) because the library is used
/// as the ground truth for physics verification and silent corruption is far
/// more expensive than the branch.

#include <sstream>
#include <stdexcept>
#include <string>

namespace wsmd {

/// Exception type thrown by all WSMD components.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// An output file could not be written in full (a full disk, a closed
/// pipe). Writers check their stream after flushing it, so a run never
/// ends cleanly with its output silently missing.
class WriteError : public Error {
 public:
  WriteError(const std::string& path, const std::string& detail)
      : Error(message(path, detail)), path_(path) {}
  /// The file that failed.
  const std::string& path() const { return path_; }

 private:
  static std::string message(const std::string& path,
                             const std::string& detail) {
    std::ostringstream os;
    os << "write to '" << path << "' failed";
    if (!detail.empty()) os << " (" << detail << ")";
    return os.str();
  }
  std::string path_;
};

namespace detail {
[[noreturn]] inline void throw_error(const char* cond, const char* file,
                                     int line, const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": requirement failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace wsmd

/// Checked precondition: throws wsmd::Error when `cond` is false. The
/// message argument may use stream syntax: WSMD_REQUIRE(n > 0, "n=" << n).
#define WSMD_REQUIRE(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::ostringstream wsmd_require_os_;                                   \
      wsmd_require_os_ << msg;                                               \
      ::wsmd::detail::throw_error(#cond, __FILE__, __LINE__,                 \
                                  wsmd_require_os_.str());                   \
    }                                                                        \
  } while (false)
