#pragma once

/// \file log.hpp
/// Minimal leveled logger. Thread-safe; every message is formatted into a
/// single line ("[aeqp LEVEL t=SECONDS r<rank>] message") and routed
/// through one sink. The default sink writes to stderr; set_sink redirects
/// the stream (test capture, file logging) without touching call sites.
/// Timestamps (seconds since the first logged line) are off unless the
/// AEQP_LOG_TS environment variable is set (and not "0"). Lines emitted
/// from a simmpi rank thread (common/thread_ident.hpp) carry an "r<rank>"
/// prefix so interleaved rank output stays attributable.
/// Benchmarks and examples raise the level to keep figure output clean.

#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace aeqp {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Receives every formatted line (no trailing newline). Runs under the log
/// mutex: keep it fast and never log from inside it.
using LogSink = std::function<void(LogLevel, const std::string& line)>;

/// Global log configuration. Levels below the threshold are discarded.
class Log {
public:
  static void set_level(LogLevel lvl);
  static LogLevel level();

  /// Replace the output sink; an empty function restores the stderr default.
  static void set_sink(LogSink sink);

  static void write(LogLevel lvl, const std::string& msg);

private:
  static std::mutex mutex_;
  static LogLevel level_;
  static LogSink sink_;
};

namespace detail {
class LogLine {
public:
  explicit LogLine(LogLevel lvl) : lvl_(lvl) {}
  ~LogLine() { Log::write(lvl_, os_.str()); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

private:
  LogLevel lvl_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace aeqp

#define AEQP_LOG_DEBUG ::aeqp::detail::LogLine(::aeqp::LogLevel::Debug)
#define AEQP_LOG_INFO ::aeqp::detail::LogLine(::aeqp::LogLevel::Info)
#define AEQP_LOG_WARN ::aeqp::detail::LogLine(::aeqp::LogLevel::Warn)
#define AEQP_LOG_ERROR ::aeqp::detail::LogLine(::aeqp::LogLevel::Error)
