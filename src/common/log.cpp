#include "common/log.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/thread_ident.hpp"

namespace aeqp {

std::mutex Log::mutex_;
LogLevel Log::level_ = LogLevel::Warn;
LogSink Log::sink_;

void Log::set_level(LogLevel lvl) {
  std::lock_guard<std::mutex> lock(mutex_);
  level_ = lvl;
}

LogLevel Log::level() {
  std::lock_guard<std::mutex> lock(mutex_);
  return level_;
}

void Log::set_sink(LogSink sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  sink_ = std::move(sink);
}

void Log::write(LogLevel lvl, const std::string& msg) {
  static const char* names[] = {"DEBUG", "INFO", "WARN", "ERROR"};
  static const bool timestamps = [] {
    const char* env = std::getenv("AEQP_LOG_TS");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  std::lock_guard<std::mutex> lock(mutex_);
  if (static_cast<int>(lvl) < static_cast<int>(level_)) return;

  std::string line = "[aeqp ";
  line += names[static_cast<int>(lvl)];
  if (timestamps) {
    // Seconds since the first logged line (steady clock).
    static const auto epoch = std::chrono::steady_clock::now();
    const double t = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - epoch)
                         .count();
    char buf[32];
    std::snprintf(buf, sizeof(buf), " t=%.3f", t);
    line += buf;
  }
  if (const int rank = thread_rank(); rank >= 0) {
    line += " r";
    line += std::to_string(rank);
  }
  line += "] ";
  line += msg;

  if (sink_) {
    sink_(lvl, line);
  } else {
    std::fprintf(stderr, "%s\n", line.c_str());
  }
}

}  // namespace aeqp
