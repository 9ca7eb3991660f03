#include "obs/log.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <mutex>

#include <sys/time.h>
#include <unistd.h>

#include "common/json.h"
#include "common/strings.h"

namespace ndp::obs {

namespace {

std::atomic<int> g_level{static_cast<int>(LogLevel::kInfo)};
std::atomic<int> g_format{static_cast<int>(LogFormat::kText)};
std::atomic<int> g_fd{2};
std::atomic<bool> g_env_applied{false};

/// Serializes emission only — formatting happens outside, per caller.
std::mutex& sink_mutex() {
  static std::mutex mu;
  return mu;
}

/// RFC3339 UTC with milliseconds: "2026-08-07T12:34:56.789Z".
void append_timestamp(std::string& out) {
  timeval tv{};
  ::gettimeofday(&tv, nullptr);
  std::tm tm{};
  const std::time_t secs = tv.tv_sec;
  ::gmtime_r(&secs, &tm);
  char date[32];
  const std::size_t n =
      std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%S", &tm);
  out.append(date, n);
  // Milliseconds bounded to three digits, so the buffer provably fits.
  char millis[8];
  std::snprintf(millis, sizeof millis, ".%03uZ",
                static_cast<unsigned>(tv.tv_usec) / 1000u % 1000u);
  out += millis;
}

/// Text-format values: bare when they scan as one token, quoted (with JSON
/// escapes, which cover '"' and control bytes) otherwise.
bool needs_quotes(std::string_view v) {
  if (v.empty()) return true;
  for (char c : v)
    if (c == ' ' || c == '"' || c == '=' ||
        static_cast<unsigned char>(c) < 0x20)
      return true;
  return false;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

}  // namespace

const char* to_string(LogLevel l) {
  switch (l) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

bool parse_log_level(std::string_view text, LogLevel& out) {
  for (LogLevel l : {LogLevel::kTrace, LogLevel::kDebug, LogLevel::kInfo,
                     LogLevel::kWarn, LogLevel::kError, LogLevel::kOff}) {
    if (iequals(text, to_string(l))) {
      out = l;
      return true;
    }
  }
  return false;
}

LogLevel log_level() {
  if (!g_env_applied.load(std::memory_order_acquire)) init_log_from_env();
  return static_cast<LogLevel>(g_level.load(std::memory_order_relaxed));
}

void set_log_level(LogLevel l) {
  g_env_applied.store(true, std::memory_order_release);
  g_level.store(static_cast<int>(l), std::memory_order_relaxed);
}

LogFormat log_format() {
  return static_cast<LogFormat>(g_format.load(std::memory_order_relaxed));
}

void set_log_format(LogFormat f) {
  g_format.store(static_cast<int>(f), std::memory_order_relaxed);
}

void set_log_fd(int fd) { g_fd.store(fd, std::memory_order_relaxed); }

void init_log_from_env() {
  // Threshold reads race only against other env applications of the same
  // value — last store wins and every outcome is the env's.
  const char* env = std::getenv("NDPSIM_LOG");
  if (env && *env) {
    std::string_view text(env);
    std::string_view level_part = text;
    const std::size_t comma = text.find(',');
    if (comma != std::string_view::npos) {
      level_part = text.substr(0, comma);
      const std::string_view fmt = text.substr(comma + 1);
      if (iequals(fmt, "json")) set_log_format(LogFormat::kJson);
      else if (iequals(fmt, "text")) set_log_format(LogFormat::kText);
    }
    LogLevel l;
    if (parse_log_level(level_part, l))
      g_level.store(static_cast<int>(l), std::memory_order_relaxed);
  }
  g_env_applied.store(true, std::memory_order_release);
}

LogLine::LogLine(LogLevel level, std::string_view event)
    : enabled_(log_enabled(level)), format_(log_format()) {
  if (!enabled_) return;
  line_.reserve(128);
  if (format_ == LogFormat::kJson) {
    line_ += "{\"ts\":\"";
    append_timestamp(line_);
    line_ += "\",\"level\":\"";
    line_ += to_string(level);
    line_ += "\",\"event\":\"";
    line_ += JsonWriter::escape(event);
    line_ += '"';
  } else {
    append_timestamp(line_);
    line_ += ' ';
    const char* name = to_string(level);
    for (const char* p = name; *p; ++p)
      line_ += static_cast<char>(*p - ('a' <= *p && *p <= 'z' ? 32 : 0));
    line_ += ' ';
    line_.append(event.data(), event.size());
  }
}

LogLine::~LogLine() {
  if (!enabled_) return;
  if (format_ == LogFormat::kJson) line_ += '}';
  line_ += '\n';
  const int fd = g_fd.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(sink_mutex());
  // One write for the whole line: concurrent loggers may reorder lines but
  // can never interleave within one. Partial writes (tiny lines, regular
  // fds/pipes) are completed; errors are swallowed — logging must never
  // take the process down.
  std::size_t off = 0;
  while (off < line_.size()) {
    const ssize_t n = ::write(fd, line_.data() + off, line_.size() - off);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
}

LogLine& LogLine::kv(std::string_view key, std::string_view value) {
  if (!enabled_) return *this;
  if (format_ == LogFormat::kJson) {
    line_ += ",\"";
    line_ += JsonWriter::escape(key);
    line_ += "\":\"";
    line_ += JsonWriter::escape(value);
    line_ += '"';
  } else {
    line_ += ' ';
    line_.append(key.data(), key.size());
    line_ += '=';
    if (needs_quotes(value)) {
      line_ += '"';
      line_ += JsonWriter::escape(value);
      line_ += '"';
    } else {
      line_.append(value.data(), value.size());
    }
  }
  return *this;
}

LogLine& LogLine::kv(std::string_view key, std::uint64_t value) {
  if (!enabled_) return *this;
  if (format_ == LogFormat::kJson) {
    line_ += ",\"";
    line_ += JsonWriter::escape(key);
    line_ += "\":";
    line_ += std::to_string(value);
  } else {
    line_ += ' ';
    line_.append(key.data(), key.size());
    line_ += '=';
    line_ += std::to_string(value);
  }
  return *this;
}

LogLine& LogLine::kv(std::string_view key, std::int64_t value) {
  if (!enabled_) return *this;
  if (format_ == LogFormat::kJson) {
    line_ += ",\"";
    line_ += JsonWriter::escape(key);
    line_ += "\":";
    line_ += std::to_string(value);
  } else {
    line_ += ' ';
    line_.append(key.data(), key.size());
    line_ += '=';
    line_ += std::to_string(value);
  }
  return *this;
}

LogLine& LogLine::kv(std::string_view key, double value) {
  if (!enabled_) return *this;
  if (format_ == LogFormat::kJson) {
    line_ += ",\"";
    line_ += JsonWriter::escape(key);
    line_ += "\":";
    append_double(line_, value);
  } else {
    line_ += ' ';
    line_.append(key.data(), key.size());
    line_ += '=';
    append_double(line_, value);
  }
  return *this;
}

LogLine& LogLine::kv(std::string_view key, bool value) {
  if (!enabled_) return *this;
  if (format_ == LogFormat::kJson) {
    line_ += ",\"";
    line_ += JsonWriter::escape(key);
    line_ += "\":";
    line_ += value ? "true" : "false";
  } else {
    line_ += ' ';
    line_.append(key.data(), key.size());
    line_ += '=';
    line_ += value ? "true" : "false";
  }
  return *this;
}

}  // namespace ndp::obs
