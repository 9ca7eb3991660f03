// In-memory span recorder for the benchmark's traced run.
//
// A span is one call into a layer's public API, timed from outside: its
// name, start, end, the span that was open on the same thread when it began
// (its parent), and a trace id shared by every span of one cell or request.
// Spans stay in memory while the run executes and are written out once, as
// Chrome trace-event JSON (loadable in Perfetto), when the run ends — so the
// only cost on the measured path is two clock reads and one locked append.
//
// Self time is a span's duration minus the part of it its children cover;
// summing self time by name is how the traced run attributes a cell's wall
// time to layers without double counting nested calls.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (all span timestamps use this).
std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t trace = 0;   ///< shared by the spans of one cell/request
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  unsigned tid = 0;  ///< dense per-thread id (Chrome "tid")
};

class Tracer {
 public:
  /// Record an interval observed rather than wrapped (e.g. "send to first
  /// streamed cell"). Returns the new span's id.
  std::uint64_t add(std::string name, std::uint64_t trace,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);
  std::uint64_t next_trace_id() { return next_trace_++; }

  std::vector<Span> spans() const;
  /// Self time (ns) of every span, keyed by span id.
  std::map<std::uint64_t, std::int64_t> self_ns() const;
  /// Self time summed per span name, in milliseconds.
  std::map<std::string, double> self_ms_by_name() const;
  /// Chrome trace-event JSON with ids, parents, traces and self time in
  /// each event's args. False when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  friend class ScopedSpan;
  std::uint64_t reserve_id();

  mutable std::mutex mu_;  ///< guards spans_ and the id counters
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_trace_ = 1;
};

/// RAII span around one call. The enclosing ScopedSpan on this thread, if
/// any, becomes the parent; `trace` 0 inherits the parent's trace id.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t trace = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }
  std::uint64_t trace() const { return trace_; }
  std::int64_t start_ns() const { return start_; }

 private:
  Tracer& tracer_;
  std::string name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t trace_;
  ScopedSpan* prev_;
  std::int64_t start_;
};

}  // namespace perfbench
