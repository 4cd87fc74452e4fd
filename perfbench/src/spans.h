// In-memory spans for the traced run.
//
// The traced run times the benchmark's own calls into each library module
// (the program itself carries no extra instrumentation). A span records a
// name, start, end, the span open around it and the request it belongs to;
// spans stay in memory and are written once, at the end, as Chrome
// trace-event JSON (chrome://tracing or ui.perfetto.dev open it).
// Single-threaded: the traced replay runs on one thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long request = -1;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  int begin(const char* name, long request);
  void end(int span);
  const std::vector<Span>& spans() const { return spans_; }

  /// One row per span name: calls, busy time (sum of durations) and self
  /// time (busy time not covered by child spans).
  struct Row {
    std::string name;
    long calls = 0;
    double busy_us = 0.0;
    double self_us = 0.0;
  };
  std::vector<Row> rows() const;

  /// Write every span as a Chrome trace-event "X" event; false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanRecorder& rec, const char* name, long request)
      : rec_(rec), id_(rec.begin(name, request)) {}
  ~Scoped() { rec_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

}  // namespace perfbench
