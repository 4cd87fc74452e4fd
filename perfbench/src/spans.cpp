#include "spans.h"

#include <cstdio>
#include <map>

namespace perfbench {

int SpanRecorder::begin(const char* name, long request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start_ns = now_ns();
  spans_.push_back(s);
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::end(int span) {
  spans_[static_cast<size_t>(span)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

std::vector<SpanRecorder::Row> SpanRecorder::rows() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, Row> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& row = by_name[s.name];
    row.name = s.name;
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    row.calls += 1;
    row.busy_us += dur / 1e3;
    row.self_us += (dur - child_ns[i]) / 1e3;
  }
  std::vector<Row> out;
  for (auto& [name, row] : by_name) out.push_back(row);
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%ld}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent, s.request);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
