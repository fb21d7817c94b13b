#include "trace.h"

#include <time.h>

#include <chrono>
#include <cstring>
#include <fstream>

#include "util/json.h"

namespace e2e {

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

namespace {

std::int64_t thread_cpu_ns() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

}  // namespace

int SpanLog::open(const char* name, int parent, int cell) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.cell = cell;
  span.cpu_ns = thread_cpu_ns();
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  span.cpu_ns = thread_cpu_ns() - span.cpu_ns;
}

void SpanLog::append(const SpanLog& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

SpanSummary summarize_spans(const std::vector<Span>& spans) {
  const auto ms = [](const Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  };
  const auto container = [](const Span& s) {
    return std::strcmp(s.name, kCellSpan) == 0 ||
           std::strcmp(s.name, kJobSpan) == 0;
  };
  SpanSummary out;
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += ms(span);
    }
  }
  // A sweep cell can have several "cell" spans (its load pass and its
  // compute pass); its time is their sum.
  std::map<int, double> per_cell;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.parent < 0) out.root_ms += ms(span);
    if (container(span)) {
      out.unattributed_ms += ms(span) - child_ms[i];
      if (std::strcmp(span.name, kCellSpan) == 0) per_cell[span.cell] += ms(span);
    } else {
      out.layer_ms[span.name].push_back(ms(span));
      out.layer_cpu_ms += static_cast<double>(span.cpu_ns) / 1e6;
    }
  }
  for (const auto& [cell, total] : per_cell) out.cell_ms.push_back(total);
  return out;
}

bool write_trace_file(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"workload\": " << topo::json_string(workload) << ", \"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i > 0 ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"cell\": " << s.cell << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace e2e
