// Spans of the traced replay. The replay records one span per call into a
// library layer, kept in memory and written out when the benchmark ends;
// see README.md ("Trace format") for the file layout.
#ifndef TOPOBENCH_E2E_TRACE_H
#define TOPOBENCH_E2E_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic nanoseconds since the first call in this process.
[[nodiscard]] std::int64_t now_ns();

/// Container spans group layer spans; their self time belongs to no layer.
inline constexpr const char* kCellSpan = "cell";
inline constexpr const char* kJobSpan = "job";

struct Span {
  const char* name = "";  ///< A string literal: a layer or container name.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< Index of the parent span in its log; -1 for a root.
  int cell = -1;    ///< Cell index within the job; -1 when not cell-bound.
  /// CPU time of the opening thread inside the span (while the span is
  /// open: that thread's CPU clock at the start).
  std::int64_t cpu_ns = 0;
};

/// An append-only span list owned by one thread at a time.
class SpanLog {
 public:
  int open(const char* name, int parent, int cell);
  void close(int id);
  /// Appends `other`'s spans, rebasing their parent indices.
  void append(const SpanLog& other);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, int parent, int cell)
      : log_(log), id_(log.open(name, parent, cell)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Where the time of one span log went.
struct SpanSummary {
  /// Every layer span's duration (ms), by layer name. Layer spans have no
  /// children, so a duration is also the layer's self time.
  std::map<std::string, std::vector<double>> layer_ms;
  std::vector<double> cell_ms;  ///< Time in "cell" spans, per cell (ms).
  double root_ms = 0.0;         ///< Sum of all root durations.
  double unattributed_ms = 0.0; ///< Sum of container self time.
  double layer_cpu_ms = 0.0;    ///< Sum of layer spans' thread CPU time.
};

[[nodiscard]] SpanSummary summarize_spans(const std::vector<Span>& spans);

/// Writes `{"workload": ..., "spans": [{name, start_ns, end_ns, parent,
/// cell}, ...]}` to `path`; returns false when the file cannot be written.
bool write_trace_file(const std::string& path, const std::string& workload,
                      const std::vector<Span>& spans);

}  // namespace e2e

#endif  // TOPOBENCH_E2E_TRACE_H
