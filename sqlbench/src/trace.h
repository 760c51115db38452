#ifndef SQLBENCH_TRACE_H_
#define SQLBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sqlbench {

/// One timed call into a layer, recorded by the benchmark around a public
/// API call. `name` points at a string literal.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index of the causing span, -1 for a root
  uint64_t query = 0;   // query id shared by one query's spans; 0 = none
};

/// In-memory span log. Off, every call is a no-op returning -1; on, spans
/// append under a mutex and are written once, at the end of the run.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on) spans_.reserve(1 << 16);
  }

  bool on() const { return on_.load(std::memory_order_relaxed); }
  /// Pauses or resumes recording (a traced run's untraced phase).
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Records a finished span and returns its index.
  int64_t Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                 int64_t parent = -1, uint64_t query = 0);
  /// Opens a span whose end is not known yet (a parent); Close() ends it.
  int64_t Open(const char* name, uint64_t start_ns, int64_t parent = -1,
               uint64_t query = 0);
  void Close(int64_t id, uint64_t end_ns);

  std::vector<Span> spans() const;

  /// One JSON object per line: name, start/end (ns), parent, query id.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::atomic<bool> on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children clipped to the parent, overlapping
/// children counted once).
std::vector<uint64_t> SelfNanos(const std::vector<Span>& spans);

}  // namespace sqlbench

#endif  // SQLBENCH_TRACE_H_
