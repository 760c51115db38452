#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <utility>

namespace sqlbench {

int64_t Tracer::Record(const char* name, uint64_t start_ns, uint64_t end_ns,
                       int64_t parent, uint64_t query) {
  if (!on()) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, query});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const char* name, uint64_t start_ns, int64_t parent,
                     uint64_t query) {
  return Record(name, start_ns, start_ns, parent, query);
}

void Tracer::Close(int64_t id, uint64_t end_ns) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%" PRIu64 ",\"end_ns\":%" PRIu64
                 ",\"parent\":%" PRId64 ",\"query\":%" PRIu64 "}\n",
                 s.name, s.start_ns, s.end_ns, s.parent, s.query);
  }
  return std::fclose(f) == 0;
}

std::vector<uint64_t> SelfNanos(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(lo, spans[i].end_ns);
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = lo;  // everything before cursor is already counted
    for (auto [a, b] : kids) {
      a = std::clamp(a, cursor, hi);
      b = std::clamp(b, a, hi);
      covered += b - a;
      cursor = std::max(cursor, b);
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

}  // namespace sqlbench
