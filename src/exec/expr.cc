#include "exec/expr.h"

#include <cinttypes>
#include <cstdio>

namespace etsqp::exec {

const char* AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kVariance:
      return "VAR";
  }
  return "?";
}

namespace {

void AppendField(std::string* out, const char* name, uint64_t value,
                 bool* first) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": %" PRIu64, *first ? "" : ", ",
                name, value);
  *first = false;
  *out += buf;
}

}  // namespace

std::string ExecStats::ToJson() const {
  std::string out = "{";
  bool first = true;
  AppendField(&out, "pages_total", pages_total, &first);
  AppendField(&out, "pages_pruned", pages_pruned, &first);
  AppendField(&out, "blocks_pruned", blocks_pruned, &first);
  AppendField(&out, "tuples_in_pages", tuples_in_pages, &first);
  AppendField(&out, "tuples_scanned", tuples_scanned, &first);
  AppendField(&out, "bytes_loaded", bytes_loaded, &first);
  AppendField(&out, "result_tuples", result_tuples, &first);
  AppendField(&out, "tail_tuples", tail_tuples, &first);
  AppendField(&out, "tail_tuples_scanned", tail_tuples_scanned, &first);
  AppendField(&out, "pages_pruned_deleted", pages_pruned_deleted, &first);
  AppendField(&out, "deleted_tuples_masked", deleted_tuples_masked, &first);
  AppendField(&out, "merge_pages_skipped", merge_pages_skipped, &first);
  AppendField(&out, "merge_pairs_fused", merge_pairs_fused, &first);
  AppendField(&out, "wall_nanos", wall_nanos, &first);
  AppendField(&out, "threads", static_cast<uint64_t>(threads > 0 ? threads : 0),
              &first);
  AppendField(&out, "pool_workers",
              static_cast<uint64_t>(pool_workers > 0 ? pool_workers : 0),
              &first);
  AppendField(&out, "cache_hits", cache_hits, &first);
  AppendField(&out, "cache_misses", cache_misses, &first);
  AppendField(&out, "cache_evictions", cache_evictions, &first);
  out += ", \"pool\": {";
  bool pfirst = true;
  AppendField(&out, "tasks", pool.tasks, &pfirst);
  AppendField(&out, "steals", pool.steals, &pfirst);
  AppendField(&out, "parks", pool.parks, &pfirst);
  AppendField(&out, "park_nanos", pool.park_nanos, &pfirst);
  out += "}";
  if (!scheduler.empty()) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), ", \"mispredictions\": %" PRIu64,
                  mispredictions);
    out += buf;
    out += ", \"scheduler\": {";
    bool cfirst = true;
    for (const auto& [key, s] : scheduler) {
      if (!cfirst) out += ", ";
      cfirst = false;
      out += '"';
      out += key;
      out += "\": {\"entry\": \"";
      out += s.entry;
      out += '"';
      bool sfirst = false;
      AppendField(&out, "jobs", s.jobs, &sfirst);
      AppendField(&out, "tuples", s.tuples, &sfirst);
      AppendField(&out, "predicted_nanos",
                  static_cast<uint64_t>(s.predicted_nanos), &sfirst);
      AppendField(&out, "measured_nanos", s.measured_nanos, &sfirst);
      AppendField(&out, "mispredictions", s.mispredictions, &sfirst);
      out += "}";
    }
    out += "}";
  }
  out += ", \"stages\": {";
  for (int i = 0; i < metrics::kNumStages; ++i) {
    const metrics::StageStats& s = stages.stages[i];
    if (i > 0) out += ", ";
    out += '"';
    out += metrics::StageName(static_cast<metrics::Stage>(i));
    out += "\": {";
    bool sfirst = true;
    AppendField(&out, "nanos", s.nanos, &sfirst);
    AppendField(&out, "calls", s.calls, &sfirst);
    AppendField(&out, "tuples", s.tuples, &sfirst);
    AppendField(&out, "bytes", s.bytes, &sfirst);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace etsqp::exec
