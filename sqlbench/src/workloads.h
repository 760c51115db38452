#ifndef SQLBENCH_WORKLOADS_H_
#define SQLBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>

#include "runner.h"

namespace sqlbench {

// Constructors behind MakeWorkload. `scale` multiplies every generated
// size (1.0 for the benchmark; the driver's tests use small scales);
// `seconds` bounds how many points the iot_serving writer may need.
std::unique_ptr<Workload> MakeScanAgg(uint64_t seed, double scale);
std::unique_ptr<Workload> MakeMergeJoin(uint64_t seed, double scale);
std::unique_ptr<Workload> MakeColdScan(uint64_t seed, double scale,
                                       const std::string& scratch_dir);
std::unique_ptr<Workload> MakeIotServing(uint64_t seed, double scale,
                                         double seconds,
                                         const std::string& scratch_dir);

/// FNV-1a over every generated input of `w` after Setup(): the points of
/// each series and the SQL of the first queries each client would issue.
uint64_t InputHash(Workload* w);

}  // namespace sqlbench

#endif  // SQLBENCH_WORKLOADS_H_
