// The three perfbench workloads. Each fills `out` with the raw result
// document (samples, counters, the output-check outcome); the Python front
// end turns it into the reported metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"
#include "obs/metrics.h"

namespace perfbench {

int RunGridJoin(const Args& args, JsonObject* out);
int RunServeLongtail(const Args& args, JsonObject* out);
int RunServeRepeat(const Args& args, JsonObject* out);

/// The serve.* counters and histogram summaries of a metrics snapshot.
JsonObject SnapshotServeMetrics(const dtt::obs::MetricsSnapshot& snapshot);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
