/**
 * @file
 * The control plane's product: one merged TraceReport per reconciled
 * trace request (paper §4). The controller that produces it is
 * ShardedMaster (cluster/shard/sharded_master.h); the durability plane
 * serializes it (durability/wal.h, putReport) and every byte-identity
 * check in the repository compares these.
 */
#ifndef EXIST_CLUSTER_MASTER_H
#define EXIST_CLUSTER_MASTER_H

#include <cstdint>
#include <string>
#include <vector>

#include "util/types.h"

namespace exist {

/** The merged outcome of one reconciled trace request. */
struct TraceReport {
    std::uint64_t request_id = 0;
    std::string app;
    Cycles period = 0;
    std::vector<NodeId> traced_nodes;
    std::vector<double> per_worker_accuracy;
    /** Wall accuracy of the merged profile vs the merged reference. */
    double merged_accuracy = 0.0;
    std::vector<std::uint64_t> merged_function_insns;
    /** Merged exhaustive reference across workers (for re-scoring
     *  subsets, e.g. the Fig. 20 sweep). */
    std::vector<std::uint64_t> merged_truth_function_insns;
    std::uint64_t total_trace_bytes = 0;
    /** Mean slowdown observed on the traced pods (sanity telemetry). */
    double mean_target_cpi = 0.0;

    bool operator==(const TraceReport &) const = default;
};

}  // namespace exist

#endif  // EXIST_CLUSTER_MASTER_H
