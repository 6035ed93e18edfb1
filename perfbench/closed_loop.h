/**
 * @file
 * The end-to-end load generator: closed-loop clients pushing trace requests
 * through a ShardedMaster (submit -> reconcile -> report). Each client
 * waits for its report before it fires the next request. One reconcile
 * thread runs reconcile rounds back to back; one watcher thread sees
 * completions (phaseOf), stamps latencies and submits the clients'
 * next requests while a round is still running.
 */
#ifndef EXIST_PERFBENCH_CLOSED_LOOP_H
#define EXIST_PERFBENCH_CLOSED_LOOP_H

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/** One block of requests on a fresh control plane. */
struct Repetition {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;    ///< phase Failed
    std::uint64_t degraded = 0;  ///< collection fell back to the summary
    std::uint64_t digest = 0;    ///< over the block's ids, in order
    double window_s = 0.0;       ///< first submit -> last completion
    double cpu_s = 0.0;          ///< process user+sys over the window
    std::vector<double> latency_ms;  ///< submit -> Completed, per request
    std::vector<double> round_ms;    ///< reconcile() calls that had work
    std::uint64_t reconciled = 0;    ///< requests committed by rounds
    int threads_peak = 0;
    /** Durable workloads: recover() of this repetition's WAL. */
    double recover_s = 0.0;
    bool recovered_equal = true;
    /** Requests that failed, degraded or sit in a block whose digest
     *  is wrong (set by runClosedLoop). */
    std::uint64_t errors = 0;
    std::string error;
};

/**
 * Run `manifests` as request ids first_id, first_id+1, ... through a
 * fresh ShardedMaster; `wal_dir` is used (and wiped) when the workload
 * is durable.
 */
Repetition runRepetition(const Workload &w, std::uint64_t seed,
                         const std::vector<std::string> &manifests,
                         std::uint64_t first_id,
                         const std::string &wal_dir);

struct LoopResult {
    std::vector<Repetition> reps;  ///< in run order
    /** Digest of each block, from its first repetition. */
    std::vector<std::uint64_t> block_digests;
    std::uint64_t attempted = 0;
    std::uint64_t errors = 0;  ///< failed + degraded + digest mismatches
    double window_s = 0.0;
    double cpu_s = 0.0;
    std::vector<double> latency_ms;
    std::vector<double> round_ms;
    std::uint64_t reconciled = 0;
    int threads_peak = 0;
    std::vector<double> recover_s;
    std::string error;
};

/**
 * Run the stream's blocks in turn, one repetition each, until
 * `seconds` of wall time have passed and every block has run at least
 * once. Block b's digest must equal `expected[b]` when given, else its
 * first repetition's.
 */
LoopResult runClosedLoop(const Workload &w, std::uint64_t seed,
                         const std::vector<std::string> &stream,
                         double seconds,
                         const std::vector<std::uint64_t> &expected,
                         const std::string &wal_dir);

/** Block `b` of a request stream. */
std::vector<std::string> blockOf(const std::vector<std::string> &stream,
                                 std::size_t b);

}  // namespace perfbench

#endif  // EXIST_PERFBENCH_CLOSED_LOOP_H
