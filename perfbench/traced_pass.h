/**
 * @file
 * The phase-by-phase pipeline: requests driven through each layer's
 * public function in turn (admit, plan, node session, decode, collect,
 * publish, journal, snapshot), without the ShardedMaster's reconcile
 * loop. Run serially with spans on, it is the traced pass that yields
 * the per-layer metrics; with spans off it is the untraced twin that
 * prices the tracing; on a few threads it is the reference the closed
 * loop's reports are checked against at a seed with no committed
 * digest.
 */
#ifndef EXIST_PERFBENCH_TRACED_PASS_H
#define EXIST_PERFBENCH_TRACED_PASS_H

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {

/** Work counts of one pass; they repeat exactly for a given seed. */
struct PassCounts {
    std::uint64_t requests = 0;
    std::uint64_t truth_branches = 0;
    std::uint64_t trace_bytes = 0;    ///< kept per-core trace bytes
    std::uint64_t dropped_bytes = 0;  ///< bytes the tracer lost at STOP
    std::uint64_t produced_bytes = 0; ///< trace_real + dropped_real
    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t decode_errors = 0;
    std::vector<double> decode_tail_ms;  ///< one per session
    std::uint64_t wire_bytes = 0;
    std::uint64_t payload_bytes = 0;  ///< in-order batches the ingest kept
    std::uint64_t retransmits = 0;
    std::uint64_t degraded = 0;
    std::uint64_t oss_bytes = 0;
    std::uint64_t journal_appends = 0;
    double journal_append_ms = 0.0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t snapshots = 0;
    double snapshot_ms = 0.0;
    double recover_ms = 0.0;
    std::uint64_t replay_bytes = 0;  ///< WAL tail + snapshot image read
};

struct PassResult {
    /** Report digest (digest.h) of each kBlockRequests-sized block. */
    std::vector<std::uint64_t> digests;
    double wall_s = 0.0;
    PassCounts counts;
    /** Non-empty when a check inside the pass failed. */
    std::string error;
};

/**
 * Reference run: `manifests` as request ids first_id, first_id+1, ...
 * on `threads` threads, untraced and without a journal.
 */
PassResult runPhasedPass(const Workload &w, std::uint64_t seed,
                         const std::vector<std::string> &manifests,
                         std::uint64_t first_id, int threads);

struct TwinResult {
    PassResult untraced;
    PassResult traced;
};

/**
 * The traced pass and its untraced twin, both serial, run request by
 * request in lockstep. Each journals into its own WAL under
 * `wal_dir`-{untraced,traced} when `wal_dir` is non-empty.
 */
TwinResult runTwinPasses(const Workload &w, std::uint64_t seed,
                         const std::vector<std::string> &manifests,
                         std::uint64_t first_id, const std::string &wal_dir,
                         SpanRecorder *spans);

}  // namespace perfbench

#endif  // EXIST_PERFBENCH_TRACED_PASS_H
