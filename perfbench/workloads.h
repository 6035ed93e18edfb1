/**
 * @file
 * The benchmark's three workloads and the request stream each one
 * generates from its seed. The program under test only ever sees the
 * generated cluster topology and the manifest strings.
 */
#ifndef EXIST_PERFBENCH_WORKLOADS_H
#define EXIST_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "durability/wal.h"

namespace perfbench {

/** Control-plane shape, fixed so results never depend on `nproc`. */
inline constexpr int kShards = 4;
inline constexpr int kThreads = 4;
/** Closed-loop clients (on-call engineers / anomaly detectors). */
inline constexpr int kClients = 8;
/**
 * A run's request stream is kBlocks blocks of kBlockRequests requests.
 * Each block runs as one repetition on a fresh control plane whose id
 * stream starts where the previous block's ended, so memory stays
 * bounded while a run still covers kBlocks * kBlockRequests distinct
 * requests; a run repeats the blocks in turn until its time is up.
 */
inline constexpr std::size_t kBlockRequests = 32;
inline constexpr std::size_t kBlocks = 4;
/** Durable workloads snapshot after this many publishes. */
inline constexpr std::uint64_t kSnapshotInterval = 8;

struct Workload {
    std::string name;
    /** (app, replicas) in deploy order; requests target every app
     *  equally. */
    std::vector<std::pair<std::string, int>> deployments;
    /** Manifest suffix shared by every request of the workload. */
    std::string manifest_extra;
    /** WAL + periodic snapshots + recovery check. */
    bool durable = false;
};

/** The named workload; nullptr for an unknown name. */
const Workload *findWorkload(const std::string &name);

/** Build the workload's cluster (cheap: placement metadata only). */
exist::Cluster makeCluster(const Workload &w, std::uint64_t seed);
/** Cluster identity the durability journal logs first. */
exist::durability::ClusterMeta clusterMeta(const Workload &w,
                                           std::uint64_t seed);

/**
 * Manifests for request ids 1..kBlocks*kBlockRequests in order. In
 * every block each app gets the same number of requests and half of
 * each app's requests are anomaly-triggered, so the work per block
 * does not depend on the seed; the seed orders them and seeds the
 * cluster.
 */
std::vector<std::string> requestStream(const Workload &w,
                                       std::uint64_t seed);
/** One untimed warm-up round: one request per client, touching every
 *  deployed app (binary repository, block caches, pools). */
std::vector<std::string> warmupRound(const Workload &w);

}  // namespace perfbench

#endif  // EXIST_PERFBENCH_WORKLOADS_H
