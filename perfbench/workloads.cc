#include "workloads.h"

#include <algorithm>

#include "util/rng.h"

namespace perfbench {

namespace {

// Why these three (the prediction table is in README.md):
//  - spec-compute: SPEC-like compute apps; the TNT memo hits ~90 %, so
//    the simulated node dominates and decode is small.
//  - cloud-services: Alibaba-like services; decode is a large share
//    and the memo helps little. Collection and durability are off, so
//    it is the bypass case for both. Search2 is the CPU-share app,
//    which makes UMA sample cores. The duplicated `Cache` name in the
//    catalog is avoided on purpose.
//  - lossy-durable: the cloud-services mix over a lossy fabric with
//    streaming decode and a WAL with periodic snapshots, so the
//    collection and durability layers do work and decode runs
//    streamed instead of as one batch.
// BENCHMARK.json scores only the last two, which differ in nothing but
// transport, decode mode and durability; README.md says why
// spec-compute is left out.
const std::vector<Workload> &
all()
{
    static const std::vector<Workload> workloads = [] {
        std::vector<std::pair<std::string, int>> cloud_apps = {
            {"Search1", 2}, {"Search2", 2}, {"Pred", 2}, {"Recommend", 2}};
        return std::vector<Workload>{
            {"spec-compute", {{"lbm", 3}, {"mcf", 3}}, "", false},
            {"cloud-services", cloud_apps, "", false},
            {"lossy-durable", cloud_apps,
             " net=true loss=0.05 reorder=0.01 duplicate=0.01 streaming=true",
             true},
        };
    }();
    return workloads;
}

/** Tracing period of every request; long enough that decode is a
 *  visible share next to the node's fixed warm-up. */
constexpr int kPeriodMs = 40;

exist::ClusterConfig
clusterConfig(std::uint64_t seed)
{
    exist::ClusterConfig cc;
    cc.num_nodes = 4;
    cc.cores_per_node = 4;
    cc.seed = seed;
    return cc;
}

std::string
manifest(const Workload &w, const std::string &app, bool anomaly)
{
    return "app=" + app + (anomaly ? " anomaly=true" : " anomaly=false") +
           " period_ms=" + std::to_string(kPeriodMs) + w.manifest_extra;
}

}  // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : all())
        if (w.name == name)
            return &w;
    return nullptr;
}

exist::Cluster
makeCluster(const Workload &w, std::uint64_t seed)
{
    exist::Cluster cluster(clusterConfig(seed));
    for (const auto &[app, replicas] : w.deployments)
        cluster.deploy(app, replicas);
    return cluster;
}

exist::durability::ClusterMeta
clusterMeta(const Workload &w, std::uint64_t seed)
{
    exist::ClusterConfig cc = clusterConfig(seed);
    exist::durability::ClusterMeta meta;
    meta.cluster_seed = cc.seed;
    meta.num_nodes = cc.num_nodes;
    meta.cores_per_node = cc.cores_per_node;
    meta.shards = kShards;
    meta.snapshot_interval = w.durable ? kSnapshotInterval : 0;
    meta.deployments = w.deployments;
    return meta;
}

std::vector<std::string>
requestStream(const Workload &w, std::uint64_t seed)
{
    const std::size_t per_app = kBlockRequests / w.deployments.size();
    // Fisher-Yates on the workload seed (domain-separated from the
    // cluster's own use of the same seed).
    exist::Rng rng(seed ^ 0x7065726662656e63ULL);  // "perfbenc"
    std::vector<std::string> stream;
    for (std::size_t b = 0; b < kBlocks; ++b) {
        std::vector<std::string> block;
        for (const auto &[app, replicas] : w.deployments)
            for (std::size_t i = 0; i < per_app; ++i)
                block.push_back(manifest(w, app, i % 2 == 0));
        for (std::size_t i = block.size(); i > 1; --i)
            std::swap(block[i - 1], block[rng.uniformInt(i)]);
        stream.insert(stream.end(), block.begin(), block.end());
    }
    return stream;
}

std::vector<std::string>
warmupRound(const Workload &w)
{
    std::vector<std::string> round;
    for (int i = 0; i < kClients; ++i) {
        const std::string &app =
            w.deployments[static_cast<std::size_t>(i) % w.deployments.size()]
                .first;
        round.push_back(manifest(w, app, i % 2 == 0));
    }
    return round;
}

}  // namespace perfbench
