/**
 * @file
 * Control-plane reconcile throughput: one submit stream of trace
 * requests against a demo cluster, reconciled by ShardedMaster at shard
 * counts 1/2/4/8 with as many threads; one shard on one thread is the
 * fully serial reference and speedup base. Reports wall-clock requests/s and the
 * p99 reconcile latency from the control plane's own metrics registry,
 * and verifies on every configuration that the output — reports, OSS
 * bytes, ODPS rows, coverage ledger — is bit-identical to the
 * reference.
 *
 * Besides the human-readable table, each configuration emits one
 * machine-readable JSON line (prefix "JSON ") so CI can track the
 * trajectory via tools/bench_trends.py --set cluster:
 *   JSON {"bench":"reconcile_throughput","shards":4,...}
 */
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/metrics.h"
#include "cluster/shard/sharded_master.h"
#include "common.h"

using namespace exist;
using namespace exist::bench;

namespace {

ClusterConfig
demoConfig()
{
    ClusterConfig cc;
    cc.num_nodes = 10;
    cc.cores_per_node = 4;
    cc.seed = 2024;
    return cc;
}

void
deployDemo(Cluster &cluster)
{
    cluster.deploy("Search2", 3);
    cluster.deploy("Cache", 3);
    cluster.deploy("Prediction", 2);
}

/** The benchmark submit stream: anomaly and routine requests mixed
 *  across the deployed apps, period scaled for smoke runs. */
std::vector<std::string>
manifests()
{
    int period_ms =
        static_cast<int>(30.0 * periodScale() + 0.5);
    if (period_ms < 5)
        period_ms = 5;
    std::string p = " period_ms=" + std::to_string(period_ms) +
                    " budget_mb=64";
    std::vector<std::string> out;
    const char *apps[] = {"Search2", "Cache", "Prediction"};
    for (int i = 0; i < 12; ++i) {
        std::string m = "app=" + std::string(apps[i % 3]);
        if (i % 2 == 0)
            m += " anomaly=true";
        out.push_back(m + p);
    }
    return out;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

}  // namespace

int
main()
{
    printBanner("Reconcile throughput: ShardedMaster at 1/2/4/8 shards "
                "vs its one-shard, one-thread reference");

    const std::vector<std::string> stream = manifests();
    std::printf("submit stream: %zu requests over 3 apps "
                "(scale %.2f)\n\n",
                stream.size(), periodScale());

    TableWriter table({"Mode", "Shards", "Time(ms)", "Requests/s",
                       "p99(us)", "Speedup", "Identical"});
    // shards=1 runs on one thread — the fully serial loop — and is the
    // reference every wider configuration must match and is timed
    // against.
    struct Run {
        std::unique_ptr<metrics::Registry> registry;
        std::unique_ptr<Cluster> cluster;
        std::unique_ptr<ShardedMaster> master;
    };
    Run ref;
    std::vector<std::uint64_t> ids;
    double ref_s = 0.0;
    bool all_identical = true;
    for (int shards : {1, 2, 4, 8}) {
        Run run;
        run.cluster = std::make_unique<Cluster>(demoConfig());
        deployDemo(*run.cluster);
        run.registry = std::make_unique<metrics::Registry>();
        run.master = std::make_unique<ShardedMaster>(
            run.cluster.get(), RcoConfig{}, shards, shards,
            run.registry.get());
        ShardedMaster &master = *run.master;
        bool is_ref = shards == 1;
        for (const std::string &m : stream) {
            std::uint64_t id = master.apply(m);
            if (is_ref)
                ids.push_back(id);
        }

        auto t1 = std::chrono::steady_clock::now();
        master.reconcile();
        double s = secondsSince(t1);
        if (is_ref)
            ref_s = s;
        double rps = stream.size() / s;
        double speedup = ref_s / s;
        std::uint64_t p99 =
            run.registry->histogram("reconcile.latency_us")
                .percentile(0.99);

        // The whole point: every configuration must be bit-identical
        // to the reference, or the speedup is meaningless.
        bool identical = true;
        if (!is_ref) {
            ShardedMaster &r = *ref.master;
            for (std::uint64_t id : ids) {
                const TraceReport *a = r.report(id);
                const TraceReport *b = master.report(id);
                if ((a == nullptr) != (b == nullptr) ||
                    (a != nullptr && !(*a == *b)))
                    identical = false;
            }
            identical = identical &&
                        r.oss().totalBytes() == master.oss().totalBytes() &&
                        r.odps().rowCount() == master.odps().rowCount() &&
                        r.coverage() == master.coverage();
        }
        all_identical = all_identical && identical;

        const char *mode = is_ref ? "reference" : "sharded";
        table.row({mode, std::to_string(shards),
                   TableWriter::num(s * 1e3), TableWriter::num(rps),
                   std::to_string(p99), TableWriter::num(speedup),
                   is_ref ? "ref" : identical ? "yes" : "NO"});
        std::printf("JSON {\"bench\":\"reconcile_throughput\","
                    "\"mode\":\"%s\",\"shards\":%d,"
                    "\"requests\":%zu,\"sessions\":%llu,"
                    "\"seconds\":%.6f,\"requests_per_sec\":%.3f,"
                    "\"p99_latency_us\":%llu,\"speedup\":%.3f,"
                    "\"identical\":%s}\n",
                    mode, shards, stream.size(),
                    (unsigned long long)master.sessionsRun(), s, rps,
                    (unsigned long long)p99, speedup,
                    identical ? "true" : "false");
        if (is_ref)
            ref = std::move(run);
    }

    std::printf("\n");
    table.print();
    std::printf("\nshard speedup saturates at min(shards, pending "
                "requests, hardware threads)\n");
    if (!all_identical) {
        std::fputs("sharded reconcile diverged from the reference!\n",
                   stderr);
        return 1;
    }
    return 0;
}
