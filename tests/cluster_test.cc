/**
 * @file
 * Cluster-layer tests: CRD parsing and its typed rejections, storage
 * backends, placement, and the control plane's reconcile loop end to
 * end.
 */
#include <gtest/gtest.h>

#include <vector>

#include "cluster/control_journal.h"
#include "cluster/crd.h"
#include "cluster/shard/sharded_master.h"
#include "cluster/storage.h"

namespace exist {
namespace {

TEST(Crd, ParsesManifest)
{
    TraceRequest req = TraceRequest::parse(
        "app=Search1 anomaly=true period_ms=250 budget_mb=300 "
        "ring=true core_sample_ratio=0.5");
    EXPECT_EQ(req.app, "Search1");
    EXPECT_TRUE(req.anomaly);
    EXPECT_EQ(req.period_override, 250 * kCyclesPerMs);
    EXPECT_EQ(req.budget_mb, 300u);
    EXPECT_TRUE(req.ring_buffers);
    EXPECT_DOUBLE_EQ(req.core_sample_ratio, 0.5);
    EXPECT_EQ(req.phase, RequestPhase::kPending);
}

TEST(Crd, DefaultsAndRoundTrip)
{
    TraceRequest req = TraceRequest::parse("app=Cache");
    EXPECT_FALSE(req.anomaly);
    EXPECT_EQ(req.period_override, 0u);
    EXPECT_EQ(req.budget_mb, 500u);
    TraceRequest again = TraceRequest::parse(req.toManifest());
    EXPECT_EQ(again.app, req.app);
    EXPECT_EQ(again.budget_mb, req.budget_mb);
}

/** The kind parse() reports for `manifest` (kNone = accepted). */
ManifestError::Kind
parseKind(const std::string &manifest)
{
    TraceRequest req;
    return TraceRequest::parse(manifest, &req).kind;
}

TEST(Crd, MalformedTokenIsTypedError)
{
    TraceRequest req;
    ManifestError err = TraceRequest::parse("appSearch1", &req);
    EXPECT_EQ(err.kind, ManifestError::Kind::kMalformedToken);
    EXPECT_EQ(err.token, "appSearch1");
    EXPECT_NE(err.message().find("malformed"), std::string::npos);
    EXPECT_EQ(parseKind("app=Search1 bogus"),
              ManifestError::Kind::kMalformedToken);
}

TEST(Crd, UnknownKeyIsTypedError)
{
    TraceRequest req;
    ManifestError err = TraceRequest::parse("app=x frobnicate=1", &req);
    EXPECT_EQ(err.kind, ManifestError::Kind::kUnknownKey);
    EXPECT_EQ(err.token, "frobnicate=1");
    EXPECT_NE(err.message().find("unknown"), std::string::npos);
}

TEST(Crd, BadValueIsTypedError)
{
    for (const char *m :
         {"app=x period_ms=abc", "app=x period_ms=20ms",
          "app=x period_ms=-5", "app=x period_ms=1e300",
          "app=x period_ms=nan", "app=x budget_mb=-1",
          "app=x budget_mb=99999999999999999999999",
          "app=x core_sample_ratio=1.5", "app=x loss=2",
          "app=x reorder=-0.1", "app=x duplicate=", "app=x anomaly=yes",
          "app=x link_latency_us=inf", "app=x tnt_memo_bits=-1",
          "app=x tnt_memo_bits=99999999999", "app=x snapshot_interval=x"}) {
        SCOPED_TRACE(m);
        TraceRequest req;
        ManifestError err = TraceRequest::parse(m, &req);
        EXPECT_EQ(err.kind, ManifestError::Kind::kBadValue);
        EXPECT_EQ(err.token, std::string(m).substr(6));
    }
    // The accepted boolean spellings and range ends still parse.
    EXPECT_EQ(parseKind("app=x anomaly=1 ring=off decode_cache=on "
                        "loss=0 reorder=1 core_sample_ratio=1e-1 "
                        "period_ms=0"),
              ManifestError::Kind::kNone);
}

TEST(Crd, MissingAppIsTypedError)
{
    EXPECT_EQ(parseKind("anomaly=true"), ManifestError::Kind::kMissingApp);
    EXPECT_EQ(parseKind("app= anomaly=true"),
              ManifestError::Kind::kMissingApp);
    EXPECT_EQ(parseKind(""), ManifestError::Kind::kMissingApp);
}

/** Counts journal appends (admission must journal nothing for a
 *  rejected manifest). */
class CountingJournal : public ControlJournal
{
  public:
    void onAdmit(const TraceRequest &) override { ++admits; }
    void onPlanned(std::uint64_t, RequestPhase) override {}
    CollectHooks collectHooks(std::uint64_t) override { return {}; }
    void onPublish(std::uint64_t, const PublishEffects &) override {}

    int admits = 0;
};

TEST(Crd, RejectsMalformedManifests)
{
    // A bad manifest fails at admission only: it consumes no id and no
    // journal record, and the valid requests around it still complete.
    ClusterConfig cc;
    cc.num_nodes = 2;
    cc.cores_per_node = 4;
    Cluster cluster(cc);
    cluster.deploy("Cache", 2);
    metrics::Registry registry;
    CountingJournal journal;
    ShardedMaster master(&cluster, {}, 2, 1, &registry);
    master.attachJournal(&journal);

    std::uint64_t ok1 = master.apply("app=Cache anomaly=true period_ms=20");
    std::vector<ManifestError::Kind> kinds;
    for (const char *bad : {"appSearch1", "app=x frobnicate=1",
                            "app=Cache period_ms=abc", "anomaly=true"}) {
        ManifestError err;
        EXPECT_EQ(master.apply(bad, &err), 0u) << bad;
        kinds.push_back(err.kind);
    }
    EXPECT_EQ(master.apply("app=Cache bogus"), 0u);  // no error sink
    std::uint64_t ok2 = master.apply("app=Cache anomaly=true period_ms=20");
    EXPECT_EQ(kinds, (std::vector<ManifestError::Kind>{
                         ManifestError::Kind::kMalformedToken,
                         ManifestError::Kind::kUnknownKey,
                         ManifestError::Kind::kBadValue,
                         ManifestError::Kind::kMissingApp}));
    EXPECT_EQ(ok1, 1u);
    EXPECT_EQ(ok2, 2u);
    EXPECT_EQ(journal.admits, 2);
    EXPECT_EQ(registry.counter("api.rejects").value(), 5u);

    master.reconcile();
    EXPECT_EQ(master.request(ok1)->phase, RequestPhase::kCompleted);
    EXPECT_EQ(master.request(ok2)->phase, RequestPhase::kCompleted);
    EXPECT_EQ(master.request(3), nullptr);
}

TEST(ObjectStoreTest, PutGetListAndOverwrite)
{
    ObjectStore oss;
    oss.put("traces/a/1", {1, 2, 3});
    oss.put("traces/a/2", {4, 5});
    oss.put("traces/b/1", {6});
    EXPECT_TRUE(oss.exists("traces/a/1"));
    EXPECT_FALSE(oss.exists("traces/c"));
    EXPECT_EQ(oss.get("traces/a/2").size(), 2u);
    EXPECT_EQ(oss.listPrefix("traces/a/").size(), 2u);
    EXPECT_EQ(oss.totalBytes(), 6u);
    oss.put("traces/a/1", {9, 9, 9, 9});  // overwrite adjusts size
    EXPECT_EQ(oss.totalBytes(), 7u);
    EXPECT_EQ(oss.objectCount(), 3u);
}

TEST(OdpsTableTest, QueriesByAppAndRequest)
{
    OdpsTable odps;
    odps.insert(TraceRow{.app = "a", .node = 1, .request_id = 10});
    odps.insert(TraceRow{.app = "a", .node = 2, .request_id = 11});
    odps.insert(TraceRow{.app = "b", .node = 1, .request_id = 10});
    EXPECT_EQ(odps.queryApp("a").size(), 2u);
    EXPECT_EQ(odps.queryRequest(10).size(), 2u);
    EXPECT_EQ(odps.queryApp("c").size(), 0u);
}

TEST(ClusterTest, RoundRobinPlacement)
{
    Cluster cluster(ClusterConfig{.num_nodes = 4});
    cluster.deploy("a", 6);
    cluster.deploy("b", 2);
    EXPECT_EQ(cluster.replicasOf("a"), 6);
    EXPECT_EQ(cluster.replicasOf("b"), 2);
    // Six replicas over four nodes: max spread.
    int per_node[4] = {0, 0, 0, 0};
    for (const PodInstance *p : cluster.podsOf("a"))
        ++per_node[p->node];
    for (int n : per_node)
        EXPECT_GE(n, 1);
    EXPECT_EQ(cluster.podsOn(0).size() + cluster.podsOn(1).size() +
                  cluster.podsOn(2).size() + cluster.podsOn(3).size(),
              8u);
    EXPECT_EQ(cluster.deployedApps().size(), 2u);
}

TEST(ClusterTest, MetadataComesFromCatalog)
{
    Cluster cluster(ClusterConfig{.num_nodes = 2});
    cluster.deploy("Search1", 3);
    AppDeployment meta = cluster.metadataFor("Search1", true);
    EXPECT_EQ(meta.replicas, 3);
    EXPECT_TRUE(meta.anomaly);
    EXPECT_GT(meta.priority, 0.5);
    EXPECT_DEATH(cluster.metadataFor("Cache"), "not deployed");
}

TEST(MasterTest, ReconcileLifecycle)
{
    ClusterConfig cc;
    cc.num_nodes = 3;
    cc.cores_per_node = 4;
    Cluster cluster(cc);
    cluster.deploy("Cache", 3);
    ShardedMaster master(&cluster);

    std::uint64_t id = master.apply(
        "app=Cache anomaly=true period_ms=60");
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kPending);
    master.reconcile();
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kCompleted);

    const TraceReport *rep = master.report(id);
    ASSERT_NE(rep, nullptr);
    EXPECT_EQ(rep->app, "Cache");
    EXPECT_EQ(rep->traced_nodes.size(), 3u);  // anomaly: all replicas
    EXPECT_EQ(rep->period, 60 * kCyclesPerMs);
    EXPECT_GT(rep->merged_accuracy, 0.5);
    EXPECT_GT(rep->total_trace_bytes, 0u);
    EXPECT_EQ(master.sessionsRun(), 3u);

    // Data plane artifacts exist and are queryable.
    EXPECT_GE(master.oss().objectCount(), 3u);
    EXPECT_EQ(master.odps().queryRequest(id).size(), 3u);
    EXPECT_EQ(master.oss().listPrefix("traces/Cache/").size(),
              master.oss().objectCount());
}

TEST(MasterTest, UndeployedAppFails)
{
    Cluster cluster(ClusterConfig{.num_nodes = 2});
    ShardedMaster master(&cluster);
    std::uint64_t id = master.apply("app=NotThere");
    // Parsing accepts it (the app name is opaque until reconcile).
    master.reconcile();
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kFailed);
    EXPECT_EQ(master.report(id), nullptr);
}

TEST(MasterTest, FootprintScalesSubLinearly)
{
    Cluster small(ClusterConfig{.num_nodes = 10});
    Cluster big(ClusterConfig{.num_nodes = 1000});
    ShardedMaster m1(&small, {}, 1), m2(&big, {}, 1);
    auto f1 = m1.managementFootprint();
    auto f2 = m2.managementFootprint();
    EXPECT_LT(f1.cores, 0.005);  // paper: <3e-3 cores at ten nodes
    EXPECT_LT(f2.cores / 1000.0, 0.001);  // per-mille at scale
    EXPECT_GT(f2.memory_mb, f1.memory_mb);
}

TEST(MasterTest, PersonalizedOptionsAreHonored)
{
    // Ring buffers + explicit core-sampling ratio flow from the CRD
    // manifest all the way into the node session.
    ClusterConfig cc;
    cc.num_nodes = 2;
    cc.cores_per_node = 4;
    Cluster cluster(cc);
    cluster.deploy("Search2", 2);  // CPU-share profile
    ShardedMaster master(&cluster);
    std::uint64_t id = master.apply(
        "app=Search2 anomaly=true period_ms=60 ring=true "
        "core_sample_ratio=0.5 budget_mb=64");
    master.reconcile();
    EXPECT_EQ(master.request(id)->phase, RequestPhase::kCompleted);
    const TraceReport *rep = master.report(id);
    ASSERT_NE(rep, nullptr);
    EXPECT_GT(rep->total_trace_bytes, 0u);
    // Half of the four cores sampled per worker: the OSS holds two
    // core objects per traced node.
    auto keys = master.oss().listPrefix("traces/Search2/");
    EXPECT_EQ(keys.size(), 2u * 2u);
}

}  // namespace
}  // namespace exist
