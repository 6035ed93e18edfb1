#include "traced_pass.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "analysis/accuracy.h"
#include "analysis/testbed.h"
#include "cluster/collection.h"
#include "cluster/control_journal.h"
#include "cluster/metrics.h"
#include "cluster/shard/plan.h"
#include "cluster/shard/sharded_master.h"
#include "cluster/shard/striped_store.h"
#include "decode/parallel_decoder.h"
#include "decode/streaming_decoder.h"
#include "digest.h"
#include "durability/journal.h"
#include "durability/recovery.h"
#include "durability/snapshot.h"

namespace perfbench {

namespace {

using namespace exist;
using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Streaming decode granularity; the node's default ToPA region. */
constexpr std::size_t kStreamChunkBytes = 256 * 1024;

void
addCounts(PassCounts &to, const PassCounts &from)
{
    to.requests += from.requests;
    to.truth_branches += from.truth_branches;
    to.trace_bytes += from.trace_bytes;
    to.dropped_bytes += from.dropped_bytes;
    to.produced_bytes += from.produced_bytes;
    to.memo_hits += from.memo_hits;
    to.memo_misses += from.memo_misses;
    to.decode_errors += from.decode_errors;
    to.decode_tail_ms.insert(to.decode_tail_ms.end(),
                             from.decode_tail_ms.begin(),
                             from.decode_tail_ms.end());
    to.wire_bytes += from.wire_bytes;
    to.payload_bytes += from.payload_bytes;
    to.retransmits += from.retransmits;
    to.degraded += from.degraded;
    to.journal_appends += from.journal_appends;
    to.journal_append_ms += from.journal_append_ms;
}

/** Publish sink over the striped stores. */
class StripedStoreSink : public StoreSink
{
  public:
    StripedStoreSink(StripedObjectStore &oss, StripedOdpsTable &odps)
        : oss_(oss), odps_(odps)
    {
    }

    void
    putObject(const std::string &key,
              std::vector<std::uint8_t> bytes) override
    {
        oss_.put(key, std::move(bytes));
    }

    void insertRow(TraceRow row) override { odps_.insert(std::move(row)); }

  private:
    StripedObjectStore &oss_;
    StripedOdpsTable &odps_;
};

/**
 * Benchmark-side decorator over durability::Journal: every append the
 * control plane makes through it becomes a `durability.append` span,
 * and the ingest batches it journals are counted as delivered payload.
 * Serial use only (the traced pass).
 */
class TimedJournal : public ControlJournal
{
  public:
    TimedJournal(durability::Journal &inner, SpanRecorder *spans)
        : inner_(inner), spans_(spans)
    {
    }

    void
    onAdmit(const TraceRequest &req) override
    {
        Timed t(*this, req.id);
        inner_.onAdmit(req);
    }

    void
    onPlanned(std::uint64_t id, RequestPhase outcome) override
    {
        Timed t(*this, id);
        inner_.onPlanned(id, outcome);
    }

    CollectHooks
    collectHooks(std::uint64_t id) override
    {
        CollectHooks hooks = inner_.collectHooks(id);
        auto consume = std::move(hooks.on_consume);
        hooks.on_consume = [this, id, consume](
                               NodeId node, std::uint64_t stream,
                               std::uint64_t seq, std::uint64_t total,
                               const std::vector<std::uint8_t> &chunk) {
            counts.payload_bytes += chunk.size();
            Timed t(*this, id);
            consume(node, stream, seq, total, chunk);
        };
        return hooks;
    }

    void
    onPublish(std::uint64_t id, const PublishEffects &fx) override
    {
        Timed t(*this, id);
        inner_.onPublish(id, fx);
    }

    /** journal_appends, journal_append_ms and payload_bytes. */
    PassCounts counts;

  private:
    struct Timed {
        Timed(TimedJournal &j, std::uint64_t id)
            : j_(j), scope_(j.spans_, "durability.append", id),
              t0_(Clock::now())
        {
        }
        ~Timed()
        {
            j_.counts.journal_appends += 1;
            j_.counts.journal_append_ms += msSince(t0_);
        }
        TimedJournal &j_;
        SpanRecorder::Scope scope_;
        Clock::time_point t0_;
    };

    durability::Journal &inner_;
    SpanRecorder *spans_;
};

/**
 * Decode one session's kept traces the way Testbed::run would have
 * (batch ParallelDecoder, or the StreamingDecoder fed region-sized
 * chunks), and fill the result's decode fields exactly as it does.
 */
void
decodeSession(ExperimentResult &result, const ExperimentSpec &spec,
              const std::string &app, PassCounts &counts)
{
    std::shared_ptr<const ProgramBinary> binary =
        Testbed::binaryForApp(app);
    DecodeOptions opts;
    opts.block_cache = spec.decode_cache;
    opts.tnt_memo_bits = spec.tnt_memo_bits;

    std::vector<std::pair<CoreId, DecodedTrace>> decoded;
    Clock::time_point tail0;
    if (spec.streaming) {
        StreamingDecoder sd(binary.get(), opts, 1);
        for (const CollectedTrace &ct : result.raw_traces)
            sd.addCore(ct.core);
        for (const CollectedTrace &ct : result.raw_traces)
            for (std::size_t off = 0; off < ct.bytes.size();
                 off += kStreamChunkBytes)
                sd.publish(ct.core, ct.bytes.data() + off,
                           std::min(kStreamChunkBytes,
                                    ct.bytes.size() - off));
        tail0 = Clock::now();
        decoded = sd.finish();
    } else {
        tail0 = Clock::now();
        ParallelDecoder pd(binary.get(), opts, 1);
        decoded = pd.decodeAll(result.raw_traces);
    }
    double tail_ms = msSince(tail0);

    result.decoded_function_insns.assign(binary->numFunctions(), 0);
    result.decoded_function_entries.assign(binary->numFunctions(), 0);
    for (const auto &[core, dt] : decoded) {
        result.decoded_branches += dt.branches_decoded;
        result.decode_errors += dt.decode_errors;
        result.decode_cache_hits += dt.cache_stats.memo_hits;
        result.decode_cache_misses += dt.cache_stats.memo_misses;
        for (std::size_t f = 0; f < dt.function_insns.size(); ++f) {
            result.decoded_function_insns[f] += dt.function_insns[f];
            result.decoded_function_entries[f] += dt.function_entries[f];
        }
    }
    result.accuracy_coverage =
        coverageAccuracy(result.decoded_branches, result.truth_branches);
    result.accuracy_wall = wallWeightAccuracy(result.decoded_function_insns,
                                              result.truth_function_insns);

    counts.memo_hits += result.decode_cache_hits;
    counts.memo_misses += result.decode_cache_misses;
    counts.decode_errors += result.decode_errors;
    counts.decode_tail_ms.push_back(tail_ms);
}

/** Shared state of one pass. */
struct Pass {
    const Workload &w;
    std::uint64_t seed;
    const std::vector<std::string> &block;
    std::uint64_t first_id;
    SpanRecorder *spans;

    Cluster cluster;
    metrics::Registry registry;
    ShardedMaster master;  ///< admission only (submit)
    StripedObjectStore oss;
    StripedOdpsTable odps;

    std::mutex mu;  ///< guards everything below in threaded mode
    std::size_t next = 0;
    std::vector<TraceRequest> requests;
    std::vector<std::optional<TraceReport>> reports;
    CoverageLedger ledger;
    PassCounts counts;

    // Serial passes only: the journal (`timed` wraps `wal`).
    std::string wal_dir;
    std::unique_ptr<durability::Journal> wal;
    std::unique_ptr<TimedJournal> timed;
    double wall_s = 0.0;

    Pass(const Workload &w_, std::uint64_t seed_,
         const std::vector<std::string> &block_, std::uint64_t first_id_,
         SpanRecorder *spans_)
        : w(w_), seed(seed_), block(block_), first_id(first_id_),
          spans(spans_),
          cluster(makeCluster(w_, seed_)),
          master(&cluster, {}, kShards, 1, &registry),
          requests(block_.size()), reports(block_.size())
    {
        ControlStateDump start;
        start.next_id = first_id;
        master.restoreForRecovery(start);
    }

    /** Run the next request of the block; false when none is left. */
    bool runNext();
    ControlStateDump dump();

    /** Journal every mutation into a fresh WAL under `dir`. */
    void openJournal(const std::string &dir);
    /** Serial: runNext() plus the snapshot check after it, timed. */
    bool step();
    /** Digests, counts and (journaled) the recovery check. */
    PassResult finish();
};

bool
Pass::runNext()
{
    PassCounts local;
    TraceRequest *req;
    std::size_t k;
    std::optional<SpanRecorder::Scope> root;
    {
        // Ids are allocated in block order: request k gets first_id+k.
        std::lock_guard<std::mutex> lk(mu);
        if (next == block.size())
            return false;
        k = next++;
        req = &requests[k];
        *req = TraceRequest::parse(block[k]);
        root.emplace(spans, "request", first_id + k);
        SpanRecorder::Scope s(spans, "control.admit", first_id + k);
        req->id = master.submit(*req);
    }
    const std::uint64_t id = req->id;
    local.requests = 1;

    RequestPlan plan;
    {
        SpanRecorder::Scope s(spans, "control.plan", id);
        plan = planRequest(&cluster, master.rco(), *req, 1);
    }
    if (timed != nullptr)
        timed->onPlanned(id, plan.outcome);
    req->phase = plan.outcome;

    for (SessionPlan &session : plan.sessions) {
        ExperimentSpec spec = session.spec;
        spec.decode = false;  // decoded below, in its own span
        {
            SpanRecorder::Scope s(spans, "node", id);
            session.result = Testbed::run(spec);
        }
        const ExperimentResult &r = session.result;
        local.truth_branches += r.truth_branches;
        for (const CollectedTrace &ct : r.raw_traces)
            local.trace_bytes += ct.bytes.size();
        local.dropped_bytes += r.backend_stats.dropped_real_bytes;
        local.produced_bytes += r.backend_stats.trace_real_bytes +
                                r.backend_stats.dropped_real_bytes;
        SpanRecorder::Scope s(spans, "decode", id);
        decodeSession(session.result, session.spec, req->app, local);
    }

    {
        std::optional<SpanRecorder::Scope> s;
        if (req->net)
            s.emplace(spans, "collect", id);
        CollectHooks hooks;
        if (timed != nullptr)
            hooks = timed->collectHooks(id);
        CollectionOutcome out =
            collectPlan(plan, cluster.config().seed, &registry,
                        timed != nullptr ? &hooks : nullptr);
        local.wire_bytes += out.fabric.bytes_on_wire;
        local.retransmits += out.agents.retransmits;
        local.degraded += out.degraded;
    }

    std::optional<TraceReport> report;
    LedgerDelta delta;
    if (plan.outcome == RequestPhase::kRunning) {
        SpanRecorder::Scope s(spans, "publish", id);
        StripedStoreSink sink(oss, odps);
        if (timed != nullptr) {
            PublishEffects fx = capturePublish(plan);
            timed->onPublish(id, fx);
            applyPublish(fx, sink);
            report = std::move(fx.report);
            delta = fx.ledger;
        } else {
            report = publishRequest(plan, sink);
            delta = {req->app, plan.sessions.size(), plan.period,
                     report->total_trace_bytes};
        }
        req->phase = RequestPhase::kCompleted;
    }
    root.reset();

    std::lock_guard<std::mutex> lk(mu);
    reports[k] = std::move(report);
    if (reports[k].has_value())
        ledger.recordRequest(delta.app, delta.sessions, delta.period,
                             delta.trace_bytes);
    addCounts(counts, local);
    return true;
}

ControlStateDump
Pass::dump()
{
    // Mirrors ShardedMaster::dumpState() for the serial pass, which is
    // quiesced between requests.
    ControlStateDump d;
    d.next_id = first_id + next;
    for (std::size_t k = 0; k < next; ++k) {
        d.requests.emplace(requests[k].id, requests[k]);
        if (reports[k].has_value())
            d.reports.emplace(requests[k].id, *reports[k]);
    }
    d.ledger = ledger;
    d.objects = oss.allObjects();
    d.rows = odps.allRows();
    return d;
}

std::uint64_t
fileBytes(const std::string &path)
{
    std::error_code ec;
    auto n = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::vector<std::uint64_t>
blockDigests(const std::vector<const TraceReport *> &reports)
{
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < reports.size(); i += kBlockRequests) {
        std::size_t end = std::min(reports.size(), i + kBlockRequests);
        digests.push_back(reportDigest(std::vector<const TraceReport *>(
            reports.begin() + static_cast<std::ptrdiff_t>(i),
            reports.begin() + static_cast<std::ptrdiff_t>(end))));
    }
    return digests;
}

void
Pass::openJournal(const std::string &dir)
{
    wal_dir = dir;
    std::filesystem::remove_all(dir);
    durability::DurabilitySpec dspec;
    dspec.wal_dir = dir;
    dspec.snapshot_interval = kSnapshotInterval;
    wal = std::make_unique<durability::Journal>(dspec, clusterMeta(w, seed),
                                                &registry);
    timed = std::make_unique<TimedJournal>(*wal, spans);
    master.attachJournal(timed.get());
}

bool
Pass::step()
{
    auto t0 = Clock::now();
    bool more = runNext();
    if (more && wal != nullptr) {
        SpanRecorder::Scope s(spans, "durability.snapshot",
                              first_id + next - 1);
        auto s0 = Clock::now();
        if (wal->maybeSnapshot([this] { return dump(); })) {
            counts.snapshots += 1;
            counts.snapshot_ms += msSince(s0);
        }
    }
    wall_s += std::chrono::duration<double>(Clock::now() - t0).count();
    return more;
}

PassResult
Pass::finish()
{
    PassResult res;
    res.wall_s = wall_s;
    std::vector<const TraceReport *> ordered;
    for (const auto &r : reports)
        ordered.push_back(r.has_value() ? &*r : nullptr);
    res.digests = blockDigests(ordered);
    res.counts = counts;
    res.counts.oss_bytes = oss.totalBytes();
    if (wal == nullptr)
        return res;

    addCounts(res.counts, timed->counts);
    res.counts.wal_bytes = registry.counter("wal.bytes").value();
    master.attachJournal(nullptr);
    timed.reset();
    wal.reset();  // close the WAL before reading it back

    auto r0 = Clock::now();
    durability::RecoveryResult rec = durability::recover(wal_dir);
    res.counts.recover_ms = msSince(r0);
    if (!rec.ok) {
        res.error = "recovery failed: " + rec.error;
    } else {
        const durability::RecoveredState &st = rec.state;
        res.counts.replay_bytes = st.telemetry.wal_bytes;
        if (st.telemetry.snapshot_used) {
            auto snaps = durability::listSnapshots(wal_dir);
            if (!snaps.empty())
                res.counts.replay_bytes += fileBytes(snaps.back().second);
        }
        std::vector<const TraceReport *> recovered;
        for (std::size_t k = 0; k < block.size(); ++k) {
            auto it = st.dump.reports.find(first_id + k);
            recovered.push_back(it == st.dump.reports.end() ? nullptr
                                                            : &it->second);
        }
        if (blockDigests(recovered) != res.digests)
            res.error = "recovered reports differ from the live ones";
    }
    std::filesystem::remove_all(wal_dir);
    return res;
}

}  // namespace

PassResult
runPhasedPass(const Workload &w, std::uint64_t seed,
              const std::vector<std::string> &manifests,
              std::uint64_t first_id, int threads)
{
    Pass pass(w, seed, manifests, first_id, nullptr);
    auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int i = 0; i < threads; ++i)
        workers.emplace_back([&pass] {
            while (pass.runNext()) {
            }
        });
    for (std::thread &t : workers)
        t.join();
    pass.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
    return pass.finish();
}

TwinResult
runTwinPasses(const Workload &w, std::uint64_t seed,
              const std::vector<std::string> &manifests,
              std::uint64_t first_id, const std::string &wal_dir,
              SpanRecorder *spans)
{
    Pass untraced(w, seed, manifests, first_id, nullptr);
    Pass traced(w, seed, manifests, first_id, spans);
    if (!wal_dir.empty()) {
        untraced.openJournal(wal_dir + "-untraced");
        traced.openJournal(wal_dir + "-traced");
    }
    // Lockstep, alternating which twin goes first: the pair of runs of
    // one request sees the same host, so drift in host speed cancels in
    // the overhead ratio.
    for (std::size_t k = 0;; ++k) {
        Pass &first = k % 2 == 0 ? untraced : traced;
        Pass &second = k % 2 == 0 ? traced : untraced;
        bool more = first.step();
        second.step();
        if (!more)
            break;
    }
    return {untraced.finish(), traced.finish()};
}

}  // namespace perfbench
