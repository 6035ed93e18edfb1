#include "closed_loop.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include "cluster/metrics.h"
#include "cluster/shard/sharded_master.h"
#include "digest.h"
#include "durability/journal.h"
#include "durability/recovery.h"

namespace perfbench {

namespace {

using namespace exist;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/** Live thread count of this process (procfs). */
int
threadCount()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0;
    char line[256];
    int n = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "Threads: %d", &n) == 1)
            break;
    std::fclose(f);
    return n;
}

/** How often the watcher polls phaseOf() for completions. */
constexpr auto kPollInterval = std::chrono::microseconds(200);
/** How often the watcher samples the thread count. */
constexpr auto kThreadSampleInterval = std::chrono::milliseconds(20);

}  // namespace

Repetition
runRepetition(const Workload &w, std::uint64_t seed,
              const std::vector<std::string> &manifests,
              std::uint64_t first_id, const std::string &wal_dir)
{
    Repetition rep;
    const std::size_t n = manifests.size();
    Cluster cluster = makeCluster(w, seed);
    metrics::Registry registry;
    std::unique_ptr<durability::Journal> journal;
    if (w.durable) {
        std::filesystem::remove_all(wal_dir);
        durability::DurabilitySpec dspec;
        dspec.wal_dir = wal_dir;
        dspec.snapshot_interval = kSnapshotInterval;
        journal = std::make_unique<durability::Journal>(
            dspec, clusterMeta(w, seed), &registry);
    }
    auto master = std::make_unique<ShardedMaster>(&cluster, RcoConfig{},
                                                  kShards, kThreads,
                                                  &registry);
    // Start the id stream where the previous block ended (the state is
    // otherwise empty): a control plane that has served earlier blocks.
    ControlStateDump start;
    start.next_id = first_id;
    master->restoreForRecovery(start);
    master->attachJournal(journal.get());
    metrics::Counter &commits = registry.counter("commitlog.commits");

    // Guards the admission side (submit order == id order, and no
    // submit while a snapshot dumps state) and the loop bookkeeping.
    std::mutex mu;
    std::condition_variable cv;
    std::size_t submitted = 0;
    std::size_t done = 0;
    std::vector<Clock::time_point> t_submit(n);
    std::vector<std::size_t> inflight;
    rep.latency_ms.assign(n, 0.0);

    auto submitLocked = [&] {
        std::size_t k = submitted++;
        t_submit[k] = Clock::now();
        std::uint64_t id = master->apply(manifests[k]);
        if (id != first_id + k && rep.error.empty())
            rep.error = "request ids are not allocated in submit order";
        inflight.push_back(k);
    };

    const Clock::time_point t0 = Clock::now();
    const double cpu0 = cpuSeconds();
    rep.threads_peak = threadCount();
    {
        std::lock_guard<std::mutex> lk(mu);
        for (std::size_t i = 0; i < n && i < kClients; ++i)
            submitLocked();
    }

    // Stamp every request that completed since the last sweep and fire
    // its client's next request. Called with `mu` held.
    auto sweepLocked = [&] {
        for (std::size_t i = 0; i < inflight.size();) {
            std::size_t k = inflight[i];
            RequestPhase phase = master->phaseOf(first_id + k);
            if (phase != RequestPhase::kCompleted &&
                phase != RequestPhase::kFailed) {
                ++i;
                continue;
            }
            rep.latency_ms[k] = std::chrono::duration<double, std::milli>(
                                    Clock::now() - t_submit[k])
                                    .count();
            if (phase == RequestPhase::kFailed)
                rep.failed += 1;
            inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
            done += 1;
            if (submitted < n)
                submitLocked();  // the client's next request
            if (done == n)
                rep.window_s = secondsSince(t0);
        }
    };

    // Completions inside a round (the commit log publishes in id order)
    // are seen by the watcher; the reconcile thread sweeps again when a round
    // ends, so a client whose report landed at the very end of a round
    // is not left out of the next one by the polling delay. (A jthread,
    // so an exception in the reconcile loop stops and joins it on unwind.)
    std::jthread watcher([&](std::stop_token stop) {
        Clock::time_point next_sample = Clock::now();
        while (!stop.stop_requested()) {
            {
                std::lock_guard<std::mutex> lk(mu);
                if (done == n)
                    return;
                sweepLocked();
            }
            cv.notify_one();
            if (Clock::now() >= next_sample) {
                rep.threads_peak = std::max(rep.threads_peak, threadCount());
                next_sample = Clock::now() + kThreadSampleInterval;
            }
            std::this_thread::sleep_for(kPollInterval);
        }
    });

    std::size_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lk(mu);
            cv.wait(lk, [&] { return submitted > seen || done == n; });
            if (submitted == seen)
                break;
            seen = submitted;
        }
        std::uint64_t c0 = commits.value();
        Clock::time_point r0 = Clock::now();
        master->reconcile();
        double ms = secondsSince(r0) * 1e3;
        if (commits.value() > c0) {
            rep.round_ms.push_back(ms);
            rep.reconciled += commits.value() - c0;
        }
        std::lock_guard<std::mutex> lk(mu);
        sweepLocked();
        // Quiesced boundary: no round runs and admission is held.
        if (journal != nullptr)
            journal->maybeSnapshot([&] { return master->dumpState(); });
    }
    watcher.join();
    rep.cpu_s = cpuSeconds() - cpu0;
    rep.attempted = n;
    rep.degraded = registry.counter("net.streams_degraded").value();

    std::vector<const TraceReport *> reports;
    for (std::size_t k = 0; k < n; ++k)
        reports.push_back(master->report(first_id + k));
    rep.digest = reportDigest(reports);

    if (journal != nullptr) {
        master->attachJournal(nullptr);
        journal.reset();  // close the WAL before reading it back
        Clock::time_point r0 = Clock::now();
        durability::RecoveryResult rec = durability::recover(wal_dir);
        rep.recover_s = secondsSince(r0);
        std::vector<const TraceReport *> recovered;
        if (rec.ok)
            for (std::size_t k = 0; k < n; ++k) {
                auto it = rec.state.dump.reports.find(first_id + k);
                recovered.push_back(it == rec.state.dump.reports.end()
                                        ? nullptr
                                        : &it->second);
            }
        rep.recovered_equal = rec.ok && reportDigest(recovered) == rep.digest;
        if (!rep.recovered_equal && rep.error.empty())
            rep.error = rec.ok ? "recovered reports differ from the live ones"
                               : "recovery failed: " + rec.error;
        std::filesystem::remove_all(wal_dir);
    }
    return rep;
}

std::vector<std::string>
blockOf(const std::vector<std::string> &stream, std::size_t b)
{
    const auto size = static_cast<std::ptrdiff_t>(kBlockRequests);
    auto first = stream.begin() + static_cast<std::ptrdiff_t>(b) * size;
    return std::vector<std::string>(first, first + size);
}

LoopResult
runClosedLoop(const Workload &w, std::uint64_t seed,
              const std::vector<std::string> &stream, double seconds,
              const std::vector<std::uint64_t> &expected,
              const std::string &wal_dir)
{
    LoopResult out;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < kBlocks || secondsSince(t0) < seconds; ++i) {
        const std::size_t b = i % kBlocks;
        Repetition rep = runRepetition(w, seed, blockOf(stream, b),
                                       b * kBlockRequests + 1, wal_dir);
        // Hand the finished repetition's freed memory back, so each
        // repetition starts from the same heap and peak_rss_mb is the
        // largest single repetition's, not accumulated fragmentation.
        malloc_trim(0);
        if (i < kBlocks)
            out.block_digests.push_back(rep.digest);
        std::uint64_t want =
            expected.empty() ? out.block_digests[b] : expected[b];
        // A digest mismatch cannot be pinned on one request, so the
        // whole block counts as wrong.
        if (rep.digest != want) {
            rep.errors = rep.attempted;
            if (out.error.empty())
                out.error = "block " + std::to_string(b) + " digest " +
                            digestHex(rep.digest) + ", expected " +
                            digestHex(want);
        } else if (!rep.recovered_equal) {
            rep.errors = rep.attempted;
        } else {
            rep.errors = rep.failed + rep.degraded;
        }
        out.attempted += rep.attempted;
        out.errors += rep.errors;
        out.window_s += rep.window_s;
        out.cpu_s += rep.cpu_s;
        out.latency_ms.insert(out.latency_ms.end(), rep.latency_ms.begin(),
                              rep.latency_ms.end());
        out.round_ms.insert(out.round_ms.end(), rep.round_ms.begin(),
                            rep.round_ms.end());
        out.reconciled += rep.reconciled;
        out.threads_peak = std::max(out.threads_peak, rep.threads_peak);
        if (w.durable)
            out.recover_s.push_back(rep.recover_s);
        if (!rep.error.empty() && out.error.empty())
            out.error = rep.error;
        out.reps.push_back(std::move(rep));
    }
    return out;
}

}  // namespace perfbench
