/**
 * @file
 * exist_perfbench: one run of one workload of the request-path
 * benchmark. perfbench/run.py builds this binary and drives it; see
 * perfbench/README.md for the metrics and what each workload is for.
 *
 *   exist_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--expect-digests HEX,...] [--work-dir DIR]
 *                   [--trace-out FILE] [--setup-only]
 *
 * The line before the last is `record {...}`: the run's parameters and
 * host fingerprint. The last line of stdout is one JSON object with
 * correct, attempted, failed and metrics.
 * Exit status 0 iff every correctness check passed.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/testbed.h"
#include "closed_loop.h"
#include "digest.h"
#include "runtime/thread_pool.h"
#include "spans.h"
#include "traced_pass.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    std::vector<std::uint64_t> expect_digests;  ///< one per block
    std::string work_dir = ".";
    std::string trace_out;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: exist_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--expect-digests HEX,...] "
                 "[--work-dir DIR] [--trace-out FILE] [--setup-only]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Args *a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--setup-only") {
            a->setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        std::string v = argv[++i];
        char *end = nullptr;
        if (k == "--workload") {
            a->workload = v;
        } else if (k == "--seed") {
            a->seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a->seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            a->trace = v == "1";
            if (v != "0" && v != "1")
                return false;
        } else if (k == "--expect-digests") {
            // Comma-separated hex, one per block.
            const char *p = v.c_str();
            for (;;) {
                a->expect_digests.push_back(std::strtoull(p, &end, 16));
                if (end == p || (*end != ',' && *end != '\0'))
                    return false;
                if (*end == '\0')
                    break;
                p = end + 1;
            }
        } else if (k == "--work-dir") {
            a->work_dir = v;
        } else if (k == "--trace-out") {
            a->trace_out = v;
        } else {
            return false;
        }
        if (end != nullptr && (*end != '\0' || end == v.c_str()))
            return false;
    }
    return findWorkload(a->workload) != nullptr && a->seconds > 0.0 &&
           (a->expect_digests.empty() ||
            a->expect_digests.size() == kBlocks);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    // Linear interpolation between closest ranks.
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** VmHWM of this process, in MiB. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    long kb = 0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    std::fclose(f);
    return static_cast<double>(kb) / 1024.0;
}

std::string
cpuModel()
{
    std::FILE *f = std::fopen("/proc/cpuinfo", "r");
    if (f == nullptr)
        return "unknown";
    char line[512];
    std::string model = "unknown";
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "model name", 10) != 0)
            continue;
        const char *colon = std::strchr(line, ':');
        if (colon != nullptr) {
            model = colon + 1;
            model.erase(0, model.find_first_not_of(" \t"));
            model.erase(model.find_last_not_of(" \t\r\n") + 1);
        }
        break;
    }
    std::fclose(f);
    return model;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
               buf + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
}

/**
 * Cold set-up: cluster build, binary repository, shared decode pool and
 * one untimed warm-up round through a throwaway control plane. Returns
 * an error message, empty on success.
 */
std::string
setUp(const Workload &w, std::uint64_t seed, const std::string &wal_dir)
{
    exist::Cluster cluster = makeCluster(w, seed);
    for (const std::string &app : cluster.deployedApps())
        exist::Testbed::binaryForApp(app);
    exist::ThreadPool::shared();
    Repetition warm = runRepetition(w, seed, warmupRound(w), 1, wal_dir);
    if (!warm.error.empty())
        return "warm-up: " + warm.error;
    if (warm.failed + warm.degraded > 0)
        return "warm-up: a request failed";
    return "";
}

void
layerTable(const SpanRecorder &rec, std::uint64_t requests)
{
    auto self = rec.selfMsByLayer();
    auto total = rec.totalMsByLayer();
    double request_ms = total["request"] + total["durability.snapshot"];
    std::printf("layer self time per request (traced pass, %llu requests, "
                "%.1f ms/request):\n",
                static_cast<unsigned long long>(requests),
                ratio(request_ms, static_cast<double>(requests)));
    for (const auto &[layer, ms] : self)
        std::printf("  %-20s %10.3f ms  %5.1f %%\n", layer.c_str(),
                    ratio(ms, static_cast<double>(requests)),
                    100.0 * ratio(ms, request_ms));
}

}  // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point t_start = Clock::now();
    Args args;
    if (!parseArgs(argc, argv, &args))
        return usage();
    const Workload &w = *findWorkload(args.workload);
    const std::string wal_dir = args.work_dir + "/wal-" + w.name;
    std::filesystem::create_directories(args.work_dir);

    std::string err = setUp(w, args.seed, wal_dir);
    const double setup_s =
        std::chrono::duration<double>(Clock::now() - t_start).count();
    if (!err.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", err.c_str());
        return 1;
    }
    if (args.setup_only) {
        std::printf("{\"setup_s\": %.17g}\n", setup_s);
        return 0;
    }

    const std::vector<std::string> stream = requestStream(w, args.seed);
    LoopResult loop = runClosedLoop(w, args.seed, stream, args.seconds,
                                    args.expect_digests, wal_dir);
    // Read before the passes below can raise it.
    const double peak_rss_mb = peakRssMb();

    std::vector<std::string> problems;
    if (!loop.error.empty())
        problems.push_back(loop.error);
    auto checkDigests = [&](const char *what, const PassResult &p,
                            std::size_t first_block) {
        if (!p.error.empty())
            problems.push_back(std::string(what) + ": " + p.error);
        for (std::size_t i = 0; i < p.digests.size(); ++i)
            if (p.digests[i] != loop.block_digests[first_block + i])
                problems.push_back(
                    std::string(what) + " block " +
                    std::to_string(first_block + i) + " digest " +
                    digestHex(p.digests[i]) + " differs from the closed "
                    "loop's " +
                    digestHex(loop.block_digests[first_block + i]));
    };

    // References for the closed loop's reports: the committed digests
    // at the default seed; otherwise the phase-by-phase pipeline, run
    // serially (and traced) on block 0 under --trace 1 and on a few
    // threads for the rest.
    SpanRecorder spans(args.trace);
    TwinResult twins;
    std::size_t ref_from = args.expect_digests.empty() ? 0 : kBlocks;
    if (args.trace) {
        twins = runTwinPasses(w, args.seed, blockOf(stream, 0), 1,
                              w.durable ? wal_dir : "", &spans);
        checkDigests("untraced pass", twins.untraced, 0);
        checkDigests("traced pass", twins.traced, 0);
        if (!args.trace_out.empty() && !spans.writeChromeTrace(args.trace_out))
            problems.push_back("cannot write " + args.trace_out);
        ref_from = std::max<std::size_t>(ref_from, 1);
    }
    if (ref_from < kBlocks) {
        const std::vector<std::string> rest(
            stream.begin() +
                static_cast<std::ptrdiff_t>(ref_from * kBlockRequests),
            stream.end());
        checkDigests("reference pass",
                     runPhasedPass(w, args.seed, rest,
                                   ref_from * kBlockRequests + 1, kThreads),
                     ref_from);
    }
    std::uint64_t failed = loop.errors;
    if (!problems.empty())
        failed = std::max<std::uint64_t>(failed, 1);
    const bool correct = problems.empty() && loop.errors == 0;
    for (const std::string &p : problems)
        std::fprintf(stderr, "perfbench: FAIL: %s\n", p.c_str());

    // Throughput and CPU are medians over the repetitions, so one slow
    // stretch of a shared host moves them less; latency percentiles are
    // over every request of the run.
    std::vector<double> rep_rps, rep_cpu_ms;
    for (const Repetition &r : loop.reps) {
        double ok = static_cast<double>(r.attempted - r.errors);
        rep_rps.push_back(ratio(ok, r.window_s));
        rep_cpu_ms.push_back(ratio(r.cpu_s * 1e3, ok));
    }
    const std::size_t samples = loop.latency_ms.size();
    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"requests_per_s", quantile(rep_rps, 0.5), "req/s"},
            {"latency_p50_ms", quantile(loop.latency_ms, 0.50), "ms"},
            {"latency_p90_ms", quantile(loop.latency_ms, 0.90), "ms"},
            {"cpu_ms_per_request", quantile(rep_cpu_ms, 0.5), "ms"},
            {"peak_rss_mb", peak_rss_mb, "MB"},
            {"setup_s", setup_s, "s"},
        };
    } else {
        const PassResult &traced = twins.traced;
        const PassResult &untraced = twins.untraced;
        const PassCounts &c = traced.counts;
        const double nreq = static_cast<double>(c.requests);
        auto self = spans.selfMsByLayer();
        auto count = spans.countByLayer();
        auto perReq = [&](double v) { return ratio(v, nreq); };
        metrics = {
            {"node.self_ms", perReq(self["node"]), "ms/req"},
            {"node.ns_per_branch",
             ratio(self["node"] * 1e6, static_cast<double>(c.truth_branches)),
             "ns"},
            {"node.trace_mb",
             perReq(static_cast<double>(c.trace_bytes) / kMiB), "MB/req"},
            {"node.drop_ratio",
             ratio(static_cast<double>(c.dropped_bytes),
                   static_cast<double>(c.produced_bytes)),
             "ratio"},
            {"decode.self_ms", perReq(self["decode"]), "ms/req"},
            {"decode.ns_per_byte",
             ratio(self["decode"] * 1e6, static_cast<double>(c.trace_bytes)),
             "ns"},
            {"decode.memo_hit_ratio",
             ratio(static_cast<double>(c.memo_hits),
                   static_cast<double>(c.memo_hits + c.memo_misses)),
             "ratio"},
            {"decode.errors", static_cast<double>(c.decode_errors), "count"},
            {"decode.tail_ms", quantile(c.decode_tail_ms, 0.5), "ms"},
            {"collect.self_ms", perReq(self["collect"]), "ms/req"},
            {"collect.ns_per_wire_byte",
             ratio(self["collect"] * 1e6, static_cast<double>(c.wire_bytes)),
             "ns"},
            {"collect.goodput_ratio",
             ratio(static_cast<double>(c.payload_bytes),
                   static_cast<double>(c.wire_bytes)),
             "ratio"},
            {"collect.retransmits", static_cast<double>(c.retransmits),
             "count"},
            {"collect.degraded", static_cast<double>(c.degraded), "count"},
            {"publish.self_ms", perReq(self["publish"]), "ms/req"},
            {"publish.oss_mb", perReq(static_cast<double>(c.oss_bytes) / kMiB),
             "MB/req"},
            {"control.admit_us",
             ratio(self["control.admit"] * 1e3,
                   static_cast<double>(count["control.admit"])),
             "us"},
            {"control.plan_us",
             ratio(self["control.plan"] * 1e3,
                   static_cast<double>(count["control.plan"])),
             "us"},
            {"control.round_ms", quantile(loop.round_ms, 0.5), "ms"},
            {"control.requests_per_round",
             ratio(static_cast<double>(loop.reconciled),
                   static_cast<double>(loop.round_ms.size())),
             "count"},
            {"durability.append_us",
             ratio(c.journal_append_ms * 1e3,
                   static_cast<double>(c.journal_appends)),
             "us"},
            {"durability.ns_per_wal_byte",
             ratio(c.journal_append_ms * 1e6,
                   static_cast<double>(c.wal_bytes)),
             "ns"},
            {"durability.wal_mb_per_request",
             perReq(static_cast<double>(c.wal_bytes) / kMiB), "MB/req"},
            {"durability.snapshot_ms",
             ratio(c.snapshot_ms, static_cast<double>(c.snapshots)), "ms"},
            {"durability.replay_mb_per_s",
             ratio(static_cast<double>(c.replay_bytes) / kMiB,
                   c.recover_ms / 1e3),
             "MB/s"},
            {"durability.recover_ms", c.recover_ms, "ms"},
            {"runtime.cpu_utilization",
             ratio(loop.cpu_s,
                   loop.window_s * std::thread::hardware_concurrency()),
             "ratio"},
            {"runtime.threads_peak", static_cast<double>(loop.threads_peak),
             "count"},
            {"runtime.serial_rps", ratio(nreq, traced.wall_s), "req/s"},
            {"bench.trace_overhead_pct",
             100.0 * ratio(traced.wall_s - untraced.wall_s, untraced.wall_s),
             "%"},
            {"bench.unattributed_ms", perReq(self["request"]), "ms/req"},
        };
        layerTable(spans, c.requests);
    }

    std::string digests;
    for (std::uint64_t d : loop.block_digests)
        digests += (digests.empty() ? "" : ",") + digestHex(d);
    const double error_rate = ratio(static_cast<double>(loop.errors),
                                    static_cast<double>(loop.attempted));

    // Human-readable run summary (stdout lines before the result).
    std::printf("workload %s seed %llu: %zu repetitions of %zu-request "
                "blocks, %zu latency samples (%zu beyond p90), "
                "error_rate %.4f, block digests %s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                loop.reps.size(), kBlockRequests, samples,
                samples - static_cast<std::size_t>(
                              std::ceil(0.9 * static_cast<double>(samples))),
                error_rate, digests.c_str());
    if (w.durable)
        std::printf("recover_s median %.4f over %zu WALs\n",
                    quantile(loop.recover_s, 0.5), loop.recover_s.size());

    char record[4096];
    std::snprintf(
        record, sizeof record,
        "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
        "\"trace\": %d, \"requests\": %llu, \"repetitions\": %zu, "
        "\"latency_samples\": %zu, \"error_rate\": %.6g, "
        "\"recover_s\": %.6g, \"digests\": \"%s\", \"shards\": %d, "
        "\"threads\": %d, \"clients\": %d, \"host\": {\"nproc\": %u, "
        "\"cpu_model\": \"%s\", \"build_type\": \"%s\", "
        "\"compiler\": \"%s\"}}",
        w.name.c_str(), static_cast<unsigned long long>(args.seed),
        args.seconds, args.trace ? 1 : 0,
        static_cast<unsigned long long>(loop.attempted), loop.reps.size(),
        samples, error_rate, quantile(loop.recover_s, 0.5), digests.c_str(),
        kShards, kThreads, kClients, std::thread::hardware_concurrency(),
        jsonEscape(cpuModel()).c_str(), EXIST_PERFBENCH_BUILD_TYPE,
        jsonEscape(EXIST_PERFBENCH_COMPILER).c_str());

    std::printf("record %s\n", record);
    printResult(correct, loop.attempted, failed, metrics);
    return correct ? 0 : 1;
}
