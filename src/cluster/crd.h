/**
 * @file
 * The configuration interface of EXIST's cluster integration (paper §4):
 * tracing requests are Custom-Resource-Definition-style objects created
 * through a unified interface; a controller reconciles them. The
 * key=value text form models the kubectl-applied manifest.
 */
#ifndef EXIST_CLUSTER_CRD_H
#define EXIST_CLUSTER_CRD_H

#include <cstdint>
#include <string>

#include "net/fabric.h"
#include "util/types.h"

namespace exist {

/** Lifecycle of a TraceRequest object. */
enum class RequestPhase : std::uint8_t {
    kPending,
    kRunning,
    kCompleted,
    kFailed,
};

inline const char *
requestPhaseName(RequestPhase p)
{
    switch (p) {
      case RequestPhase::kPending: return "Pending";
      case RequestPhase::kRunning: return "Running";
      case RequestPhase::kCompleted: return "Completed";
      case RequestPhase::kFailed: return "Failed";
    }
    return "?";
}

/** Why TraceRequest::parse rejected a manifest. */
struct ManifestError {
    enum class Kind : std::uint8_t {
        kNone,
        kMalformedToken,  ///< a token without '='
        kUnknownKey,
        kBadValue,        ///< not a number/boolean, or out of range
        kMissingApp,      ///< no app= key
    };
    Kind kind = Kind::kNone;
    std::string token;  ///< the offending token ("" for kMissingApp)

    bool ok() const { return kind == Kind::kNone; }
    /** One-line operator-facing description. */
    std::string message() const;
};

/** A tracing request CRD. */
struct TraceRequest {
    std::uint64_t id = 0;  ///< assigned by the API server
    std::string app;       ///< target application name
    /** Anomaly-triggered requests trace every repetition (§3.4). */
    bool anomaly = false;
    /** User override of the tracing period; 0 = let RCO decide. */
    Cycles period_override = 0;
    /** Node memory budget for trace buffers (MB). */
    std::uint64_t budget_mb = 500;
    /** Personalized option: ring buffers instead of compulsory STOP. */
    bool ring_buffers = false;
    /** Personalized option: UMA core sampling ratio (0 = default). */
    double core_sample_ratio = 0.0;
    /** Personalized option: streaming decode — overlap collection with
     *  flow reconstruction so reports are ready at trace end. Ignored
     *  (batch fallback) when combined with ring=true. */
    bool streaming = false;
    /** Decode fast path (DESIGN.md §11): per-binary block cache +
     *  TNT-run memoization. Reports are bit-identical either way;
     *  off exists for perf comparison and as the reference path. */
    bool decode_cache = true;
    /** TNT-memo window size in bits (0 = block cache only). */
    int tnt_memo_bits = 6;

    /** Collection plane (ISSUE 6): ship session results node -> master
     *  over the simulated fabric instead of in-process. The knobs below
     *  only apply when net=true. */
    bool net = false;
    double net_loss = 0.0;       ///< per-frame drop probability
    double net_reorder = 0.0;    ///< per-frame reorder probability
    double net_duplicate = 0.0;  ///< per-frame duplicate probability
    double net_link_latency_us = 50.0;

    /** Durability plane (DESIGN.md §12): wal= names the directory the
     *  control plane journals into. Deliberately NOT rendered by
     *  toManifest(): it is host-local deployment state, and manifests
     *  must stay byte-identical across hosts and across a recovery
     *  (snapshots and WAL records embed manifests verbatim). */
    std::string wal_dir;
    /** Publishes between snapshots (0 = never snapshot). */
    std::uint64_t snapshot_interval = 8;

    RequestPhase phase = RequestPhase::kPending;

    /** The fabric configuration this request asks for. */
    net::NetSpec netSpec() const;

    /**
     * Parse a manifest of "key=value" pairs separated by whitespace or
     * newlines, e.g. "app=Search1 anomaly=true period_ms=500". Returns
     * the first error; `*out` is unspecified unless the result is ok().
     * Booleans take true/false/1/0/on/off; numbers must parse whole
     * and lie in range (ratios in [0, 1], latencies and periods >= 0).
     */
    static ManifestError parse(const std::string &manifest,
                               TraceRequest *out);
    /**
     * Parse a manifest the caller knows is valid, e.g. one that
     * toManifest() rendered. A malformed one is an internal bug
     * (panic); external input goes through the overload above.
     */
    static TraceRequest parse(const std::string &manifest);

    /** Render back to manifest form. */
    std::string toManifest() const;
};

}  // namespace exist

#endif  // EXIST_CLUSTER_CRD_H
