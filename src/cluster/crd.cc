#include "cluster/crd.h"

#include <charconv>
#include <cmath>
#include <sstream>

#include "util/logging.h"

namespace exist {

namespace {

bool
parseBool(const std::string &value, bool *out)
{
    if (value == "true" || value == "1" || value == "on")
        *out = true;
    else if (value == "false" || value == "0" || value == "off")
        *out = false;
    else
        return false;
    return true;
}

/** The whole of `value` as a T (no sign for unsigned T, no junk). */
template <typename T>
bool
parseNumber(const std::string &value, T *out)
{
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, *out);
    return ec == std::errc() && ptr == end;
}

/** A finite real in [lo, hi]. */
bool
parseReal(const std::string &value, double lo, double hi, double *out)
{
    return parseNumber(value, out) && std::isfinite(*out) &&
           *out >= lo && *out <= hi;
}

/** Longest period whose cycle count stays below 2^63, so converting
 *  it to Cycles is well defined. */
constexpr double kMaxPeriodMs =
    9.2e18 / static_cast<double>(kCyclesPerMs);

}  // namespace

std::string
ManifestError::message() const
{
    switch (kind) {
      case Kind::kNone: return "ok";
      case Kind::kMalformedToken:
        return "malformed manifest token '" + token + "' (want key=value)";
      case Kind::kUnknownKey:
        return "unknown manifest key in '" + token + "'";
      case Kind::kBadValue:
        return "bad manifest value in '" + token + "'";
      case Kind::kMissingApp: return "manifest missing app=";
    }
    return "?";
}

ManifestError
TraceRequest::parse(const std::string &manifest, TraceRequest *out)
{
    using Kind = ManifestError::Kind;
    TraceRequest req;
    std::istringstream in(manifest);
    std::string token;
    while (in >> token) {
        auto eq = token.find('=');
        if (eq == std::string::npos)
            return {Kind::kMalformedToken, token};
        std::string key = token.substr(0, eq);
        std::string value = token.substr(eq + 1);
        bool ok = true;
        if (key == "app") {
            req.app = value;
        } else if (key == "anomaly") {
            ok = parseBool(value, &req.anomaly);
        } else if (key == "period_ms") {
            double ms = 0;
            ok = parseReal(value, 0.0, kMaxPeriodMs, &ms);
            req.period_override = static_cast<Cycles>(
                ms * static_cast<double>(kCyclesPerMs));
        } else if (key == "budget_mb") {
            ok = parseNumber(value, &req.budget_mb);
        } else if (key == "ring") {
            ok = parseBool(value, &req.ring_buffers);
        } else if (key == "core_sample_ratio") {
            ok = parseReal(value, 0.0, 1.0, &req.core_sample_ratio);
        } else if (key == "streaming") {
            ok = parseBool(value, &req.streaming);
        } else if (key == "decode_cache") {
            ok = parseBool(value, &req.decode_cache);
        } else if (key == "tnt_memo_bits") {
            ok = parseNumber(value, &req.tnt_memo_bits) &&
                 req.tnt_memo_bits >= 0;
        } else if (key == "net") {
            ok = parseBool(value, &req.net);
        } else if (key == "loss") {
            ok = parseReal(value, 0.0, 1.0, &req.net_loss);
        } else if (key == "reorder") {
            ok = parseReal(value, 0.0, 1.0, &req.net_reorder);
        } else if (key == "duplicate") {
            ok = parseReal(value, 0.0, 1.0, &req.net_duplicate);
        } else if (key == "link_latency_us") {
            ok = parseReal(value, 0.0, HUGE_VAL,
                           &req.net_link_latency_us);
        } else if (key == "wal") {
            req.wal_dir = value;
        } else if (key == "snapshot_interval") {
            ok = parseNumber(value, &req.snapshot_interval);
        } else {
            return {Kind::kUnknownKey, token};
        }
        if (!ok)
            return {Kind::kBadValue, token};
    }
    if (req.app.empty())
        return {Kind::kMissingApp, ""};
    *out = std::move(req);
    return {};
}

TraceRequest
TraceRequest::parse(const std::string &manifest)
{
    TraceRequest req;
    ManifestError err = parse(manifest, &req);
    EXIST_ASSERT(err.ok(), "%s", err.message().c_str());
    return req;
}

std::string
TraceRequest::toManifest() const
{
    std::ostringstream out;
    out << "app=" << app;
    if (anomaly)
        out << " anomaly=true";
    if (period_override)
        out << " period_ms=" << cyclesToMs(period_override);
    out << " budget_mb=" << budget_mb;
    if (ring_buffers)
        out << " ring=true";
    if (core_sample_ratio > 0)
        out << " core_sample_ratio=" << core_sample_ratio;
    if (streaming)
        out << " streaming=true";
    if (!decode_cache)
        out << " decode_cache=off";
    if (tnt_memo_bits != 6)
        out << " tnt_memo_bits=" << tnt_memo_bits;
    if (net) {
        out << " net=true";
        if (net_loss > 0)
            out << " loss=" << net_loss;
        if (net_reorder > 0)
            out << " reorder=" << net_reorder;
        if (net_duplicate > 0)
            out << " duplicate=" << net_duplicate;
        if (net_link_latency_us != 50.0)
            out << " link_latency_us=" << net_link_latency_us;
    }
    // wal_dir is intentionally omitted (host-local; see crd.h); the
    // interval rides along so a re-parsed manifest keeps the cadence.
    if (snapshot_interval != 8)
        out << " snapshot_interval=" << snapshot_interval;
    return out.str();
}

net::NetSpec
TraceRequest::netSpec() const
{
    net::NetSpec spec;
    spec.enabled = net;
    spec.drop_rate = net_loss;
    spec.reorder_rate = net_reorder;
    spec.duplicate_rate = net_duplicate;
    spec.link_latency_us = net_link_latency_us;
    return spec;
}

}  // namespace exist
