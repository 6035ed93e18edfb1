#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now())
{
}

double
SpanRecorder::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
}

int
SpanRecorder::open(const char *layer, std::uint64_t request)
{
    Span s;
    s.layer = layer;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.request = request;
    s.start_us = nowUs();
    spans_.push_back(std::move(s));
    int index = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    spans_[static_cast<std::size_t>(index)].end_us = nowUs();
    stack_.pop_back();
}

SpanRecorder::Scope::Scope(SpanRecorder *rec, const char *layer,
                           std::uint64_t request)
    : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr)
{
    if (rec_ != nullptr)
        index_ = rec_->open(layer, request);
}

SpanRecorder::Scope::~Scope()
{
    if (rec_ != nullptr)
        rec_->close(index_);
}

std::map<std::string, double>
SpanRecorder::selfMsByLayer() const
{
    // Children of one span, in start order.
    std::vector<std::vector<int>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent >= 0)
            children[static_cast<std::size_t>(spans_[i].parent)].push_back(
                static_cast<int>(i));

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::vector<std::pair<double, double>> iv;
        for (int c : children[i]) {
            const Span &k = spans_[static_cast<std::size_t>(c)];
            iv.emplace_back(std::max(k.start_us, s.start_us),
                            std::min(k.end_us, s.end_us));
        }
        std::sort(iv.begin(), iv.end());
        // Union of the child intervals, so overlapping children are
        // not subtracted twice.
        double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
        for (const auto &[lo, hi] : iv) {
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self[s.layer] += (s.end_us - s.start_us - covered) / 1e3;
    }
    return self;
}

std::map<std::string, double>
SpanRecorder::totalMsByLayer() const
{
    std::map<std::string, double> total;
    for (const Span &s : spans_)
        total[s.layer] += (s.end_us - s.start_us) / 1e3;
    return total;
}

std::map<std::string, std::uint64_t>
SpanRecorder::countByLayer() const
{
    std::map<std::string, std::uint64_t> n;
    for (const Span &s : spans_)
        n[s.layer] += 1;
    return n;
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"args\":{\"name\":\"perfbench traced pass\"}}");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"span\":%zu,\"parent\":%d,\"request\":%llu}}",
                     s.layer.c_str(), s.start_us, s.end_us - s.start_us, i,
                     s.parent, static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

}  // namespace perfbench
