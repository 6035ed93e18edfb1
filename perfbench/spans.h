/**
 * @file
 * Benchmark-side spans for the traced pass. Spans are recorded from
 * the benchmark's own files around calls into each layer, kept in
 * memory, and exported as Chrome trace-event JSON when the pass ends.
 * The recorder is single-threaded: the traced pass is serial.
 */
#ifndef EXIST_PERFBENCH_SPANS_H
#define EXIST_PERFBENCH_SPANS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string layer;  ///< e.g. "node", "decode", "durability.append"
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< index into the recorder's spans, -1 = root
    std::uint64_t request = 0;
};

class SpanRecorder
{
  public:
    /** A disabled recorder records nothing and reads no clock, so the
     *  untraced pass runs the same code without span cost. */
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Opens a span as a child of the innermost open span. */
    class Scope
    {
      public:
        Scope(SpanRecorder *rec, const char *layer, std::uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder *rec_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Span time minus the part of it covered by child spans, summed
     *  per layer, in milliseconds. */
    std::map<std::string, double> selfMsByLayer() const;
    /** Wall time of each layer's spans (not self), in milliseconds. */
    std::map<std::string, double> totalMsByLayer() const;
    /** Number of spans per layer. */
    std::map<std::string, std::uint64_t> countByLayer() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O
     *  failure. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    int open(const char *layer, std::uint64_t request);
    void close(int index);
    double nowUs() const;

    bool enabled_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

}  // namespace perfbench

#endif  // EXIST_PERFBENCH_SPANS_H
