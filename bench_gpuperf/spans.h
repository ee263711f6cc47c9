/**
 * @file
 * In-memory span recording for the traced benchmark run. The benchmark
 * wraps each call it makes into a gpuperf layer in a span (name, start,
 * end, parent, request id, and a work count such as warp instructions
 * simulated); nothing inside the library is instrumented. Spans stay in
 * memory while the run measures and are written once at exit as Chrome
 * trace-event JSON, which Perfetto and chrome://tracing open.
 *
 * A recorder belongs to one thread: spans nest by call order on that
 * thread, so the innermost open span is every new span's parent.
 */

#ifndef GPUPERF_BENCH_GPUPERF_SPANS_H
#define GPUPERF_BENCH_GPUPERF_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

namespace gpuperf {
namespace perfbench {

class SpanRecorder
{
  public:
    /** No parent: the span is a root. */
    static constexpr int32_t kNoParent = -1;

    struct Span
    {
        /** A string literal: spans are recorded on the hot path. */
        const char *name = "";
        uint64_t request = 0;
        int32_t parent = kNoParent;
        int64_t startNs = 0;
        int64_t endNs = 0;
        /** Work the span did, in the layer's own unit (0 = none). */
        uint64_t work = 0;
    };

    /** Open a span under the innermost open one; returns its index. */
    size_t open(const char *name, uint64_t request);
    /** Close span @p index (the innermost open one), recording @p work. */
    void close(size_t index, uint64_t work = 0);
    /** Append a finished span as given (synthetic traces). */
    void record(const Span &s) { spans_.push_back(s); }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time of every span, indexed like spans(): its duration minus
     * the part of its interval that its child spans cover.
     */
    std::vector<int64_t> selfNs() const;

    /** Drop every recorded span (open spans must all be closed). */
    void clear() { spans_.clear(); }

  private:
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** Opens a span on construction and closes it on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name, uint64_t request)
        : rec_(rec), index_(rec.open(name, request))
    {
    }
    ~ScopedSpan() { rec_.close(index_, work_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void setWork(uint64_t work) { work_ = work; }

  private:
    SpanRecorder &rec_;
    size_t index_;
    uint64_t work_ = 0;
};

/**
 * Write the spans of @p threads (one recorder per thread, tid = its
 * position) as Chrome trace-event JSON. Returns false on an I/O error.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanRecorder *> &threads);

/**
 * What recording one empty span costs, in nanoseconds, measured over
 * @p spans open/close pairs. Scaled by the spans a traced run
 * recorded, it bounds the tracing overhead of that run.
 */
double emptySpanCostNs(size_t spans = 1000000);

} // namespace perfbench
} // namespace gpuperf

#endif // GPUPERF_BENCH_GPUPERF_SPANS_H
