#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace gpuperf {
namespace perfbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

size_t
SpanRecorder::open(const char *name, uint64_t request)
{
    Span s;
    s.name = name;
    s.request = request;
    s.parent = stack_.empty() ? kNoParent
                              : static_cast<int32_t>(stack_.back());
    s.startNs = nowNs();
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
SpanRecorder::close(size_t index, uint64_t work)
{
    if (stack_.empty() || stack_.back() != index)
        throw std::logic_error("span closed out of nesting order");
    stack_.pop_back();
    spans_[index].endNs = nowNs();
    spans_[index].work = work;
}

std::vector<int64_t>
SpanRecorder::selfNs() const
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent != kNoParent)
            children[s.parent].emplace_back(s.startNs, s.endNs);
    }
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals, clipped to the parent's.
        int64_t covered = 0;
        int64_t reach = s.startNs;
        for (const auto &[start, end] : kids) {
            const int64_t lo = std::max(start, reach);
            const int64_t hi = std::min(end, s.endNs);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, std::min(end, s.endNs));
        }
        self[i] = (s.endNs - s.startNs) - covered;
    }
    return self;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanRecorder *> &threads)
{
    int64_t origin = INT64_MAX;
    for (const SpanRecorder *rec : threads)
        for (const SpanRecorder::Span &s : rec->spans())
            origin = std::min(origin, s.startNs);

    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    bool first = true;
    char buf[320];
    for (size_t tid = 0; tid < threads.size(); ++tid) {
        for (const SpanRecorder::Span &s : threads[tid]->spans()) {
            std::snprintf(
                buf, sizeof(buf),
                "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                "{\"request\": %llu, \"parent\": %d, \"work\": %llu}}",
                first ? "" : ",", s.name, tid,
                static_cast<double>(s.startNs - origin) / 1e3,
                static_cast<double>(s.endNs - s.startNs) / 1e3,
                static_cast<unsigned long long>(s.request), s.parent,
                static_cast<unsigned long long>(s.work));
            out << buf;
            first = false;
        }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

double
emptySpanCostNs(size_t spans)
{
    // Batches keep the recorder small; clearing a batch is O(1) (spans
    // are trivially destructible and the capacity is kept).
    constexpr size_t kBatch = 10000;
    SpanRecorder rec;
    const int64_t t0 = nowNs();
    for (size_t i = 0; i < spans; ++i) {
        if (i % kBatch == 0)
            rec.clear();
        rec.close(rec.open("empty", i));
    }
    const int64_t t1 = nowNs();
    return static_cast<double>(t1 - t0) / static_cast<double>(spans);
}

} // namespace perfbench
} // namespace gpuperf
