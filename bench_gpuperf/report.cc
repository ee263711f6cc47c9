#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "api/codecs.h"
#include "common/fnv.h"

namespace gpuperf {
namespace perfbench {

void
Report::metric(const std::string &name, double value,
               const std::string &unit, const std::string &note)
{
    metrics_.push_back({name, value, unit, note});
}

void
Report::problem(const std::string &what)
{
    // A broken build fails every request; the first few say why.
    constexpr size_t kShown = 10;
    ++problemCount_;
    if (problems_.size() < kShown)
        problems_.push_back(what);
}

void
Report::account(const api::AnalysisResponse &resp, size_t expected)
{
    attempted_ += expected;
    size_t ok = 0;
    for (const driver::BatchResult &cell : resp.cells)
        ok += cell.ok ? 1 : 0;
    failed_ += expected - std::min(ok, expected);
}

void
Report::refused(size_t cells)
{
    attempted_ += cells;
    failed_ += cells;
}

void
Report::mismatched(size_t cells)
{
    failed_ += cells;
}

void
Report::fold(const api::AnalysisResponse &resp)
{
    if (digested_ >= kDigestResponses)
        return;
    store::ByteWriter w;
    api::writeResponse(w, resp);
    digest_ = fnv1a64(w.bytes(), digest_);
    ++digested_;
}

void
Report::merge(const Report &other)
{
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    infos_.insert(infos_.end(), other.infos_.begin(), other.infos_.end());
    for (const std::string &p : other.problems_)
        problem(p);
    problemCount_ += other.problemCount_ - other.problems_.size();
}

uint64_t
Report::failed() const
{
    return std::min(failed_, attempted_);
}

void
Report::print(const std::string &title) const
{
    std::printf("%s\n", title.c_str());
    for (const Metric &m : metrics_) {
        std::printf("  %-34s = %14.6g %-8s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    }
    const double frac =
        attempted_ ? static_cast<double>(failed()) / attempted_ : 0.0;
    std::printf("  %-34s = %14.6g %-8s (%llu of %llu cells)\n", "fail_frac",
                frac, "ratio", static_cast<unsigned long long>(failed()),
                static_cast<unsigned long long>(attempted_));
    std::printf("  %-34s = %016llx (first %zu responses, binary)\n",
                "digest", static_cast<unsigned long long>(digest_),
                digested_);
    for (const std::string &line : infos_)
        std::printf("  %s\n", line.c_str());
    for (const std::string &p : problems_)
        std::printf("  FAILED CHECK: %s\n", p.c_str());
    if (problemCount_ > problems_.size())
        std::printf("  ... and %zu more failed checks\n",
                    problemCount_ - problems_.size());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(std::max<uint64_t>(
                    attempted_, 1)),
                static_cast<unsigned long long>(failed()));
    for (size_t i = 0; i < metrics_.size(); ++i) {
        const double v =
            std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics_[i].name.c_str(), v,
                    metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
modelErrPct(const driver::BatchResult &cell)
{
    return cell.analysis.errorFraction() * 100.0;
}

double
peakRssMb()
{
    struct rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
} // namespace gpuperf
