#include "store/stats.h"

#include <cstdio>

namespace gpuperf {
namespace store {

namespace {

void
appendField(std::string *out, const std::string &indent,
            const char *name, uint64_t value, bool last)
{
    char line[128];
    std::snprintf(line, sizeof(line), "%s  \"%s\": %llu%s\n",
                  indent.c_str(), name,
                  static_cast<unsigned long long>(value),
                  last ? "" : ",");
    out->append(line);
}

} // namespace

std::string
storeStatsJson(const StoreStats &stats, const std::string &indent)
{
    std::string out = "{\n";
    appendField(&out, indent, "hits", stats.hits, false);
    appendField(&out, indent, "misses", stats.misses, false);
    appendField(&out, indent, "writes", stats.writes, false);
    appendField(&out, indent, "write_failures", stats.writeFailures,
                false);
    appendField(&out, indent, "writes_skipped", stats.writesSkipped,
                false);
    appendField(&out, indent, "bytes_read", stats.bytesRead, false);
    appendField(&out, indent, "bytes_written", stats.bytesWritten,
                false);
    appendField(&out, indent, "lease_steals", stats.leaseSteals, true);
    out += indent + "}";
    return out;
}

std::string
storeLayerStatsJson(const StoreLayerStats &stats,
                    const std::string &indent)
{
    const std::string inner = indent + "  ";
    std::string out = "{\n";
    out += inner + "\"profiles\": " +
           storeStatsJson(stats.profiles, inner) + ",\n";
    out += inner + "\"calibrations\": " +
           storeStatsJson(stats.calibrations, inner) + ",\n";
    out += inner + "\"timings\": " +
           storeStatsJson(stats.timings, inner) + ",\n";
    out += inner + "\"results\": " +
           storeStatsJson(stats.results, inner) + ",\n";
    out += inner + "\"total\": " +
           storeStatsJson(stats.total(), inner) + "\n";
    out += indent + "}";
    return out;
}

} // namespace store
} // namespace gpuperf
