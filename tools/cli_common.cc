#include "cli_common.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "api/codecs.h"

namespace gpuperf {
namespace cli {

namespace {

void
appendOption(CommonArgs *args, const std::string &key,
             const std::string &value)
{
    if (!args->query.empty())
        args->query += '&';
    args->query += key;
    args->query += '=';
    args->query += value;
}

} // namespace

bool
parseCommonArgs(int argc, char **argv, int first, CommonArgs *args)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                return nullptr;
            }
            return argv[++i];
        };

        // Flags that are NOT endpoint options.
        if (arg == "--via") {
            const char *v = value("--via");
            if (!v)
                return false;
            args->via.push_back(v);
            continue;
        }
        if (arg == "--out") {
            const char *v = value("--out");
            if (!v)
                return false;
            args->out = v;
            continue;
        }
        if (arg == "--stats-json") {
            args->statsJson = true;
            continue;
        }
        if (arg == "--dry-run") {
            args->dryRun = true;
            continue;
        }
        if (arg == "--force") {
            args->force = true;
            continue;
        }
        if (arg == "--report-only") {
            args->reportOnly = true;
            continue;
        }
        if (arg == "--min-loose") {
            const char *v = value("--min-loose");
            if (!v)
                return false;
            // Strict, like Endpoint::parse's numeric keys: a typo must
            // fail, not fall back to the default threshold.
            char *end = nullptr;
            const unsigned long long n = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0') {
                std::cerr << "bad value '" << v << "' for --min-loose\n";
                return false;
            }
            args->minLoose = n;
            continue;
        }
        if (arg == "--json") {
            appendOption(args, "json", "1");
            continue;
        }

        // Endpoint-option flags: `--KEY VALUE` == `?KEY=VALUE`.
        // Endpoint::parse validates the values, so a typo'd number
        // fails there with the URI in the message.
        static const struct
        {
            const char *flag;
            const char *key;
        } kOptionFlags[] = {
            {"--store", "store"},
            {"--timeout", "timeout"},
            {"--idle-timeout", "idle-timeout"},
            {"--job-timeout", "job-timeout"},
            {"--max-clients", "max-clients"},
            {"--max-inflight", "max-inflight"},
            {"--max-cells", "max-cells"},
            {"--max-frame-bytes", "max-frame-bytes"},
            {"--worker-inflight", "worker-inflight"},
            {"--max-jobs", "max-jobs"},
            {"--gc-bytes", "gc-bytes"},
            {"--gc-age", "gc-age"},
            {"--gc-interval", "gc-interval"},
            {"--sched", "sched"},
            {"--client", "client"},
        };
        bool matched = false;
        for (const auto &opt : kOptionFlags) {
            if (arg != opt.flag)
                continue;
            const char *v = value(opt.flag);
            if (!v)
                return false;
            appendOption(args, opt.key, v);
            if (std::string(opt.key) == "store")
                args->store = v;
            matched = true;
            break;
        }
        if (matched)
            continue;

        if (!arg.empty() && arg[0] != '-' && args->positional.empty()) {
            args->positional = arg;
            continue;
        }
        std::cerr << "unknown argument '" << arg << "'\n";
        return false;
    }
    return true;
}

api::Endpoint
endpointFor(const CommonArgs &args, const std::string &uri,
            api::Endpoint::Role role)
{
    std::string full = uri;
    if (!args.query.empty()) {
        full += (uri.find('?') == std::string::npos) ? '?' : '&';
        full += args.query;
    }
    return api::Endpoint::parse(full, role);
}

bool
readFile(const std::string &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

bool
loadRequestJson(const std::string &path, api::AnalysisRequest *req)
{
    std::string text;
    if (!readFile(path, &text)) {
        std::cerr << "cannot read request file '" << path << "'\n";
        return false;
    }
    std::string error;
    if (!api::requestFromJson(text, req, &error)) {
        std::cerr << "malformed request '" << path << "': " << error
                  << "\n";
        return false;
    }
    return true;
}

int
cellStatus(const api::AnalysisResponse &resp)
{
    int failed = 0;
    for (const driver::BatchResult &cell : resp.cells) {
        if (!cell.ok) {
            ++failed;
            std::cerr << "cell " << cell.kernelName << " x "
                      << cell.specName << " FAILED: " << cell.error
                      << "\n";
        }
    }
    return failed == 0 ? 0 : 2;
}

} // namespace cli
} // namespace gpuperf
