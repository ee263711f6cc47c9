/**
 * @file
 * The field walks (store/wire.h) of what the stores persist: profiles
 * (stats + traces), timing results, calibration tables, benchmark
 * results, and a finished cell's analysis. The api response codecs
 * use the same walks, so a stored result and a response cell cannot
 * drift apart. Encode with wire::encode(); wire::decode() returns
 * false on malformed input. Doubles round-trip bit-exactly.
 */

#ifndef GPUPERF_STORE_CODECS_H
#define GPUPERF_STORE_CODECS_H

#include <string>

#include "common/fnv.h"
#include "funcsim/profile.h"
#include "model/calibration.h"
#include "model/report.h"
#include "model/session.h"
#include "store/wire.h"

namespace gpuperf {
namespace wire {

template <>
struct EnumWire<isa::UnitKind>
    : ByNumber<static_cast<int>(isa::UnitKind::kNone) + 1> {};
template <>
struct EnumWire<arch::OccupancyLimit>
    : ByNumber<static_cast<int>(arch::OccupancyLimit::Warps) + 1> {};
template <>
struct EnumWire<model::Component>
    : ByNumber<static_cast<int>(model::Component::kGlobal) + 1> {};

template <class V>
void
fields(V &v, funcsim::StageStats &x)
{
    v("typeCounts", x.typeCounts);
    v("madCount", x.madCount);
    v("totalWarpInstrs", x.totalWarpInstrs);
    v("sharedInstrs", x.sharedInstrs);
    v("globalInstrs", x.globalInstrs);
    v("sharedTransactions", x.sharedTransactions);
    v("sharedTransactionsIdeal", x.sharedTransactionsIdeal);
    v("sharedBytes", x.sharedBytes);
    v("globalTransactions", x.globalTransactions);
    v("globalBytes", x.globalBytes);
    v("globalRequestBytes", x.globalRequestBytes);
    v("globalXactBySize", x.globalXactBySize);
    v("activeWarpsPerBlock", x.activeWarpsPerBlock);
}

template <class V>
void
fields(V &v, funcsim::DynamicStats &x)
{
    v("stages", x.stages);
    v("gridDim", x.gridDim);
    v("blockDim", x.blockDim);
    v("warpsPerBlock", x.warpsPerBlock);
    v("barriersPerBlock", x.barriersPerBlock);
    v("sampledBlocks", x.sampledBlocks);
}

template <class V>
void
fields(V &v, funcsim::TraceOp &x)
{
    v("unit", x.unit);
    v("conflict", x.conflict);
    v("sharedPasses", x.sharedPasses);
    v("dst", x.dst);
    v("src", x.src);
    v("numXacts", x.numXacts);
    v("xactBytes", x.xactBytes);
    v("texIdx", x.texIdx);
}

template <class V>
void
fields(V &v, funcsim::WarpTrace &x)
{
    v("ops", x.ops);
    v("texLines", x.texLines);
}

template <class V>
void
fields(V &v, funcsim::BlockTrace &x)
{
    v("warpTraceIdx", x.warpTraceIdx);
}

template <class V>
void
fields(V &v, funcsim::LaunchTrace &x)
{
    v("pool", x.pool);
    v("blocks", x.blocks);
    v.check([&] {
        for (const funcsim::BlockTrace &b : x.blocks) {
            for (int idx : b.warpTraceIdx)
                if (idx < 0 || static_cast<size_t>(idx) >= x.pool.size())
                    return std::string("warp trace index out of range");
        }
        return std::string();
    });
    v("blockDim", x.blockDim);
    v("warpsPerBlock", x.warpsPerBlock);
    v("registersPerThread", x.registersPerThread);
    v("sharedBytesPerBlock", x.sharedBytesPerBlock);
}

template <class V>
void
fields(V &v, funcsim::LaunchConfig &x)
{
    v("gridDim", x.gridDim);
    v("blockDim", x.blockDim);
}

template <class V>
void
fields(V &v, arch::FuncsimFingerprint &x)
{
    v("warpSize", x.warpSize);
    v("coalesceGroup", x.coalesceGroup);
    v("minSegmentBytes", x.minSegmentBytes);
    v("maxSegmentBytes", x.maxSegmentBytes);
    v("numSharedBanks", x.numSharedBanks);
    v("sharedBankWidth", x.sharedBankWidth);
    v("sharedIssueGroup", x.sharedIssueGroup);
    v("textureCacheLineBytes", x.textureCacheLineBytes);
}

template <class V>
void
fields(V &v, funcsim::ProfileKey &x)
{
    v("kernelHash", x.kernelHash);
    v("inputHash", x.inputHash);
    v("cfg", x.cfg);
    v("homogeneous", x.homogeneous);
    v("sampleBlocks", x.sampleBlocks);
    v("maxWarpOps", x.maxWarpOps);
    v("fingerprint", x.fingerprint);
}

template <class V>
void
fields(V &v, arch::KernelResources &x)
{
    v("registersPerThread", x.registersPerThread);
    v("sharedBytesPerBlock", x.sharedBytesPerBlock);
    v("threadsPerBlock", x.threadsPerBlock);
}

template <class V>
void
fields(V &v, funcsim::KernelProfile &x)
{
    v("key", x.key);
    v("kernelName", x.kernelName);
    v("resources", x.resources);
    v("stats", x.stats);
    v("trace", x.trace);
}

template <class V>
void
fields(V &v, arch::Occupancy &x)
{
    v("blocksByRegisters", x.blocksByRegisters);
    v("blocksBySharedMem", x.blocksBySharedMem);
    v("blocksByThreads", x.blocksByThreads);
    v("blocksByBlockLimit", x.blocksByBlockLimit);
    v("blocksByWarpLimit", x.blocksByWarpLimit);
    v("residentBlocks", x.residentBlocks);
    v("residentWarps", x.residentWarps);
    v("limit", x.limit);
    v("warpsPerBlock", x.warpsPerBlock);
}

template <class V>
void
fields(V &v, timing::TimingResult &x)
{
    v("cycles", x.cycles);
    v("seconds", x.seconds);
    v("totalOps", x.totalOps);
    v("arithBusyCycles", x.arithBusyCycles);
    v("sharedBusyCycles", x.sharedBusyCycles);
    v("portBusyCycles", x.portBusyCycles);
    v("texHits", x.texHits);
    v("texMisses", x.texMisses);
    v("occupancy", x.occupancy);
}

template <class V>
void
fields(V &v, model::StageInput &x)
{
    v("typeCounts", x.typeCounts);
    v("madCount", x.madCount);
    v("totalWarpInstrs", x.totalWarpInstrs);
    v("sharedTransactions", x.sharedTransactions);
    v("sharedTransactionsIdeal", x.sharedTransactionsIdeal);
    v("sharedBytes", x.sharedBytes);
    v("globalTransactions", x.globalTransactions);
    v("globalBytes", x.globalBytes);
    v("globalRequestBytes", x.globalRequestBytes);
    v("effective64Xacts", x.effective64Xacts);
    v("activeWarpsPerSm", x.activeWarpsPerSm);
}

template <class V>
void
fields(V &v, model::ModelInput &x)
{
    v("stages", x.stages);
    v("gridDim", x.gridDim);
    v("blockDim", x.blockDim);
    v("occupancy", x.occupancy);
    v("concurrentBlocksPerSm", x.concurrentBlocksPerSm);
    v("stagesSerialized", x.stagesSerialized);
}

template <class V>
void
fields(V &v, model::StagePrediction &x)
{
    v("tInstr", x.tInstr);
    v("tShared", x.tShared);
    v("tGlobal", x.tGlobal);
    v("bottleneck", x.bottleneck);
    v("stageTime", x.stageTime);
    v("activeWarpsPerSm", x.activeWarpsPerSm);
    v("sharedBandwidth", x.sharedBandwidth);
}

template <class V>
void
fields(V &v, model::Prediction &x)
{
    v("stages", x.stages);
    v("serialized", x.serialized);
    v("tInstrTotal", x.tInstrTotal);
    v("tSharedTotal", x.tSharedTotal);
    v("tGlobalTotal", x.tGlobalTotal);
    v("totalSeconds", x.totalSeconds);
    v("bottleneck", x.bottleneck);
    v("nextBottleneck", x.nextBottleneck);
}

template <class V>
void
fields(V &v, model::ReportMetrics &x)
{
    v("computationalDensity", x.computationalDensity);
    v("bankConflictFactor", x.bankConflictFactor);
    v("coalescingEfficiency", x.coalescingEfficiency);
    v("avgActiveWarpsPerBlock", x.avgActiveWarpsPerBlock);
}

/** The measurement's stats and timing sit flat beside the rest. */
template <class V>
void
fields(V &v, model::Analysis &x)
{
    v("stats", x.measurement.stats);
    v("timing", x.measurement.timing);
    v("input", x.input);
    v("prediction", x.prediction);
    v("metrics", x.metrics);
}

template <class V>
void
fields(V &v, model::CalibrationTables &x)
{
    v("maxWarps", x.maxWarps);
    v("bytesPerPass", x.bytesPerPass);
    v.check([&] {
        return x.maxWarps > 0 && x.maxWarps <= 1024
                   ? std::string()
                   : std::string("calibration tables out of range");
    });
    v("instrThroughput", x.instrThroughput);
    v("sharedPassThroughput", x.sharedPassThroughput);
}

template <class V>
void
fields(V &v, model::GlobalBenchResult &x)
{
    v("seconds", x.seconds);
    v("transactions", x.transactions);
    v("requestBytes", x.requestBytes);
    v("bandwidth", x.bandwidth);
    v("xactThroughput", x.xactThroughput);
}

} // namespace wire

namespace store {

/**
 * Content digest of a table set (its encoded bytes hashed): part of
 * persistent result keys, so results computed under one calibration
 * are never served to a session using another.
 */
inline uint64_t
tablesDigest(const model::CalibrationTables &tables)
{
    ByteWriter w;
    wire::encode(w, tables);
    return fnv1a64(w.bytes());
}

} // namespace store
} // namespace gpuperf

#endif // GPUPERF_STORE_CODECS_H
