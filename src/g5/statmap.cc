/**
 * @file
 * gem5-style statistic mapping.
 */

#include "g5/statmap.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/logging.hh"

namespace gemstone::g5 {

namespace {

#define STAT_CPU "system.cpu."
#define STAT_BP STAT_CPU "branchPred."
#define STAT_ICACHE STAT_CPU "icache."
#define STAT_DCACHE STAT_CPU "dcache."
#define STAT_ITB STAT_CPU "itb."
#define STAT_ITBWC STAT_CPU "itb_walker_cache."
#define STAT_DTB STAT_CPU "dtb."
#define STAT_DTBWC STAT_CPU "dtb_walker_cache."
#define STAT_L2 "system.l2."
#define STAT_MEM "system.mem_ctrls."

/**
 * Every statistic of a dump: calls emit(name, value) once per stat,
 * in definition (component) order. The schema collects the names
 * once; buildStatDump() keeps only the values.
 */
template <typename Emit>
void
defineStats(const uarch::EventCounts &e, double seconds, G5Model model,
            Emit &&emit)
{
    const bool big = model == G5Model::Ex5Big;

    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };

    // --- Top level ---
    emit("sim_seconds", seconds);
    emit("sim_ticks", seconds * 1e12);
    emit("sim_insts", d(e.instructions));
    emit("sim_ops", d(e.instSpec));
    emit("system.clk_domain.clock", 1.0);

    // --- CPU core ---
    emit(STAT_CPU "numCycles", e.cycles);
    emit(STAT_CPU "committedInsts", d(e.instructions));
    emit(STAT_CPU "committedOps", d(e.instructions));
    emit(STAT_CPU "ipc", e.ipc());
    emit(STAT_CPU "cpi", ratio(e.cycles, d(e.instructions)));
    emit(STAT_CPU "idleCycles",
        e.stallCyclesMem + e.stallCyclesFrontend + e.stallCyclesSync);

    // --- Fetch ---
    emit(STAT_CPU "fetch.Branches", d(e.branches));
    emit(STAT_CPU "fetch.predictedBranches", d(e.predictedTaken));
    emit(STAT_CPU "fetch.Cycles", e.cycles - e.stallCyclesFrontend);
    emit(STAT_CPU "fetch.IcacheStallCycles", e.stallCyclesFrontend);
    emit(STAT_CPU "fetch.TlbCycles",
        d(e.l2ItlbAccesses) * (big ? 4.0 : 2.0));
    emit(STAT_CPU "fetch.fetchedInsts",
        d(e.instructions + e.wrongPathInsts));
    emit(STAT_CPU "fetch.SquashCycles",
        d(e.branchMispredicts) * 2.0);
    emit(STAT_CPU "fetch.PendingTrapStallCycles",
        d(e.itlbWalks) * 1.5);
    emit(STAT_CPU "fetch.rateDist::mean",
        ratio(d(e.instructions + e.wrongPathInsts), e.cycles));

    // --- Decode / rename (coarse) ---
    emit(STAT_CPU "decode.DecodedInsts",
        d(e.instructions + e.wrongPathInsts));
    emit(STAT_CPU "rename.RenamedInsts",
        d(e.instructions + e.wrongPathInsts));
    emit(STAT_CPU "rename.squashedInsts", d(e.wrongPathInsts));

    // --- IEW (issue/execute/writeback) ---
    emit(STAT_CPU "iew.iewExecutedInsts", d(e.instSpec));
    emit(STAT_CPU "iew.exec_branches",
        d(e.branches + e.branchMispredicts));
    emit(STAT_CPU "iew.exec_nop", d(e.nopOps));
    emit(STAT_CPU "iew.exec_refs",
        d(e.loadOps + e.storeOps + e.wrongPathLoads));
    emit(STAT_CPU "iew.exec_loads", d(e.loadOps + e.wrongPathLoads));
    emit(STAT_CPU "iew.exec_stores", d(e.storeOps));
    emit(STAT_CPU "iew.branchMispredicts", d(e.branchMispredicts));
    emit(STAT_CPU "iew.predictedTakenIncorrect",
        d(e.predictedTakenIncorrect));
    emit(STAT_CPU "iew.predictedNotTakenIncorrect",
        d(e.condIncorrect > e.predictedTakenIncorrect
              ? e.condIncorrect - e.predictedTakenIncorrect
              : 0));
    emit(STAT_CPU "iew.memOrderViolationEvents",
        d(e.strexFails) * 0.5);
    emit(STAT_CPU "iew.lsq.forwLoads", d(e.loadOps) * 0.08);

    // --- Commit ---
    emit(STAT_CPU "commit.committedInsts", d(e.instructions));
    emit(STAT_CPU "commit.branchMispredicts", d(e.branchMispredicts));
    emit(STAT_CPU "commit.branches", d(e.branches));
    emit(STAT_CPU "commit.loads", d(e.loadOps));
    emit(STAT_CPU "commit.refs", d(e.loadOps + e.storeOps));
    emit(STAT_CPU "commit.membars", d(e.barriers + e.isbs));
    emit(STAT_CPU "commit.int_insts",
        d(e.intAluOps + e.intMulOps + e.intDivOps));
    // Counting quirk: scalar VFP is misclassified as SIMD, so the FP
    // commit class is empty and SIMD carries both (Section V).
    emit(STAT_CPU "commit.fp_insts", 0.0);
    emit(STAT_CPU "commit.simd_insts", d(e.fpOps + e.simdOps));
    emit(STAT_CPU "commit.commitNonSpecStalls",
        d(e.ldrexOps + e.strexOps + e.barriers));
    emit(STAT_CPU "commit.commitSquashedInsts", d(e.wrongPathInsts));

    // --- Functional units (same quirk) ---
    emit(STAT_CPU "iq.FU_type_0::IntAlu", d(e.intAluOps));
    emit(STAT_CPU "iq.FU_type_0::IntMult", d(e.intMulOps));
    emit(STAT_CPU "iq.FU_type_0::IntDiv", d(e.intDivOps));
    emit(STAT_CPU "iq.FU_type_0::FloatAdd", 0.0);
    emit(STAT_CPU "iq.FU_type_0::FloatDiv", 0.0);
    emit(STAT_CPU "iq.FU_type_0::SimdFloatAdd", d(e.fpOps + e.simdOps));
    emit(STAT_CPU "iq.FU_type_0::MemRead",
        d(e.loadOps + e.wrongPathLoads));
    emit(STAT_CPU "iq.FU_type_0::MemWrite", d(e.storeOps));
    emit(STAT_CPU "iq.fullRegistersEvents", e.stallCyclesExec * 0.1);

    // --- Branch predictor ---
    emit(STAT_BP "lookups", d(e.branches));
    emit(STAT_BP "condPredicted", d(e.condBranches));
    emit(STAT_BP "condIncorrect", d(e.condIncorrect));
    emit(STAT_BP "BTBLookups", d(e.branches));
    emit(STAT_BP "BTBHits", d(e.btbHits));
    emit(STAT_BP "BTBHitPct",
        ratio(d(e.btbHits), d(e.branches)) * 100.0);
    emit(STAT_BP "usedRAS", d(e.usedRas));
    emit(STAT_BP "RASInCorrect", d(e.rasIncorrect));
    emit(STAT_BP "indirectLookups",
        d(e.indirectBranches + e.returnBranches));
    emit(STAT_BP "indirectMisses", d(e.indirectMispredicts));
    emit(STAT_BP "indirectHits",
        d(e.indirectBranches + e.returnBranches >=
                  e.indirectMispredicts
              ? e.indirectBranches + e.returnBranches -
                  e.indirectMispredicts
              : 0));

    // --- L1 instruction cache ---
    emit(STAT_ICACHE "overall_accesses::total", d(e.l1iAccesses));
    emit(STAT_ICACHE "overall_hits::total", d(e.l1iAccesses - e.l1iMisses));
    emit(STAT_ICACHE "overall_misses::total", d(e.l1iMisses));
    emit(STAT_ICACHE "overall_miss_rate::total",
        ratio(d(e.l1iMisses), d(e.l1iAccesses)));
    emit(STAT_ICACHE "ReadReq_accesses::total", d(e.l1iAccesses));
    emit(STAT_ICACHE "ReadReq_misses::total", d(e.l1iMisses));
    emit(STAT_ICACHE "demand_misses::total", d(e.l1iMisses));
    emit(STAT_ICACHE "overall_mshr_misses::total", d(e.l1iMisses));
    emit(STAT_ICACHE "replacements",
        d(e.l1iMisses > 512 ? e.l1iMisses - 512 : 0));

    // --- L1 data cache ---
    emit(STAT_DCACHE "overall_accesses::total", d(e.l1dAccesses));
    emit(STAT_DCACHE "overall_hits::total", d(e.l1dAccesses - e.l1dMisses));
    emit(STAT_DCACHE "overall_misses::total", d(e.l1dMisses));
    emit(STAT_DCACHE "overall_miss_rate::total",
        ratio(d(e.l1dMisses), d(e.l1dAccesses)));
    emit(STAT_DCACHE "ReadReq_accesses::total", d(e.l1dReadAccesses));
    emit(STAT_DCACHE "ReadReq_misses::total", d(e.l1dReadMisses));
    emit(STAT_DCACHE "WriteReq_accesses::total", d(e.l1dWriteAccesses));
    emit(STAT_DCACHE "WriteReq_misses::total", d(e.l1dWriteMisses));
    emit(STAT_DCACHE "writebacks::total", d(e.l1dWritebacks));
    emit(STAT_DCACHE "overall_mshr_misses::total", d(e.l1dMisses));
    emit(STAT_DCACHE "overall_mshr_uncacheable_latency::total",
        e.stallCyclesMem * 0.05);
    emit(STAT_DCACHE "demand_miss_latency::total",
        e.stallCyclesMem);
    emit(STAT_DCACHE "replacements",
        d(e.l1dMisses > 512 ? e.l1dMisses - 512 : 0));

    // --- Instruction TLB + walker cache (the split L2 ITLB) ---
    emit(STAT_ITB "accesses", d(e.itlbAccesses));
    emit(STAT_ITB "misses", d(e.itlbMisses));
    emit(STAT_ITB "hits", d(e.itlbAccesses - e.itlbMisses));
    emit(STAT_ITB "walks", d(e.itlbWalks));
    emit(STAT_ITBWC "overall_accesses::total", d(e.l2ItlbAccesses));
    emit(STAT_ITBWC "overall_hits::total",
        d(e.l2ItlbAccesses - e.l2ItlbMisses));
    emit(STAT_ITBWC "overall_misses::total", d(e.l2ItlbMisses));
    emit(STAT_ITBWC "overall_miss_rate::total",
        ratio(d(e.l2ItlbMisses), d(e.l2ItlbAccesses)));
    emit(STAT_ITBWC "ReadReq_accesses::total", d(e.l2ItlbAccesses));
    emit(STAT_ITBWC "tags.data_accesses", d(e.l2ItlbAccesses) * 8.0);

    // --- Data TLB + walker cache ---
    emit(STAT_DTB "accesses", d(e.dtlbAccesses));
    emit(STAT_DTB "misses", d(e.dtlbMisses));
    emit(STAT_DTB "hits", d(e.dtlbAccesses - e.dtlbMisses));
    emit(STAT_DTB "walks", d(e.dtlbWalks));
    emit(STAT_DTB "prefetch_faults", d(e.wrongPathLoads) * 0.12);
    emit(STAT_DTBWC "overall_accesses::total", d(e.l2DtlbAccesses));
    emit(STAT_DTBWC "overall_hits::total",
        d(e.l2DtlbAccesses - e.l2DtlbMisses));
    emit(STAT_DTBWC "overall_misses::total", d(e.l2DtlbMisses));
    emit(STAT_DTBWC "ReadReq_accesses::total", d(e.l2DtlbAccesses));

    // --- Shared L2 ---
    emit(STAT_L2 "overall_accesses::total", d(e.l2Accesses));
    emit(STAT_L2 "overall_hits::total", d(e.l2Accesses - e.l2Misses));
    emit(STAT_L2 "overall_misses::total", d(e.l2Misses));
    emit(STAT_L2 "overall_miss_rate::total",
        ratio(d(e.l2Misses), d(e.l2Accesses)));
    emit(STAT_L2 "writebacks::total", d(e.l2Writebacks));
    emit(STAT_L2 "prefetcher.num_hwpf_issued", d(e.l2Prefetches));
    emit(STAT_L2 "prefetcher.pfSpanPage", d(e.l2Prefetches) * 0.05);
    emit(STAT_L2 "overall_prefetch_hits", d(e.l2PrefetchHits));
    emit(STAT_L2 "ReadExReq_accesses::total", d(e.l1dWriteMisses));
    emit(STAT_L2 "ReadExReq_hits::total",
        d(e.l1dWriteMisses) * 0.8);
    emit(STAT_L2 "ReadExReq_misses::total",
        d(e.l1dWriteMisses) * 0.2);
    emit(STAT_L2 "ReadReq_accesses::total",
        d(e.l2Accesses > e.l1dWriteMisses
              ? e.l2Accesses - e.l1dWriteMisses
              : 0));
    emit(STAT_L2 "demand_miss_latency::total", e.dramStallNs * 1e3);
    emit(STAT_L2 "snoops", d(e.snoops));

    // --- Memory controller ---
    emit(STAT_MEM "num_reads::total", d(e.dramReads));
    emit(STAT_MEM "num_writes::total", d(e.dramWrites));
    emit(STAT_MEM "bytes_read::total", d(e.dramReads) * 64.0);
    emit(STAT_MEM "bytes_written::total", d(e.dramWrites) * 64.0);
    emit(STAT_MEM "bw_total::total",
        ratio(d(e.dramReads + e.dramWrites) * 64.0, seconds));
    emit(STAT_MEM "avgRdQLen", ratio(d(e.dramReads), e.cycles) * 40.0);

    // --- Misc op classes (spec-executed) ---
    emit(STAT_CPU "op_class_0::IntAlu", d(e.intAluOps));
    emit(STAT_CPU "op_class_0::IntMult", d(e.intMulOps));
    emit(STAT_CPU "op_class_0::IntDiv", d(e.intDivOps));
    emit(STAT_CPU "op_class_0::SimdFloatArith", d(e.fpOps + e.simdOps));
    emit(STAT_CPU "op_class_0::MemRead", d(e.loadOps));
    emit(STAT_CPU "op_class_0::MemWrite", d(e.storeOps));
    emit(STAT_CPU "num_mem_refs", d(e.loadOps + e.storeOps));
    emit(STAT_CPU "num_load_insts", d(e.loadOps));
    emit(STAT_CPU "num_store_insts", d(e.storeOps));
    emit(STAT_CPU "num_ldrex", d(e.ldrexOps));
    emit(STAT_CPU "num_strex", d(e.strexOps));
    emit(STAT_CPU "num_strex_fail", d(e.strexFails));
    emit(STAT_CPU "num_membar", d(e.barriers));
    emit(STAT_CPU "num_isb", d(e.isbs));
    emit(STAT_CPU "num_unaligned", d(e.unalignedAccesses));

}

#undef STAT_CPU
#undef STAT_BP
#undef STAT_ICACHE
#undef STAT_DCACHE
#undef STAT_ITB
#undef STAT_ITBWC
#undef STAT_DTB
#undef STAT_DTBWC
#undef STAT_L2
#undef STAT_MEM

} // namespace

StatSchema::StatSchema()
{
    std::vector<std::string> defined;
    defineStats(uarch::EventCounts{}, 0.0, G5Model::Ex5Big,
                [&defined](const char *name, double) {
                    defined.emplace_back(name);
                });
    statNames = defined;
    std::sort(statNames.begin(), statNames.end());
    panic_if(std::adjacent_find(statNames.begin(), statNames.end()) !=
                 statNames.end(),
             "g5 stat defined twice");
    for (const std::string &name : defined) {
        slotOfDefinition.push_back(
            static_cast<std::uint16_t>(indexOf(name)));
    }
}

const StatSchema &
StatSchema::instance()
{
    static const StatSchema schema;
    return schema;
}

std::size_t
StatSchema::indexOf(std::string_view name) const
{
    auto it = std::lower_bound(statNames.begin(), statNames.end(), name);
    return it != statNames.end() && *it == name
        ? static_cast<std::size_t>(it - statNames.begin())
        : npos;
}

std::vector<double>
buildStatDump(const uarch::EventCounts &e, double seconds,
              G5Model model)
{
    const StatSchema &schema = StatSchema::instance();
    std::vector<double> dump(schema.size());
    std::size_t defined = 0;
    defineStats(e, seconds, model,
                [&](const char *, double value) {
                    dump[schema.slotOfDefinition[defined++]] = value;
                });
    return dump;
}

std::string
renderStatsText(const std::vector<double> &stats)
{
    const std::vector<std::string> &names =
        StatSchema::instance().names();
    std::ostringstream os;
    os << "---------- Begin Simulation Statistics ----------\n";
    for (std::size_t i = 0; i < stats.size(); ++i) {
        os << std::left << std::setw(52) << names[i] << " "
           << std::setprecision(12) << stats[i] << "\n";
    }
    os << "---------- End Simulation Statistics   ----------\n";
    return os.str();
}

} // namespace gemstone::g5
