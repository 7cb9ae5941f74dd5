/**
 * @file
 * EventCounts implementation.
 */

#include "uarch/events.hh"

#include <algorithm>
#include <array>
#include <type_traits>

namespace gemstone::uarch {

void
EventCounts::merge(const EventCounts &other)
{
    cycles = std::max(cycles, other.cycles);
    seconds = std::max(seconds, other.seconds);

    instructions += other.instructions;
    instSpec += other.instSpec;
    intAluOps += other.intAluOps;
    intMulOps += other.intMulOps;
    intDivOps += other.intDivOps;
    fpOps += other.fpOps;
    simdOps += other.simdOps;
    loadOps += other.loadOps;
    storeOps += other.storeOps;
    nopOps += other.nopOps;
    unalignedAccesses += other.unalignedAccesses;

    branches += other.branches;
    condBranches += other.condBranches;
    immedBranches += other.immedBranches;
    returnBranches += other.returnBranches;
    indirectBranches += other.indirectBranches;
    callBranches += other.callBranches;
    branchMispredicts += other.branchMispredicts;
    condIncorrect += other.condIncorrect;
    predictedTaken += other.predictedTaken;
    predictedTakenIncorrect += other.predictedTakenIncorrect;
    btbHits += other.btbHits;
    usedRas += other.usedRas;
    rasIncorrect += other.rasIncorrect;
    indirectMispredicts += other.indirectMispredicts;
    wrongPathInsts += other.wrongPathInsts;
    wrongPathLoads += other.wrongPathLoads;

    ldrexOps += other.ldrexOps;
    strexOps += other.strexOps;
    strexFails += other.strexFails;
    barriers += other.barriers;
    isbs += other.isbs;

    l1iAccesses += other.l1iAccesses;
    l1iMisses += other.l1iMisses;
    itlbAccesses += other.itlbAccesses;
    itlbMisses += other.itlbMisses;
    l2ItlbAccesses += other.l2ItlbAccesses;
    l2ItlbMisses += other.l2ItlbMisses;
    itlbWalks += other.itlbWalks;

    l1dAccesses += other.l1dAccesses;
    l1dReadAccesses += other.l1dReadAccesses;
    l1dWriteAccesses += other.l1dWriteAccesses;
    l1dMisses += other.l1dMisses;
    l1dReadMisses += other.l1dReadMisses;
    l1dWriteMisses += other.l1dWriteMisses;
    l1dWritebacks += other.l1dWritebacks;
    l1dStreamingStores += other.l1dStreamingStores;
    dtlbAccesses += other.dtlbAccesses;
    dtlbMisses += other.dtlbMisses;
    l2DtlbAccesses += other.l2DtlbAccesses;
    l2DtlbMisses += other.l2DtlbMisses;
    dtlbWalks += other.dtlbWalks;

    l2Accesses += other.l2Accesses;
    l2Misses += other.l2Misses;
    l2Writebacks += other.l2Writebacks;
    l2Prefetches += other.l2Prefetches;
    l2PrefetchHits += other.l2PrefetchHits;

    busAccesses += other.busAccesses;
    dramReads += other.dramReads;
    dramWrites += other.dramWrites;
    snoops += other.snoops;

    dramStallNs += other.dramStallNs;
    stallCyclesFrontend += other.stallCyclesFrontend;
    stallCyclesBranch += other.stallCyclesBranch;
    stallCyclesMem += other.stallCyclesMem;
    stallCyclesSync += other.stallCyclesSync;
    stallCyclesExec += other.stallCyclesExec;
}

/**
 * Every scalar field of EventCounts, in lexicographic name order (the
 * order of fieldNames()). fieldNames(), toMap(), writeFields() and
 * readFields() are generated from this single list so they can never
 * drift apart.
 */
#define GS_EVENT_COUNT_FIELDS(X) \
    X(barriers) \
    X(branchMispredicts) \
    X(branches) \
    X(btbHits) \
    X(busAccesses) \
    X(callBranches) \
    X(condBranches) \
    X(condIncorrect) \
    X(cycles) \
    X(dramReads) \
    X(dramStallNs) \
    X(dramWrites) \
    X(dtlbAccesses) \
    X(dtlbMisses) \
    X(dtlbWalks) \
    X(fpOps) \
    X(immedBranches) \
    X(indirectBranches) \
    X(indirectMispredicts) \
    X(instSpec) \
    X(instructions) \
    X(intAluOps) \
    X(intDivOps) \
    X(intMulOps) \
    X(isbs) \
    X(itlbAccesses) \
    X(itlbMisses) \
    X(itlbWalks) \
    X(l1dAccesses) \
    X(l1dMisses) \
    X(l1dReadAccesses) \
    X(l1dReadMisses) \
    X(l1dStreamingStores) \
    X(l1dWriteAccesses) \
    X(l1dWriteMisses) \
    X(l1dWritebacks) \
    X(l1iAccesses) \
    X(l1iMisses) \
    X(l2Accesses) \
    X(l2DtlbAccesses) \
    X(l2DtlbMisses) \
    X(l2ItlbAccesses) \
    X(l2ItlbMisses) \
    X(l2Misses) \
    X(l2PrefetchHits) \
    X(l2Prefetches) \
    X(l2Writebacks) \
    X(ldrexOps) \
    X(loadOps) \
    X(nopOps) \
    X(predictedTaken) \
    X(predictedTakenIncorrect) \
    X(rasIncorrect) \
    X(returnBranches) \
    X(seconds) \
    X(simdOps) \
    X(snoops) \
    X(stallCyclesBranch) \
    X(stallCyclesExec) \
    X(stallCyclesFrontend) \
    X(stallCyclesMem) \
    X(stallCyclesSync) \
    X(storeOps) \
    X(strexFails) \
    X(strexOps) \
    X(unalignedAccesses) \
    X(usedRas) \
    X(wrongPathInsts) \
    X(wrongPathLoads)

#define X(field) +1
static_assert(0 GS_EVENT_COUNT_FIELDS(X) == EventCounts::kFieldCount,
              "kFieldCount must match the field list");
#undef X

const std::array<const char *, EventCounts::kFieldCount> &
EventCounts::fieldNames()
{
    static const std::array<const char *, kFieldCount> names = {
#define X(field) #field,
        GS_EVENT_COUNT_FIELDS(X)
#undef X
    };
    return names;
}

std::map<std::string, double>
EventCounts::toMap() const
{
    std::map<std::string, double> m;
#define X(field) m[#field] = static_cast<double>(field);
    GS_EVENT_COUNT_FIELDS(X)
#undef X
    return m;
}

void
EventCounts::writeFields(double *out) const
{
#define X(field) *out++ = static_cast<double>(field);
    GS_EVENT_COUNT_FIELDS(X)
#undef X
}

void
EventCounts::readFields(const double *in)
{
#define X(field)                                                          \
    field = static_cast<std::remove_reference_t<decltype(field)>>(*in++);
    GS_EVENT_COUNT_FIELDS(X)
#undef X
}

#undef GS_EVENT_COUNT_FIELDS

} // namespace gemstone::uarch
