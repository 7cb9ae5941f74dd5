/**
 * @file
 * The flat event-count record produced by a timing run.
 *
 * Every micro-architectural event either platform can observe is
 * accumulated here. The hwsim PMU maps a subset of these to ARMv7
 * PMC event numbers; the g5 stats dump maps (a superset of) them to
 * gem5-style dotted statistic names, applying the g5 counting quirks.
 */

#ifndef GEMSTONE_UARCH_EVENTS_HH
#define GEMSTONE_UARCH_EVENTS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace gemstone::uarch {

/**
 * Raw event counts for one core (or the sum over cores).
 */
struct EventCounts
{
    // Time.
    double cycles = 0.0;            //!< active cycles
    double seconds = 0.0;           //!< cycles / frequency

    // Instruction stream.
    std::uint64_t instructions = 0; //!< architecturally committed
    std::uint64_t instSpec = 0;     //!< issued incl. wrong path
    std::uint64_t intAluOps = 0;
    std::uint64_t intMulOps = 0;
    std::uint64_t intDivOps = 0;
    std::uint64_t fpOps = 0;        //!< scalar VFP
    std::uint64_t simdOps = 0;      //!< ASE/NEON
    std::uint64_t loadOps = 0;
    std::uint64_t storeOps = 0;
    std::uint64_t nopOps = 0;
    std::uint64_t unalignedAccesses = 0;

    // Control flow.
    std::uint64_t branches = 0;          //!< all PC-writing insts
    std::uint64_t condBranches = 0;
    std::uint64_t immedBranches = 0;
    std::uint64_t returnBranches = 0;
    std::uint64_t indirectBranches = 0;
    std::uint64_t callBranches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t condIncorrect = 0;
    std::uint64_t predictedTaken = 0;
    std::uint64_t predictedTakenIncorrect = 0;
    std::uint64_t btbHits = 0;
    std::uint64_t usedRas = 0;
    std::uint64_t rasIncorrect = 0;
    std::uint64_t indirectMispredicts = 0;
    std::uint64_t wrongPathInsts = 0;
    std::uint64_t wrongPathLoads = 0;

    // Synchronisation.
    std::uint64_t ldrexOps = 0;
    std::uint64_t strexOps = 0;
    std::uint64_t strexFails = 0;
    std::uint64_t barriers = 0;      //!< DMB
    std::uint64_t isbs = 0;

    // L1 instruction side.
    std::uint64_t l1iAccesses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t itlbAccesses = 0;
    std::uint64_t itlbMisses = 0;    //!< L1 ITLB refills (0x02)
    std::uint64_t l2ItlbAccesses = 0;
    std::uint64_t l2ItlbMisses = 0;
    std::uint64_t itlbWalks = 0;

    // L1 data side.
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dReadAccesses = 0;
    std::uint64_t l1dWriteAccesses = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1dReadMisses = 0;   //!< refills for reads (0x42)
    std::uint64_t l1dWriteMisses = 0;  //!< refills for writes (0x43)
    std::uint64_t l1dWritebacks = 0;   //!< 0x15
    std::uint64_t l1dStreamingStores = 0; //!< write-around stores
    std::uint64_t dtlbAccesses = 0;
    std::uint64_t dtlbMisses = 0;      //!< L1 DTLB refills (0x05)
    std::uint64_t l2DtlbAccesses = 0;
    std::uint64_t l2DtlbMisses = 0;
    std::uint64_t dtlbWalks = 0;

    // L2 cache (shared per cluster; attributed to the aggregate).
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Writebacks = 0;
    std::uint64_t l2Prefetches = 0;
    std::uint64_t l2PrefetchHits = 0;

    // Bus / memory.
    std::uint64_t busAccesses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t snoops = 0;

    /**
     * DRAM time charged to this core, in nanoseconds, after the
     * memory-overlap factor. cycles(f') = cycles(f) +
     * dramStallNs * (f' - f), which lets one simulation be re-timed
     * at every DVFS point.
     */
    double dramStallNs = 0.0;

    // Stall decomposition (model-internal; useful for analysis).
    double stallCyclesFrontend = 0.0;
    double stallCyclesBranch = 0.0;
    double stallCyclesMem = 0.0;
    double stallCyclesSync = 0.0;
    double stallCyclesExec = 0.0;

    /** Accumulate another record into this one. */
    void merge(const EventCounts &other);

    /** Flatten to a name->value map (raw totals). */
    std::map<std::string, double> toMap() const;

    /** Number of scalar fields (the length of fieldNames()). */
    static constexpr std::size_t kFieldCount = 69;

    /** Every scalar field's name, in lexicographic order. */
    static const std::array<const char *, kFieldCount> &fieldNames();

    /** Write every field as a double, in fieldNames() order. */
    void writeFields(double *out) const;

    /**
     * Restore every field from writeFields() output. Exact for every
     * count below 2^53, which lets memoised run results round-trip
     * through the exec::ResultStore bit-exactly.
     */
    void readFields(const double *in);

    /** Instructions per cycle (0 when no cycles). */
    double ipc() const
    {
        return cycles > 0
            ? static_cast<double>(instructions) / cycles
            : 0.0;
    }

    /** Branch predictor accuracy (1 when no branches). */
    double branchAccuracy() const
    {
        return branches > 0
            ? 1.0 - static_cast<double>(branchMispredicts) /
                static_cast<double>(branches)
            : 1.0;
    }
};

} // namespace gemstone::uarch

#endif // GEMSTONE_UARCH_EVENTS_HH
