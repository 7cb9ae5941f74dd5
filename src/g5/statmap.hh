/**
 * @file
 * gem5-style statistic dump for the g5 simulator.
 *
 * Builds the hierarchical statistics tree (system.cpu.fetch.*,
 * system.cpu.branchPred.*, system.cpu.itb_walker_cache.*, system.l2.*
 * and so on) from a run's event record, reproducing both the naming
 * scheme of a real gem5 stats.txt and the g5 model's *counting
 * quirks* — most notably the misclassification of scalar VFP
 * operations as SIMD, which the paper calls out in Section V.
 *
 * As in gem5, the stats are registered once and named only when a
 * dump is written: a dump is a dense vector of doubles indexed by the
 * one process-wide StatSchema.
 */

#ifndef GEMSTONE_G5_STATMAP_HH
#define GEMSTONE_G5_STATMAP_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "g5/config.hh"
#include "uarch/events.hh"

namespace gemstone::g5 {

/**
 * The names of every statistic in a dump, built once per process.
 * Names are in lexicographic order, which is the order every dump,
 * stats.txt rendering and analysis walks them in.
 */
class StatSchema
{
  public:
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** The schema (built on first use; thread-safe). */
    static const StatSchema &instance();

    std::size_t size() const { return statNames.size(); }

    /** Every stat name, in dump order. */
    const std::vector<std::string> &names() const { return statNames; }

    /** Dump index of a stat, or npos when there is no such stat. */
    std::size_t indexOf(std::string_view name) const;

  private:
    StatSchema();

    friend std::vector<double> buildStatDump(
        const uarch::EventCounts &events, double seconds,
        G5Model model);

    std::vector<std::string> statNames;
    /** Dump index of the k-th stat in definition order. */
    std::vector<std::uint16_t> slotOfDefinition;
};

/**
 * Produce the full statistics dump for one run, in StatSchema order.
 *
 * @param events aggregate event record of the run
 * @param seconds simulated seconds
 * @param model which CPU model produced the run
 */
std::vector<double> buildStatDump(const uarch::EventCounts &events,
                                  double seconds, G5Model model);

/**
 * Write a gem5-style stats.txt rendering of a dump.
 */
std::string renderStatsText(const std::vector<double> &stats);

} // namespace gemstone::g5

#endif // GEMSTONE_G5_STATMAP_HH
