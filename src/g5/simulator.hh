/**
 * @file
 * The g5 full-system simulator facade.
 *
 * This plays the role gem5 plays in the paper: it runs the same
 * workloads as the reference platform, on the `ex5_big` /
 * `ex5_LITTLE` CPU models, and emits a gem5-style statistics dump.
 * Two simulator versions are available; version 1 is the release the
 * paper evaluates (buggy big-core branch predictor), version 2 the
 * later release with the fix (Section VII).
 *
 * Simulations run on the predecoded fast engine (DESIGN.md §12); the
 * whole stats dump, including the run cache and its DVFS re-timing,
 * is bit-identical to the reference interpreter
 * (GEMSTONE_REFERENCE_EXEC=1), so validation analyses never see an
 * engine-dependent number.
 */

#ifndef GEMSTONE_G5_SIMULATOR_HH
#define GEMSTONE_G5_SIMULATOR_HH

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "g5/config.hh"
#include "g5/statmap.hh"
#include "uarch/system.hh"
#include "workload/workload.hh"

namespace gemstone::g5 {

/** Result of one g5 simulation. */
struct G5Stats
{
    std::string workload;
    G5Model model = G5Model::Ex5Big;
    int version = 1;
    double freqMhz = 0.0;

    /** Simulated execution time (what the paper compares to HW). */
    double simSeconds = 0.0;
    /** Full gem5-style statistics dump. */
    std::map<std::string, double> stats;
    /** Raw event record (used by the event-matching analyses). */
    uarch::EventCounts raw;

    /** Statistic by name; 0 when absent. */
    double value(const std::string &name) const;

    /** Statistic rate per simulated second. */
    double rate(const std::string &name) const;

    /** Render as a stats.txt-style text block. */
    std::string statsText() const { return renderStatsText(stats); }
};

/**
 * The simulator. A single instance caches base-frequency runs per
 * (workload, model) and re-times them across DVFS points, since the
 * modelled event counts are frequency-invariant.
 *
 * Thread safety: run() is deterministic and safe to call
 * concurrently on one instance — the run cache is populated under a
 * once-flag per (workload, model), so concurrent first runs
 * simulate exactly once and later runs share the result.
 * clearCache() must not race with run().
 */
class G5Simulation
{
  public:
    /** @param version simulator release: 1 (paper) or 2 (BP fix) */
    explicit G5Simulation(int version = 1);

    /** Run a workload on a CPU model at a DVFS point. */
    G5Stats run(const workload::Workload &work, G5Model model,
                double freq_mhz);

    int version() const { return simVersion; }

    /** Clear the run cache. */
    void clearCache();

  private:
    /** One cache slot (see OdroidXu3Platform::BaseRunSlot). */
    struct BaseRunSlot
    {
        std::once_flag once;
        uarch::RunResult run;
    };

    std::shared_ptr<BaseRunSlot> baseRun(
        const workload::Workload &work, G5Model model);

    int simVersion;
    std::mutex cacheMutex;
    std::map<std::string, std::shared_ptr<BaseRunSlot>> runCache;
};

} // namespace gemstone::g5

#endif // GEMSTONE_G5_SIMULATOR_HH
