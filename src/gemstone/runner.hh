/**
 * @file
 * The GemStone experiment runner: automates Experiments 1-4 of
 * Fig. 1 (hardware characterisation, g5 simulation, power/PMC
 * collection and collation).
 */

#ifndef GEMSTONE_GEMSTONE_RUNNER_HH
#define GEMSTONE_GEMSTONE_RUNNER_HH

#include <memory>

#include "exec/resultstore.hh"
#include "gemstone/dataset.hh"
#include "powmon/model.hh"
#include "util/cancellation.hh"

namespace gemstone::core {

/** Runner configuration. */
struct RunnerConfig
{
    /** g5 simulator release under evaluation (1 = paper, 2 = fix). */
    int g5Version = 1;
    /** Timing repeats per hardware measurement. */
    unsigned repeats = 5;
    /** Master seed for all stochastic observation noise. */
    std::uint64_t seed = 0x0d401dULL;
    /**
     * Board-to-board spread of the hidden power coefficients; keep 0
     * for the reference board, non-zero to emulate another physical
     * unit (Section V's published-coefficient scenario).
     */
    double boardVariation = 0.0;
    /**
     * Worker threads for the experiment loops. 1 runs the task
     * graph inline; results are bit-identical at any value (points
     * are gathered by index and every measurement is attempt 0 of
     * its point, a pure function of its identity).
     */
    unsigned jobs = 1;
    /**
     * Cooperative cancellation. When the token is cancelled the
     * experiment loops stop at the next measurement boundary (or
     * mid-simulation, at the model's poll points) and unwind with
     * CancelledError; completed work is unaffected.
     */
    CancellationToken cancel;
    /**
     * Wall-clock budget for one experiment run (runValidation /
     * runPowerCharacterisation); 0 means unlimited. Expiry unwinds
     * with DeadlineError.
     */
    double runDeadlineSeconds = 0.0;
};

/**
 * Orchestrates the platform and the simulator, producing collated
 * datasets for the analyses. One instance caches its simulation runs,
 * so iterating analyses is cheap.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(const RunnerConfig &config = {});

    /** The paper's DVFS points for a cluster. */
    static const std::vector<double> &frequenciesFor(
        hwsim::CpuCluster cluster);

    /** The g5 model corresponding to a hardware cluster. */
    static g5::G5Model modelFor(hwsim::CpuCluster cluster);

    /**
     * Experiments 1 + 2 + collation: run the 45-workload validation
     * set on the hardware platform and the g5 model across the
     * cluster's DVFS points.
     */
    ValidationDataset runValidation(hwsim::CpuCluster cluster);

    /** Validation limited to chosen frequencies (faster). */
    ValidationDataset runValidation(
        hwsim::CpuCluster cluster,
        const std::vector<double> &freqs_mhz);

    /**
     * Experiments 3 + 4: power characterisation of all 65 workloads
     * across every DVFS point of a cluster.
     */
    std::vector<powmon::PowerObservation> runPowerCharacterisation(
        hwsim::CpuCluster cluster);

    /**
     * Attach a memoisation store: hardware measurements and g5 runs
     * are looked up under a content address derived from (seed,
     * board variation, fault signature, repeats, workload, cluster,
     * frequency, attempt) before being executed, and inserted after.
     * Pass nullptr to detach. The store may be shared between
     * runners and is consulted from every worker thread.
     */
    void attachResultStore(std::shared_ptr<exec::ResultStore> store);

    const std::shared_ptr<exec::ResultStore> &resultStore() const
    {
        return store;
    }

    /**
     * One hardware measurement of a point, retry attempt made
     * explicit, memoised through the attached store (failures —
     * hwsim::RunError — are never cached and replay deterministically
     * on a warm store). Safe to call concurrently; a pure function
     * of (arguments, runner configuration).
     */
    hwsim::HwMeasurement measureHw(const workload::Workload &work,
                                   hwsim::CpuCluster cluster,
                                   double freq_mhz, unsigned attempt);

    /** One g5 simulation, memoised like measureHw(). */
    g5::G5Stats runG5(const workload::Workload &work,
                      hwsim::CpuCluster cluster, double freq_mhz);

    hwsim::OdroidXu3Platform &platform() { return *board; }
    g5::G5Simulation &simulator() { return *sim; }
    const RunnerConfig &config() const { return runnerConfig; }

  private:
    /** Store key of one hardware measurement attempt. */
    std::string hwKey(const workload::Workload &work,
                      hwsim::CpuCluster cluster, double freq_mhz,
                      unsigned attempt) const;

    /** Store key of one g5 run. */
    std::string g5Key(const workload::Workload &work,
                      hwsim::CpuCluster cluster,
                      double freq_mhz) const;

    RunnerConfig runnerConfig;
    std::unique_ptr<hwsim::OdroidXu3Platform> board;
    std::unique_ptr<g5::G5Simulation> sim;
    std::shared_ptr<exec::ResultStore> store;
};

} // namespace gemstone::core

#endif // GEMSTONE_GEMSTONE_RUNNER_HH
