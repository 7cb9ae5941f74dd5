/**
 * @file
 * Fault injection for the reference platform.
 *
 * Real measurement campaigns on the ODROID-XU3 fail in recurring
 * ways: the 3.8 Hz INA231 power sensors drop or latch samples, the
 * A15 cluster hits its thermal trip mid-run and smears the timing,
 * PMC multiplexing loses whole counter groups (and 32-bit counters
 * wrap), and individual runs hang or crash outright. The
 * FaultInjector reproduces those failure modes deterministically so
 * the resilient campaign engine (src/gemstone/campaign.hh) can be
 * validated against them.
 *
 * Every fault decision is a pure function of (seed, workload,
 * cluster, frequency, attempt) — independent of campaign order — so
 * an interrupted and resumed campaign replays exactly the faults the
 * uninterrupted campaign would have seen. With FaultConfig disabled
 * (the default) the platform's behaviour is bit-identical to a build
 * without this header.
 */

#ifndef GEMSTONE_HWSIM_FAULTS_HH
#define GEMSTONE_HWSIM_FAULTS_HH

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace gemstone::hwsim {

/**
 * A measurement attempt that produced no usable result: the run hung
 * past its watchdog or the process crashed. Callers retry or give up;
 * the naive flow simply dies.
 */
class RunError : public std::runtime_error
{
  public:
    RunError(std::string kind, const std::string &what);

    /** Fault taxonomy tag, e.g. "hung-run" or "crashed-run". */
    const std::string &kind() const { return faultKind; }

  private:
    std::string faultKind;
};

/**
 * Probabilities of each fault mode, per measurement attempt. All
 * default to zero and nothing is consulted unless @c enabled, so
 * existing results are unchanged by construction.
 */
struct FaultConfig
{
    /** Master switch; false keeps the platform bit-identical. */
    bool enabled = false;

    /** Seed of the fault decision stream (independent of the
     *  platform's observation-noise seed). */
    std::uint64_t seed = 0xfa171ab5ULL;

    /** A run hangs or crashes and yields no measurement. */
    double runFailureProb = 0.0;

    /** A sensor dropout episode loses part of the power samples. */
    double sensorDropoutProb = 0.0;
    /** Fraction of the sensor window lost in a dropout episode. */
    double sensorDropoutFraction = 0.6;

    /** The sensor latches a stale (idle-period) reading. */
    double sensorStuckProb = 0.0;

    /** A multiplexed PMC counter group is lost entirely. */
    double pmcGroupLossProb = 0.0;
    /** A large PMC count wraps at 32 bits. */
    double pmcOverflowProb = 0.0;

    /** A spurious thermal-throttle episode strikes mid-measurement. */
    double thermalEpisodeProb = 0.0;
    /** Relative execution-time inflation during such an episode. */
    double thermalSlowdown = 0.35;

    /** True when enabled and at least one fault can fire. */
    bool active() const;

    /**
     * Canonical content signature of this configuration ("off" when
     * inactive). Two configs with the same signature plan identical
     * faults, so the signature is part of the exec::ResultStore
     * cache key for memoised measurements.
     */
    std::string signature() const;

    /**
     * The documented lab fault mix used by tab_fault_resilience and
     * DESIGN.md: every failure mode enabled at rates matching a bad
     * day in the lab (see "Fault model & resilience policy").
     */
    static FaultConfig labMix(std::uint64_t seed = 0xfa171ab5ULL);
};

/**
 * Plans the faults for each measurement attempt.
 *
 * Thread safety: plan() is safe to call concurrently from any number
 * of threads on one injector. The decision streams are pure functions
 * of the arguments and the seed, and the only shared state — the
 * fault tally — uses atomic counters. resetTally() must not race
 * with plan().
 */
class FaultInjector
{
  public:
    FaultInjector() = default;
    explicit FaultInjector(const FaultConfig &config);

    const FaultConfig &config() const { return faultConfig; }
    bool active() const { return faultConfig.active(); }

    /** The faults chosen for one measurement attempt. */
    struct Plan
    {
        bool runFails = false;
        std::string failureKind;    //!< set when runFails

        bool thermalEpisode = false;

        bool sensorDropout = false;
        double sensorDropFraction = 0.0;
        bool sensorStuck = false;
        /** Stale-sample level relative to the true power. */
        double sensorStuckScale = 1.0;

        bool pmcGroupLoss = false;
        unsigned lostGroup = 0;     //!< multiplex group index
        bool pmcOverflow = false;

        /**
         * Extra stream tag mixed into the measurement's noise fork so
         * retry attempts observe fresh noise. 0 for attempt 0, which
         * therefore reproduces the fault-free observation stream.
         */
        std::uint64_t noiseStreamTag = 0;

        /** True when any fault fires in this plan. */
        bool anyFault() const;
    };

    /**
     * Deterministic plan for attempt @p attempt of the point
     * (workload, cluster, freq). Pure in its arguments and the seed;
     * calling it is free of side effects on any other stream.
     */
    Plan plan(const std::string &workload,
              const std::string &cluster_tag, double freq_mhz,
              unsigned attempt) const;

    /**
     * Injected-fault totals, for campaign reports. The counters are
     * atomic so concurrent plan() calls from campaign worker threads
     * tally correctly; individual reads are exact once the campaign
     * has settled (and the total is deterministic because the set of
     * planned attempts is, regardless of thread count).
     */
    struct Tally
    {
        std::atomic<unsigned> plans{0};  //!< attempts planned
        std::atomic<unsigned> runFailures{0};
        std::atomic<unsigned> thermalEpisodes{0};
        std::atomic<unsigned> sensorDropouts{0};
        std::atomic<unsigned> sensorStuck{0};
        std::atomic<unsigned> pmcGroupLosses{0};
        std::atomic<unsigned> pmcOverflows{0};

        Tally() = default;
        // Copies snapshot the counters (atomics are not copyable),
        // which keeps FaultInjector assignable.
        Tally(const Tally &other) { *this = other; }
        Tally &operator=(const Tally &other);
    };

    const Tally &tally() const { return faultTally; }
    void resetTally();

  private:
    FaultConfig faultConfig;
    mutable Tally faultTally;
};

} // namespace gemstone::hwsim

#endif // GEMSTONE_HWSIM_FAULTS_HH
