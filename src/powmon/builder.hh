/**
 * @file
 * Power-model building and validation (the Powmon flow of [8]).
 */

#ifndef GEMSTONE_POWMON_BUILDER_HH
#define GEMSTONE_POWMON_BUILDER_HH

#include <set>

#include "powmon/model.hh"

namespace gemstone::powmon {

/** Configuration of the automatic PMC event selection. */
struct SelectionConfig
{
    /** Cap on selected events (the paper's models use 6-8). */
    std::size_t maxEvents = 7;
    /** Significance stop rule. */
    double pValueStop = 0.05;
    /** Reject additions that push the mean VIF above this. */
    double maxMeanVif = 12.0;
    /** Minimum adjusted-R2 gain to accept an event. */
    double minGain = 5e-4;
    /**
     * PMC ids that must not be selected (the "PMC selection
     * restraints" of Fig. 1 — events that are unavailable or
     * inaccurate in the simulator).
     */
    std::set<int> excluded;
    /** Only consider events with a usable g5 equivalent. */
    bool requireG5Equivalent = false;
    /** Candidate pool; empty means every PMU event. */
    std::vector<int> pool;
    /** Extra composite candidates (e.g. 0x1B-0x73). */
    std::vector<EventSpec> composites;
    /**
     * Worker threads for the per-round candidate evaluations (each
     * candidate's trial fit, significance and VIF are independent).
     * The selection outcome is identical at any value: the stateful
     * threshold scan is replayed serially over the gathered results.
     */
    unsigned jobs = 1;
};

/**
 * The Section V selection for models that must also run on g5 stats
 * (Figs. 7-8): @p max_events events that have a g5 equivalent, the
 * knownBadForG5() events excluded, and the 0x1B-0x73 composite (the
 * speculative non-FP count, which sidesteps g5's FP misclassification)
 * offered as a candidate.
 */
SelectionConfig g5CompatibleSelection(std::size_t max_events,
                                      unsigned jobs);

/** Outcome of a selection run. */
struct SelectionResult
{
    std::vector<EventSpec> events;
    std::vector<double> adjR2Trajectory;
};

/**
 * Builds and validates power models from platform observations.
 */
class PowerModelBuilder
{
  public:
    /**
     * @param observations measurements across workloads and DVFS
     *        points (power + PMCs); typically all 65 workloads
     * @param cluster_name label for the resulting models
     */
    PowerModelBuilder(std::vector<PowerObservation> observations,
                      std::string cluster_name);

    /**
     * Automatic event selection: forward stepwise maximisation of
     * adjusted R2 over per-second PMC rates, subject to significance,
     * VIF, and restriction-list constraints. Selection runs over all
     * observations pooled (frequency terms are absorbed by the
     * per-frequency fits built afterwards).
     */
    SelectionResult selectEvents(const SelectionConfig &config) const;

    /**
     * Fit per-frequency OLS models for a fixed event set. The
     * per-frequency fits are independent and fan over @p jobs
     * threads; the model is identical at any jobs count.
     */
    PowerModel build(const std::vector<EventSpec> &events,
                     unsigned jobs = 1) const;

    /**
     * Validate a model against a set of observations (use the
     * builder's own set for in-sample quality, or a held-out set).
     * @p jobs parallelises the per-predictor VIF regressions.
     */
    static PowerModelQuality validate(
        const PowerModel &model,
        const std::vector<PowerObservation> &observations,
        unsigned jobs = 1);

    const std::vector<PowerObservation> &observations() const
    {
        return obs;
    }

  private:
    std::vector<PowerObservation> obs;
    std::string clusterName;
};

} // namespace gemstone::powmon

#endif // GEMSTONE_POWMON_BUILDER_HH
