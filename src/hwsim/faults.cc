/**
 * @file
 * Fault injector implementation.
 */

#include "hwsim/faults.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gemstone::hwsim {

RunError::RunError(std::string kind, const std::string &what)
    : std::runtime_error(what), faultKind(std::move(kind))
{
}

bool
FaultConfig::active() const
{
    return enabled &&
        (runFailureProb > 0.0 || sensorDropoutProb > 0.0 ||
         sensorStuckProb > 0.0 || pmcGroupLossProb > 0.0 ||
         pmcOverflowProb > 0.0 || thermalEpisodeProb > 0.0);
}

std::string
FaultConfig::signature() const
{
    if (!active())
        return "off";
    std::string sig = "seed=" + std::to_string(seed);
    auto prob = [&sig](const char *name, double value) {
        if (value > 0.0)
            sig += ";" + std::string(name) + "=" +
                formatDouble(value, 6);
    };
    prob("runfail", runFailureProb);
    prob("sensordrop", sensorDropoutProb);
    prob("dropfrac", sensorDropoutFraction);
    prob("sensorstuck", sensorStuckProb);
    prob("pmcloss", pmcGroupLossProb);
    prob("pmcwrap", pmcOverflowProb);
    prob("thermal", thermalEpisodeProb);
    prob("slowdown", thermalSlowdown);
    return sig;
}

FaultConfig
FaultConfig::labMix(std::uint64_t seed)
{
    FaultConfig config;
    config.enabled = true;
    config.seed = seed;
    // A bad day in the lab: roughly one attempt in eight loses its
    // run, one in seven hits a thermal episode, and the sensor/PMU
    // paths each degrade a few percent of the attempts.
    config.runFailureProb = 0.12;
    config.thermalEpisodeProb = 0.15;
    config.thermalSlowdown = 0.35;
    config.sensorDropoutProb = 0.10;
    config.sensorDropoutFraction = 0.6;
    config.sensorStuckProb = 0.06;
    config.pmcGroupLossProb = 0.08;
    config.pmcOverflowProb = 0.04;
    return config;
}

FaultInjector::FaultInjector(const FaultConfig &config)
    : faultConfig(config)
{
    fatal_if(config.sensorDropoutFraction < 0.0 ||
                 config.sensorDropoutFraction >= 1.0,
             "sensor dropout fraction must be in [0, 1)");
    fatal_if(config.thermalSlowdown < 0.0,
             "thermal slowdown must be non-negative");
}

FaultInjector::Tally &
FaultInjector::Tally::operator=(const Tally &other)
{
    plans = other.plans.load();
    runFailures = other.runFailures.load();
    thermalEpisodes = other.thermalEpisodes.load();
    sensorDropouts = other.sensorDropouts.load();
    sensorStuck = other.sensorStuck.load();
    pmcGroupLosses = other.pmcGroupLosses.load();
    pmcOverflows = other.pmcOverflows.load();
    return *this;
}

void
FaultInjector::resetTally()
{
    faultTally.plans = 0;
    faultTally.runFailures = 0;
    faultTally.thermalEpisodes = 0;
    faultTally.sensorDropouts = 0;
    faultTally.sensorStuck = 0;
    faultTally.pmcGroupLosses = 0;
    faultTally.pmcOverflows = 0;
}

bool
FaultInjector::Plan::anyFault() const
{
    return runFails || thermalEpisode || sensorDropout ||
        sensorStuck || pmcGroupLoss || pmcOverflow;
}

FaultInjector::Plan
FaultInjector::plan(const std::string &workload,
                    const std::string &cluster_tag, double freq_mhz,
                    unsigned attempt) const
{
    Plan plan;
    plan.noiseStreamTag = attempt;
    if (!active())
        return plan;

    // One private stream per (point, attempt): decisions are a pure
    // function of the identity, never of campaign order.
    std::string key = workload + ":" + cluster_tag + ":" +
        formatDouble(freq_mhz, 3);
    Rng base(faultConfig.seed ^ hashString(key));
    Rng rng = base.fork(attempt);

    ++faultTally.plans;

    // Draw order is part of the fault model's contract: changing it
    // changes every seeded campaign.
    if (rng.chance(faultConfig.runFailureProb)) {
        plan.runFails = true;
        plan.failureKind =
            rng.chance(0.5) ? "hung-run" : "crashed-run";
        ++faultTally.runFailures;
        return plan;  // a dead run produces nothing else
    }
    if (rng.chance(faultConfig.thermalEpisodeProb)) {
        plan.thermalEpisode = true;
        ++faultTally.thermalEpisodes;
    }
    if (rng.chance(faultConfig.sensorDropoutProb)) {
        plan.sensorDropout = true;
        // Episodes differ in severity around the configured level.
        plan.sensorDropFraction = std::clamp(
            faultConfig.sensorDropoutFraction *
                rng.uniform(0.6, 1.3),
            0.0, 0.95);
        ++faultTally.sensorDropouts;
    }
    if (rng.chance(faultConfig.sensorStuckProb)) {
        plan.sensorStuck = true;
        // The latched sample dates from an idle stretch of the run.
        plan.sensorStuckScale = rng.uniform(0.15, 0.45);
        ++faultTally.sensorStuck;
    }
    if (rng.chance(faultConfig.pmcGroupLossProb)) {
        plan.pmcGroupLoss = true;
        // Up to 12 multiplex groups cover the full event table; the
        // sampler clamps the index to the group count in use.
        plan.lostGroup =
            static_cast<unsigned>(rng.uniformInt(12));
        ++faultTally.pmcGroupLosses;
    }
    if (rng.chance(faultConfig.pmcOverflowProb)) {
        plan.pmcOverflow = true;
        ++faultTally.pmcOverflows;
    }
    return plan;
}

} // namespace gemstone::hwsim
