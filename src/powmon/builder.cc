/**
 * @file
 * PowerModelBuilder implementation.
 */

#include "powmon/builder.hh"

#include <algorithm>
#include <cmath>

#include "exec/parallel.hh"
#include "hwsim/pmu.hh"
#include "mlstat/descriptive.hh"
#include "util/logging.hh"

namespace gemstone::powmon {

PowerModelBuilder::PowerModelBuilder(
    std::vector<PowerObservation> observations,
    std::string cluster_name)
    : obs(std::move(observations)), clusterName(std::move(cluster_name))
{
    fatal_if(obs.empty(), "no observations to build from");
}

namespace {

/** Rates of one spec across a set of observations. */
std::vector<double>
rateColumn(const EventSpec &spec,
           const std::vector<PowerObservation> &obs)
{
    std::vector<double> column;
    column.reserve(obs.size());
    for (const PowerObservation &o : obs)
        column.push_back(spec.hwRate(o.measurement));
    return column;
}

} // namespace

SelectionConfig
g5CompatibleSelection(std::size_t max_events, unsigned jobs)
{
    SelectionConfig config;
    config.maxEvents = max_events;
    config.requireG5Equivalent = true;
    config.jobs = jobs;
    for (int id : EventSpecTable::knownBadForG5())
        config.excluded.insert(id);
    config.composites.push_back(EventSpecTable::difference(0x1B, 0x73));
    return config;
}

SelectionResult
PowerModelBuilder::selectEvents(const SelectionConfig &config) const
{
    // Build the candidate pool.
    std::vector<EventSpec> candidates;
    std::vector<int> pool = config.pool.empty()
        ? hwsim::PmuEventTable::allIds()
        : config.pool;
    for (int id : pool) {
        if (config.excluded.count(id))
            continue;
        if (config.requireG5Equivalent &&
            !EventSpecTable::hasG5Equivalent(id)) {
            continue;
        }
        candidates.push_back(EventSpecTable::forPmc(id));
    }
    for (const EventSpec &composite : config.composites)
        candidates.push_back(composite);

    // Precompute rate columns and the response.
    std::vector<std::vector<double>> columns;
    columns.reserve(candidates.size());
    for (const EventSpec &spec : candidates)
        columns.push_back(rateColumn(spec, obs));
    std::vector<double> response;
    response.reserve(obs.size());
    for (const PowerObservation &o : obs)
        response.push_back(o.power());

    SelectionResult result;
    std::vector<bool> used(candidates.size(), false);
    std::vector<std::size_t> chosen;
    double best_adj_r2 = -1.0;

    // Per-round scratch: every remaining candidate's trial fit,
    // significance and VIF are computed up front in parallel (they
    // are independent of one another), then the historical stateful
    // threshold scan is replayed serially over the gathered values.
    // The replay applies the same checks in the same candidate order
    // against the same evolving round_best, so the selection is
    // identical to the serial loop at any jobs count — the parallel
    // pass merely evaluates some candidates the serial loop would
    // have pruned by its threshold check.
    struct CandidateEval
    {
        bool viable = false;
        double adjR2 = 0.0;
        bool significant = false;
        double meanVif = 0.0;
    };
    std::vector<CandidateEval> evals(candidates.size());

    while (chosen.size() < config.maxEvents) {
        exec::parallelFor(
            config.jobs, candidates.size(), [&](std::size_t c) {
                CandidateEval &eval = evals[c];
                eval.viable = false;
                if (used[c])
                    return;
                // Skip degenerate (constant) candidates.
                if (mlstat::stddev(columns[c]) < 1e-12)
                    return;

                std::vector<std::vector<double>> design;
                for (std::size_t s : chosen)
                    design.push_back(columns[s]);
                design.push_back(columns[c]);

                mlstat::OlsResult fit =
                    mlstat::fitOls(design, response, true);
                if (!fit.ok)
                    return;

                eval.viable = true;
                eval.adjR2 = fit.adjustedR2;
                eval.significant = true;
                for (std::size_t k = 1; k < fit.pValues.size(); ++k) {
                    if (fit.pValues[k] > config.pValueStop) {
                        eval.significant = false;
                        break;
                    }
                }
                eval.meanVif = mlstat::mean(
                    mlstat::varianceInflation(design));
            });

        std::size_t best_index = SIZE_MAX;
        double round_best = best_adj_r2;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const CandidateEval &eval = evals[c];
            if (!eval.viable)
                continue;
            if (eval.adjR2 <= round_best + config.minGain)
                continue;
            if (!eval.significant)
                continue;
            if (eval.meanVif > config.maxMeanVif)
                continue;
            round_best = eval.adjR2;
            best_index = c;
        }

        if (best_index == SIZE_MAX)
            break;
        used[best_index] = true;
        chosen.push_back(best_index);
        best_adj_r2 = round_best;
        result.adjR2Trajectory.push_back(round_best);
    }

    for (std::size_t s : chosen)
        result.events.push_back(candidates[s]);
    return result;
}

PowerModel
PowerModelBuilder::build(const std::vector<EventSpec> &events,
                         unsigned jobs) const
{
    fatal_if(events.empty(), "cannot build a model with no events");

    PowerModel model;
    model.clusterName = clusterName;
    model.events = events;

    // Group observations by frequency.
    std::vector<double> freqs;
    for (const PowerObservation &o : obs) {
        if (std::find(freqs.begin(), freqs.end(), o.freqMhz()) ==
            freqs.end()) {
            freqs.push_back(o.freqMhz());
        }
    }
    std::sort(freqs.begin(), freqs.end());

    // One independent OLS per frequency; slot f gathers frequency f's
    // model, so perFrequency keeps its ascending order at any jobs
    // count.
    model.perFrequency.resize(freqs.size());
    exec::parallelFor(jobs, freqs.size(), [&](std::size_t f) {
        const double freq = freqs[f];
        std::vector<const PowerObservation *> group;
        for (const PowerObservation &o : obs) {
            if (o.freqMhz() == freq)
                group.push_back(&o);
        }
        fatal_if(group.size() < events.size() + 2,
                 "too few observations (", group.size(), ") at ",
                 freq, " MHz for ", events.size(), " events");

        std::vector<std::vector<double>> design(events.size());
        std::vector<double> response;
        for (const PowerObservation *o : group) {
            for (std::size_t e = 0; e < events.size(); ++e) {
                design[e].push_back(
                    events[e].hwRate(o->measurement));
            }
            response.push_back(o->power());
        }

        FrequencyModel fm;
        fm.freqMhz = freq;
        fm.voltage = group.front()->measurement.voltage;
        fm.fit = mlstat::fitOls(design, response, true);
        fatal_if(!fm.fit.ok, "OLS failed at ", freq, " MHz for ",
                 clusterName);
        model.perFrequency[f] = std::move(fm);
    });
    return model;
}

PowerModelQuality
PowerModelBuilder::validate(
    const PowerModel &model,
    const std::vector<PowerObservation> &observations,
    unsigned jobs)
{
    PowerModelQuality q;
    q.observations = observations.size();

    std::vector<double> measured;
    std::vector<double> estimated;
    double rss = 0.0;
    for (const PowerObservation &o : observations) {
        double est = model.estimateHw(o.measurement);
        measured.push_back(o.power());
        estimated.push_back(est);
        double err = o.power() - est;
        rss += err * err;

        double ape = std::fabs(err) / o.power();
        if (ape > q.maxAbsError) {
            q.maxAbsError = ape;
            q.worstObservation = o.workload() + " @" +
                std::to_string(static_cast<int>(o.freqMhz())) +
                " MHz";
        }
    }

    q.mape = mlstat::meanAbsPercentError(measured, estimated);
    q.mpe = mlstat::meanPercentError(measured, estimated);

    double n = static_cast<double>(observations.size());
    double p = static_cast<double>(model.events.size()) + 1.0;
    if (n > p) {
        q.ser = std::sqrt(rss / (n - p));
        double mean_y = mlstat::mean(measured);
        double tss = 0.0;
        for (double y : measured)
            tss += (y - mean_y) * (y - mean_y);
        if (tss > 1e-24) {
            double r2 = 1.0 - rss / tss;
            q.adjustedR2 =
                1.0 - (rss / (n - p)) / (tss / (n - 1.0));
            (void)r2;
        }
    }

    // Mean VIF over the pooled design.
    std::vector<std::vector<double>> design(model.events.size());
    for (const PowerObservation &o : observations) {
        for (std::size_t e = 0; e < model.events.size(); ++e)
            design[e].push_back(model.events[e].hwRate(o.measurement));
    }
    q.meanVif = mlstat::mean(mlstat::varianceInflation(design, jobs));
    return q;
}

} // namespace gemstone::powmon
