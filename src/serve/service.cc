/**
 * @file
 * Spec -> campaign execution (the shared front-end entry point).
 */

#include "serve/service.hh"

#include <exception>

namespace gemstone::serve {

core::RunnerConfig
runnerConfigFor(const CampaignSpec &spec)
{
    core::RunnerConfig config;
    config.g5Version = spec.g5Version;
    config.repeats = spec.repeats;
    config.seed = spec.seed;
    config.boardVariation = spec.boardVariation;
    config.jobs = spec.jobs;
    return config;
}

core::CampaignConfig
campaignConfigFor(const CampaignSpec &spec)
{
    core::CampaignConfig config;
    config.quorum = spec.quorum;
    config.maxAttempts = spec.maxAttempts;
    config.jobs = spec.jobs;
    config.maxPoints = spec.maxPoints;
    return config;
}

CampaignOutcome
runCampaign(const CampaignSpec &spec,
            const std::shared_ptr<exec::ResultStore> &store,
            core::CampaignConfig::PointSink sink,
            CancellationToken cancel, const RunOptions &options)
{
    CampaignOutcome outcome;
    try {
        core::ExperimentRunner runner(runnerConfigFor(spec));
        if (store)
            runner.attachResultStore(store);

        core::CampaignConfig config = campaignConfigFor(spec);
        config.cancel = cancel;
        config.pointSink = std::move(sink);
        config.checkpointPath = options.checkpointPath;

        core::CampaignEngine engine(runner, config);
        core::CampaignResult result = spec.freqsMhz.empty()
            ? engine.runValidation(spec.cluster)
            : engine.runValidation(spec.cluster, spec.freqsMhz);

        outcome.outcome = result.cancelled ? RequestOutcome::Cancelled
                                           : RequestOutcome::Ok;
        outcome.datasetCsv = result.dataset.toCsv();
        outcome.measuredPoints = result.measuredPoints;
        outcome.resumedPoints = result.resumedPoints;
        outcome.excludedPoints = result.excludedPoints;
        outcome.cancelledPoints = result.cancelledPoints;
        outcome.warnings = std::move(result.warnings);
    } catch (const CancelledError &e) {
        // A cancel that outran the point-boundary drain (e.g. it
        // landed between runValidation calls) still ends structured.
        outcome.outcome = RequestOutcome::Cancelled;
        outcome.error = e.what();
    } catch (const DeadlineError &e) {
        outcome.outcome = RequestOutcome::Deadline;
        outcome.error = e.what();
    } catch (const std::exception &e) {
        outcome.outcome = RequestOutcome::Error;
        outcome.error = e.what();
    }
    return outcome;
}

} // namespace gemstone::serve
