/**
 * @file
 * R1 — fault resilience of the measurement campaign.
 *
 * Runs the full validation campaign on both clusters three ways:
 * a clean platform (no faults), the resilient CampaignEngine under
 * the documented lab fault mix (hwsim::FaultConfig::labMix — hung and
 * crashed runs, thermal-throttle episodes, stuck/dropped power
 * sensors, PMC multiplex loss and counter overflow), and the naive
 * flow under the same faults (accept the first measurement, rerun
 * crashes blindly, reject nothing).
 *
 * The table shows the resilient campaign reproducing the clean
 * per-cluster exec-time MPE within one percentage point while the
 * naive flow does not, plus the recovery accounting (retries, outlier
 * rejections, ledgered backoff, excluded points).
 *
 * A final section interrupts a checkpointed campaign with its
 * cancellation token once a third of its points have settled (the
 * same path a SIGTERM takes, see util/signals.hh), resumes it from
 * the checkpoint, and shows the resumed collated dataset is
 * byte-identical to an uninterrupted campaign's — at one job and at
 * four alike. How many points the interrupt abandoned depends on
 * thread timing at four jobs, so that count goes to stderr and stdout
 * stays deterministic.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "exec/threadpool.hh"
#include "gemstone/campaign.hh"
#include "gemstone/runner.hh"
#include "hwsim/faults.hh"
#include "util/cancellation.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;
using core::CampaignConfig;
using core::CampaignEngine;
using core::CampaignResult;
using core::ExperimentRunner;
using core::RunnerConfig;
using core::ValidationDataset;

namespace {

constexpr double kTolerancePoints = 1.0;

std::string
clusterName(hwsim::CpuCluster cluster)
{
    return cluster == hwsim::CpuCluster::LittleA7 ? "Cortex-A7"
                                                  : "Cortex-A15";
}

CampaignResult
faultedCampaign(hwsim::CpuCluster cluster,
                const CampaignConfig &policy)
{
    ExperimentRunner runner{RunnerConfig{}};
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignEngine engine(runner, policy);
    return engine.runValidation(cluster);
}

/**
 * Interrupt a checkpointed campaign mid-flight via its cancellation
 * token, cancelled from the point sink (playing the SIGTERM handler)
 * once a third of the points have settled, so the resume always
 * starts from a partial checkpoint. Then resume it to completion from
 * the checkpoint. Returns the resumed result; @p was_interrupted
 * reports whether the token stopped the first run and
 * @p cancelled_points how much work it abandoned.
 */
CampaignResult
interruptedThenResumed(hwsim::CpuCluster cluster, unsigned jobs,
                       const std::string &checkpoint,
                       bool &was_interrupted,
                       unsigned &cancelled_points)
{
    std::remove(checkpoint.c_str());

    CampaignConfig policy;
    policy.jobs = jobs;
    policy.checkpointPath = checkpoint;

    {
        CampaignConfig interrupted = policy;
        CancellationToken token;
        interrupted.cancel = token;
        std::atomic<std::size_t> settled{0};
        interrupted.pointSink = [&](const core::CampaignPoint &,
                                    std::size_t, std::size_t total) {
            if (settled.fetch_add(1) + 1 == total / 3)
                token.requestCancel();
        };
        CampaignResult partial = faultedCampaign(cluster, interrupted);
        was_interrupted = partial.cancelled;
        cancelled_points = partial.cancelledPoints;
    }

    CampaignResult resumed = faultedCampaign(cluster, policy);
    std::remove(checkpoint.c_str());
    return resumed;
}

} // namespace

int
main()
{
    std::cout << "R1: campaign resilience under the lab fault mix "
                 "(45 validation workloads, all DVFS points)\n";

    ExperimentRunner clean{RunnerConfig{}};

    printBanner(std::cout, "Exec-time MPE: clean vs faulted flows");
    TextTable t({"cluster", "flow", "records", "MPE", "drift (pp)",
                 "within 1pp"});

    for (hwsim::CpuCluster cluster :
         {hwsim::CpuCluster::LittleA7, hwsim::CpuCluster::BigA15}) {
        ValidationDataset reference = clean.runValidation(cluster);
        double clean_mpe = reference.execMpe() * 100.0;
        t.addRow({clusterName(cluster), "clean runner",
                  std::to_string(reference.records.size()),
                  formatPercent(reference.execMpe()), "-", "-"});

        // Output is byte-identical at any thread count; use every
        // core the machine has.
        CampaignConfig resilient_policy;
        resilient_policy.jobs = exec::ThreadPool::defaultThreadCount();
        CampaignConfig naive_policy = CampaignConfig::naive();
        naive_policy.jobs = resilient_policy.jobs;
        CampaignResult resilient =
            faultedCampaign(cluster, resilient_policy);
        CampaignResult naive = faultedCampaign(cluster, naive_policy);
        auto add_flow = [&](const std::string &label,
                            const CampaignResult &result) {
            double drift =
                result.dataset.execMpe() * 100.0 - clean_mpe;
            t.addRow({clusterName(cluster), label,
                      std::to_string(result.dataset.records.size()),
                      formatPercent(result.dataset.execMpe()),
                      formatDouble(drift, 2),
                      std::abs(drift) <= kTolerancePoints ? "yes"
                                                          : "NO"});
        };
        add_flow("resilient campaign", resilient);
        add_flow("naive flow", naive);

        printBanner(std::cout, clusterName(cluster) +
                                   " recovery accounting "
                                   "(resilient campaign)");
        TextTable a({"metric", "value"});
        a.addRow({"points measured",
                  std::to_string(resilient.measuredPoints)});
        a.addRow({"attempts spent",
                  std::to_string(resilient.totalAttempts)});
        a.addRow({"run failures absorbed",
                  std::to_string(resilient.totalFailures)});
        a.addRow({"outlier repeats rejected",
                  std::to_string(resilient.totalRejected)});
        a.addRow({"backoff ledgered (s)",
                  formatDouble(resilient.backoffSeconds, 2)});
        a.addRow({"points excluded",
                  std::to_string(resilient.excludedPoints)});
        a.print(std::cout);
    }

    printBanner(std::cout,
                "Interrupt + resume: collated dataset vs an "
                "uninterrupted campaign");
    {
        const hwsim::CpuCluster cluster = hwsim::CpuCluster::LittleA7;
        CampaignConfig reference_policy;
        reference_policy.jobs = 1;
        const std::string reference_csv =
            faultedCampaign(cluster, reference_policy).dataset.toCsv();

        TextTable r({"jobs", "interrupted", "byte-identical"});
        bool all_identical = true;
        // A fixed job set, so the table reads the same on every
        // host; four threads exercise the multi-threaded resume path
        // even on a single-core box.
        for (unsigned jobs : {1u, 4u}) {
            bool interrupted = false;
            unsigned cancelled = 0;
            CampaignResult resumed = interruptedThenResumed(
                cluster, jobs, "tab_fault_resilience_checkpoint.csv",
                interrupted, cancelled);
            std::cerr << "interrupt at jobs=" << jobs << ": "
                      << cancelled << " points cancelled\n";
            bool identical = resumed.dataset.toCsv() == reference_csv;
            all_identical = all_identical && identical;
            r.addRow({std::to_string(jobs), interrupted ? "yes" : "NO",
                      identical ? "yes" : "NO"});
        }
        r.print(std::cout);
        if (!all_identical)
            std::cout << "  ! resumed dataset diverged from the "
                         "uninterrupted campaign\n";
    }

    printBanner(std::cout, "Verdict");
    t.print(std::cout);
    return 0;
}
