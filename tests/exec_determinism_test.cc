/**
 * @file
 * Determinism of the parallel campaign engine: the collated output
 * must be byte-identical to the serial flow at any thread count —
 * under fault injection, across kill/resume, and with a warm result
 * store. The campaigns sweep two DVFS points, so every workload's
 * second point depends on the first (the base-run edge).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exec/resultstore.hh"
#include "gemstone/campaign.hh"
#include "gemstone/runner.hh"
#include "hwsim/faults.hh"

using namespace gemstone;
using namespace gemstone::core;

namespace {

/** Two A15 DVFS points: the second depends on the first. */
const std::vector<double> kFreqs = {1000.0, 1400.0};

/** Unique scratch path, removed on destruction. */
struct ScratchFile
{
    std::string path;
    explicit ScratchFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                name).string())
    {
        std::filesystem::remove(path);
    }
    ~ScratchFile() { std::filesystem::remove(path); }
};

/** One faulted campaign at the given thread count, fresh runner. */
CampaignResult
faultedCampaign(unsigned jobs,
                std::shared_ptr<exec::ResultStore> store = nullptr,
                const std::string &checkpoint_path = {},
                std::size_t max_points = 0)
{
    ExperimentRunner runner{RunnerConfig{}};
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    if (store)
        runner.attachResultStore(store);
    CampaignConfig policy;
    policy.jobs = jobs;
    policy.checkpointPath = checkpoint_path;
    policy.maxPoints = max_points;
    CampaignEngine engine(runner, policy);
    return engine.runValidation(hwsim::CpuCluster::BigA15, kFreqs);
}

/** Full equality of the campaign-visible output. */
void
expectIdentical(const CampaignResult &expected,
                const CampaignResult &actual, const char *context)
{
    SCOPED_TRACE(context);
    // Byte-identical collated dataset.
    EXPECT_EQ(expected.dataset.toCsv(), actual.dataset.toCsv());
    // Identical accounting.
    EXPECT_EQ(expected.measuredPoints, actual.measuredPoints);
    EXPECT_EQ(expected.resumedPoints, actual.resumedPoints);
    EXPECT_EQ(expected.excludedPoints, actual.excludedPoints);
    EXPECT_EQ(expected.totalAttempts, actual.totalAttempts);
    EXPECT_EQ(expected.totalFailures, actual.totalFailures);
    EXPECT_EQ(expected.totalRejected, actual.totalRejected);
    EXPECT_DOUBLE_EQ(expected.backoffSeconds, actual.backoffSeconds);
    EXPECT_EQ(expected.warnings, actual.warnings);
    EXPECT_EQ(expected.complete, actual.complete);
    // Identical per-point trajectories, in campaign order.
    ASSERT_EQ(expected.points.size(), actual.points.size());
    for (std::size_t i = 0; i < expected.points.size(); ++i) {
        const CampaignPoint &a = expected.points[i];
        const CampaignPoint &b = actual.points[i];
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.status, b.status);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.failures, b.failures);
        EXPECT_EQ(a.rejected, b.rejected);
        EXPECT_EQ(a.execSeconds, b.execSeconds);
        EXPECT_EQ(a.powerWatts, b.powerWatts);
    }
}

/** Every measured value of a power characterisation, exactly. */
std::vector<std::string>
renderObservations(const std::vector<powmon::PowerObservation> &obs)
{
    std::vector<std::string> rows;
    for (const powmon::PowerObservation &o : obs) {
        const hwsim::HwMeasurement &m = o.measurement;
        std::ostringstream out;
        out << std::hexfloat << m.workload << ',' << m.freqMhz << ','
            << m.execSeconds << ',' << m.powerWatts << ','
            << m.temperatureC << ',' << m.throttled;
        for (double seconds : m.repeatSeconds)
            out << ",r" << seconds;
        for (const auto &[id, count] : m.pmc)
            out << ",p" << id << '=' << count;
        rows.push_back(out.str());
    }
    return rows;
}

} // namespace

TEST(ExecDeterminism, FaultedCampaignIsByteIdenticalAcrossThreads)
{
    CampaignResult serial = faultedCampaign(1);
    // The fault mix must actually bite for this to prove anything.
    ASSERT_GT(serial.totalFailures + serial.totalRejected, 0u);

    for (unsigned jobs : {2u, 4u, 8u}) {
        CampaignResult parallel = faultedCampaign(jobs);
        expectIdentical(serial, parallel,
                        ("jobs=" + std::to_string(jobs)).c_str());
    }
}

TEST(ExecDeterminism, KillAndResumeMatchesAtAnyThreadCount)
{
    // Reference: serial campaign killed after 11 points, then
    // resumed serially to completion. The kill splits the sixth
    // workload, so its resumed first point leaves the base run to
    // its second point.
    ScratchFile serial_ckpt("gs_exec_det_serial.csv");
    CampaignResult serial_partial =
        faultedCampaign(1, nullptr, serial_ckpt.path, 11);
    ASSERT_FALSE(serial_partial.complete);
    CampaignResult serial_full =
        faultedCampaign(1, nullptr, serial_ckpt.path);
    ASSERT_EQ(serial_full.resumedPoints, 11u);

    // The same kill/resume flow at 4 threads must reproduce it
    // byte for byte, even though the parallel checkpoint's rows
    // landed in completion order.
    ScratchFile parallel_ckpt("gs_exec_det_parallel.csv");
    CampaignResult parallel_partial =
        faultedCampaign(4, nullptr, parallel_ckpt.path, 11);
    expectIdentical(serial_partial, parallel_partial,
                    "partial campaign");
    CampaignResult parallel_full =
        faultedCampaign(4, nullptr, parallel_ckpt.path);
    expectIdentical(serial_full, parallel_full, "resumed campaign");
}

TEST(ExecDeterminism, WarmResultStoreReplaysByteIdentically)
{
    auto store = std::make_shared<exec::ResultStore>();
    CampaignResult cold = faultedCampaign(1, store);
    exec::ResultStore::Stats after_cold = store->stats();
    EXPECT_GT(after_cold.insertions, 0u);

    // Warm serial rerun: every successful measurement replays from
    // the store (failures replay from the fault planner), so the
    // only misses are the never-cached failed attempts.
    CampaignResult warm = faultedCampaign(1, store);
    expectIdentical(cold, warm, "warm serial");
    exec::ResultStore::Stats after_warm = store->stats();
    EXPECT_GT(after_warm.hits, after_cold.hits);
    EXPECT_EQ(after_warm.insertions, after_cold.insertions);

    // Warm parallel rerun against the same store.
    CampaignResult warm_parallel = faultedCampaign(4, store);
    expectIdentical(cold, warm_parallel, "warm parallel");
}

TEST(ExecDeterminism, ReusedFaultedRunnerIsJobsIndependent)
{
    // One faulted runner measures the A15 1 GHz points twice: in a
    // validation campaign, then in the power characterisation. Each
    // measurement is attempt 0 of its point at any thread count, so
    // the second campaign's observations cannot depend on jobs.
    // (Run failures stay off: they would abort the runner's loops.)
    auto characterise = [](unsigned jobs) {
        RunnerConfig config;
        config.jobs = jobs;
        ExperimentRunner runner{config};
        hwsim::FaultConfig faults = hwsim::FaultConfig::labMix();
        faults.runFailureProb = 0.0;
        runner.platform().injectFaults(faults);
        runner.runValidation(hwsim::CpuCluster::BigA15, {1000.0});
        return renderObservations(runner.runPowerCharacterisation(
            hwsim::CpuCluster::BigA15));
    };
    const std::vector<std::string> serial = characterise(1);
    const std::vector<std::string> parallel = characterise(4);
    ASSERT_FALSE(serial.empty());
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        ASSERT_EQ(serial[i], parallel[i]) << "observation " << i;
}

TEST(ExecDeterminism, StorePersistenceSurvivesProcessBoundary)
{
    ScratchFile file("gs_exec_det_store.csv");
    auto store = std::make_shared<exec::ResultStore>();
    CampaignResult cold = faultedCampaign(1, store);
    ASSERT_TRUE(store->saveCsv(file.path).ok());

    // A "new process": a fresh store loaded from disk must replay
    // the campaign byte-identically with zero new insertions.
    auto reloaded = std::make_shared<exec::ResultStore>();
    ASSERT_GT(reloaded->loadCsv(file.path), 0u);
    CampaignResult replay = faultedCampaign(2, reloaded);
    expectIdentical(cold, replay, "reloaded store");
    EXPECT_EQ(reloaded->stats().insertions, 0u);
}
