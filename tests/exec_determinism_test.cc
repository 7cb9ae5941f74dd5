/**
 * @file
 * Determinism of the parallel campaign engine: the collated output
 * must be byte-identical to the serial flow at any thread count —
 * under fault injection, across kill/resume, and with a warm result
 * store. The campaigns sweep two DVFS points, so every workload's
 * second point depends on the first (the base-run edge).
 */

#include <gtest/gtest.h>

#include <cstdlib>
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

/**
 * One faulted campaign prewarmed by a pool of forked worker
 * processes. @p crash_prob arms the worker_crash fault mode (seeded
 * SIGKILL of the executing worker); the pool knobs come through so
 * tests can run the chaos harness or starve the respawn budget.
 */
CampaignResult
pooledCampaign(unsigned workers, double crash_prob = 0.0,
               double chaos_interval = 0.0, int max_respawns = -1)
{
    ExperimentRunner runner{RunnerConfig{}};
    hwsim::FaultConfig faults = hwsim::FaultConfig::labMix();
    faults.workerCrashProb = crash_prob;
    runner.platform().injectFaults(faults);
    CampaignConfig policy;
    policy.jobs = 1;
    policy.workers = workers;
    policy.workerPool.chaosKillIntervalSeconds = chaos_interval;
    if (max_respawns >= 0)
        policy.workerPool.maxRespawns =
            static_cast<unsigned>(max_respawns);
    CampaignEngine engine(runner, policy);
    return engine.runValidation(hwsim::CpuCluster::BigA15, kFreqs);
}

/** Worker counts to exercise: the CI matrix pins one via env. */
std::vector<unsigned>
pooledWorkerCounts()
{
    if (const char *env = std::getenv("GEMSTONE_TEST_WORKERS")) {
        unsigned workers = static_cast<unsigned>(std::atoi(env));
        if (workers >= 1)
            return {workers};
    }
    return {2u, 4u};
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

#if defined(__unix__) || defined(__APPLE__)

TEST(ExecDeterminism, PooledPrewarmIsByteIdenticalToSerial)
{
    CampaignResult serial = faultedCampaign(1);
    ASSERT_GT(serial.totalFailures + serial.totalRejected, 0u);

    for (unsigned workers : pooledWorkerCounts()) {
        CampaignResult pooled = pooledCampaign(workers);
        expectIdentical(serial, pooled,
                        ("workers=" + std::to_string(workers))
                            .c_str());
        if (workers > 1) {
            // The pool must have actually carried the prewarm.
            EXPECT_GT(pooled.poolStats.tasksTotal, 0u);
            EXPECT_GT(pooled.poolStats.tasksCompleted +
                          pooled.poolStats.tasksFallback, 0u);
        }
    }
}

TEST(ExecDeterminism, ChaosKilledWorkersStayByteIdentical)
{
    // The coordinator SIGKILLs a busy worker every 20 ms. However
    // many die, a worker's only effect is the cache entries it ships
    // back, so the replayed output cannot move.
    CampaignResult serial = faultedCampaign(1);
    CampaignResult chaotic =
        pooledCampaign(4, /*crash_prob=*/0.0,
                       /*chaos_interval=*/0.02);
    expectIdentical(serial, chaotic, "chaos-killed pool");
    EXPECT_GT(chaotic.poolStats.tasksTotal, 0u);
}

TEST(ExecDeterminism, WorkerCrashFaultIsByteIdentical)
{
    // worker_crash plans its kills on a seeded stream independent of
    // the measurement draws, and a kill changes no measured value:
    // with half the prewarm tasks crashing their worker on first
    // dispatch, the collated output must still match the serial
    // campaign bit for bit. (Which worker life absorbs which crash
    // is timing-dependent, so only byte-identity and "somebody
    // died" are contractual.)
    CampaignResult serial = faultedCampaign(1);
    CampaignResult crashed = pooledCampaign(2, /*crash_prob=*/0.5);
    CampaignResult rerun = pooledCampaign(2, /*crash_prob=*/0.5);

    expectIdentical(serial, crashed, "crash-faulted pool");
    expectIdentical(serial, rerun, "crash-faulted pool rerun");
    EXPECT_GE(crashed.poolStats.workerDeaths, 1u);
    EXPECT_GE(rerun.poolStats.workerDeaths, 1u);
}

TEST(ExecDeterminism, LosingEveryWorkerStillCompletesTheCampaign)
{
    // Every first dispatch kills its worker and the respawn budget
    // is tiny: the pool exhausts, the survivors fall back in-process
    // and the replay recomputes the rest — the campaign must still
    // complete, byte-identical.
    CampaignResult serial = faultedCampaign(1);
    CampaignResult starved =
        pooledCampaign(2, /*crash_prob=*/1.0,
                       /*chaos_interval=*/0.0, /*max_respawns=*/1);
    expectIdentical(serial, starved, "exhausted pool");
    EXPECT_TRUE(starved.complete);
    EXPECT_GE(starved.poolStats.workerDeaths, 2u);
}

#endif // unix

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
