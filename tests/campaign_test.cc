/**
 * @file
 * Tests of the resilient campaign engine: quorum collation, retry
 * accounting, graceful degradation, and checkpoint/resume.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "gemstone/campaign.hh"
#include "gemstone/pointgraph.hh"
#include "gemstone/runner.hh"
#include "hwsim/faults.hh"
#include "util/atomicfile.hh"
#include "util/logging.hh"

using namespace gemstone;
using namespace gemstone::core;

namespace {

constexpr double kFreq = 1000.0;

/** A fresh runner; optionally on a different simulated board. */
ExperimentRunner makeRunner(std::uint64_t seed = RunnerConfig{}.seed)
{
    RunnerConfig config;
    config.seed = seed;
    return ExperimentRunner(config);
}

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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Clean single-frequency A15 dataset, shared across tests. */
class CampaignFlow : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        cleanRunner = new ExperimentRunner(RunnerConfig{});
        cleanDataset = new ValidationDataset(
            cleanRunner->runValidation(hwsim::CpuCluster::BigA15,
                                       {kFreq}));
    }
    static void TearDownTestSuite()
    {
        delete cleanDataset;
        delete cleanRunner;
    }

    static ExperimentRunner *cleanRunner;
    static ValidationDataset *cleanDataset;
};

ExperimentRunner *CampaignFlow::cleanRunner = nullptr;
ValidationDataset *CampaignFlow::cleanDataset = nullptr;

} // namespace

// ---------------------------------------------------------------------
// Fault-free behaviour
// ---------------------------------------------------------------------

TEST_F(CampaignFlow, FaultFreeCampaignMatchesNaiveRunner)
{
    ExperimentRunner runner = makeRunner();
    CampaignEngine engine(runner, CampaignConfig{});
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    ASSERT_EQ(result.dataset.records.size(),
              cleanDataset->records.size());
    EXPECT_EQ(result.totalFailures, 0u);
    EXPECT_EQ(result.totalRejected, 0u);
    EXPECT_EQ(result.excludedPoints, 0u);
    EXPECT_TRUE(result.warnings.empty());
    EXPECT_TRUE(result.complete);
    for (const CampaignPoint &point : result.points)
        EXPECT_EQ(point.status, PointStatus::Clean);

    // The platform's noise is a pure function of the point, so the
    // quorum repeats are identical and the median collation must
    // reproduce the naive runner bit for bit.
    for (const ValidationRecord &r : result.dataset.records) {
        const ValidationRecord *clean =
            cleanDataset->find(r.work->name, kFreq);
        ASSERT_NE(clean, nullptr);
        EXPECT_DOUBLE_EQ(r.hw.execSeconds, clean->hw.execSeconds);
        EXPECT_DOUBLE_EQ(r.hw.powerWatts, clean->hw.powerWatts);
        EXPECT_DOUBLE_EQ(r.g5.simSeconds, clean->g5.simSeconds);
    }
    EXPECT_NEAR(result.dataset.execMpe(), cleanDataset->execMpe(),
                1e-12);
}

// ---------------------------------------------------------------------
// Faulted campaigns
// ---------------------------------------------------------------------

TEST_F(CampaignFlow, LabMixCampaignReproducesCleanMpe)
{
    ExperimentRunner runner = makeRunner();
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignEngine engine(runner, CampaignConfig{});
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    // The fault mix must actually have bitten...
    EXPECT_GT(result.totalFailures + result.totalRejected, 0u);
    // ...while the resilient policy keeps nearly every point and
    // reproduces the clean error metric within one percentage point.
    EXPECT_GE(result.dataset.records.size(),
              cleanDataset->records.size() - 3);
    EXPECT_NEAR(result.dataset.execMpe() * 100.0,
                cleanDataset->execMpe() * 100.0, 1.0);

    for (const CampaignPoint &point : result.points) {
        if (point.converged() &&
            (point.failures > 0 || point.rejected > 0)) {
            EXPECT_EQ(point.status, PointStatus::Recovered);
        }
    }
}

TEST_F(CampaignFlow, RetryAccountingIsDeterministic)
{
    hwsim::FaultConfig always_fail;
    always_fail.enabled = true;
    always_fail.runFailureProb = 1.0;

    CampaignConfig policy;
    policy.quorum = 1;
    policy.maxAttempts = 3;

    auto campaign = [&]() {
        ExperimentRunner runner = makeRunner();
        runner.platform().injectFaults(always_fail);
        CampaignEngine engine(runner, policy);
        return engine.runValidation(hwsim::CpuCluster::BigA15,
                                    {kFreq});
    };
    CampaignResult first = campaign();
    CampaignResult second = campaign();

    // Every point burns the full attempt budget, is excluded, and
    // leaves a structured warning.
    ASSERT_EQ(first.points.size(), 45u);
    EXPECT_TRUE(first.dataset.records.empty());
    EXPECT_EQ(first.excludedPoints, 45u);
    EXPECT_EQ(first.totalAttempts, 45u * policy.maxAttempts);
    EXPECT_EQ(first.totalFailures, 45u * policy.maxAttempts);
    EXPECT_EQ(first.warnings.size(), 45u);
    for (const CampaignPoint &point : first.points)
        EXPECT_EQ(point.status, PointStatus::Failed);

    // Backoff is ledgered, bounded and seed-derived: identical
    // campaigns book identical (positive, finite) waits.
    EXPECT_GT(first.backoffSeconds, 0.0);
    double cap_per_failure =
        policy.backoffCapSeconds * 1.25;  // cap plus max jitter
    EXPECT_LE(first.backoffSeconds,
              first.totalFailures * cap_per_failure);
    EXPECT_DOUBLE_EQ(first.backoffSeconds, second.backoffSeconds);
}

TEST_F(CampaignFlow, BudgetExhaustionDegradesGracefully)
{
    // Fail often enough that some points cannot fill a large quorum
    // within the attempt budget, without failing everywhere.
    hwsim::FaultConfig flaky;
    flaky.enabled = true;
    flaky.runFailureProb = 0.5;

    CampaignConfig policy;
    policy.quorum = 3;
    policy.maxAttempts = 4;

    ExperimentRunner runner = makeRunner();
    runner.platform().injectFaults(flaky);
    CampaignEngine engine(runner, policy);
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    unsigned degraded = 0, failed = 0, converged = 0;
    for (const CampaignPoint &point : result.points) {
        switch (point.status) {
          case PointStatus::Degraded:
            ++degraded;
            break;
          case PointStatus::Failed:
            ++failed;
            break;
          default:
            ++converged;
        }
    }
    EXPECT_GT(degraded, 0u);
    EXPECT_GT(converged, 0u);
    EXPECT_EQ(result.excludedPoints, degraded + failed);
    EXPECT_EQ(result.dataset.records.size(), converged);
    // Each excluded point leaves exactly one structured warning.
    EXPECT_EQ(result.warnings.size(), degraded + failed);
}

// ---------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------

TEST_F(CampaignFlow, KilledCampaignResumesWithoutRemeasuring)
{
    ScratchFile checkpoint("gs_campaign_resume_test.csv");

    CampaignConfig policy;
    policy.checkpointPath = checkpoint.path;

    // First campaign dies after 10 points (emulating a kill: the
    // checkpoint is appended per point).
    CampaignConfig partial = policy;
    partial.maxPoints = 10;
    ExperimentRunner first = makeRunner();
    first.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignResult before =
        CampaignEngine(first, partial)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
    ASSERT_FALSE(before.complete);
    ASSERT_EQ(before.points.size(), 10u);
    ASSERT_TRUE(std::filesystem::exists(checkpoint.path));

    // Second campaign runs on a *different simulated board* (other
    // seed): if it re-measured the finished points they could not
    // match the checkpoint.
    ExperimentRunner second = makeRunner(0xd1ffe4ULL);
    second.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignResult after =
        CampaignEngine(second, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    EXPECT_TRUE(after.complete);
    EXPECT_EQ(after.resumedPoints, 10u);
    EXPECT_EQ(after.measuredPoints, 45u - 10u);
    ASSERT_EQ(after.points.size(), 45u);

    for (std::size_t i = 0; i < before.points.size(); ++i) {
        const CampaignPoint &done = before.points[i];
        const CampaignPoint &restored = after.points[i];
        EXPECT_EQ(restored.workload, done.workload);
        if (done.converged()) {
            EXPECT_EQ(restored.status, PointStatus::Resumed);
        }
        // The scalars came from the CSV, not from a re-measurement
        // (formatDouble rounds to nanoseconds in the checkpoint).
        EXPECT_NEAR(restored.execSeconds, done.execSeconds, 1e-8);
        EXPECT_NEAR(restored.powerWatts, done.powerWatts, 1e-5);
        EXPECT_EQ(restored.attempts, done.attempts);
        EXPECT_EQ(restored.failures, done.failures);

        if (done.converged()) {
            const ValidationRecord *record =
                after.dataset.find(done.workload, kFreq);
            ASSERT_NE(record, nullptr);
            EXPECT_NEAR(record->hw.execSeconds, done.execSeconds,
                        1e-8);
        }
    }
}

TEST_F(CampaignFlow, CheckpointAppendsRowsInPlace)
{
    ScratchFile checkpoint("gs_campaign_append_test.csv");

    // An earlier session's checkpoint of the other cluster, plus one
    // row the loader rejects: the next session's first append must
    // keep the A7 rows and compact the bad row away.
    CampaignConfig a7;
    a7.checkpointPath = checkpoint.path;
    a7.maxPoints = 3;
    ExperimentRunner first = makeRunner();
    CampaignEngine(first, a7)
        .runValidation(hwsim::CpuCluster::LittleA7, {kFreq});
    const std::string retained = readFile(checkpoint.path);
    ASSERT_EQ(std::count(retained.begin(), retained.end(), '\n'), 4);
    {
        std::ofstream out(checkpoint.path, std::ios::app);
        out << "mi-crc32,a15,1000.000,meh,1,0,0,0,0.5,1,60,1.1,0,"
               "0.5,,ok\n";
    }

    // Snapshot the file as each point settles (the sink runs right
    // after the point's append).
    std::vector<std::string> snapshots, workloads;
    std::vector<ino_t> inodes;
    CampaignConfig a15;
    a15.checkpointPath = checkpoint.path;
    a15.maxPoints = 5;
    a15.pointSink = [&](const CampaignPoint &point, std::size_t,
                        std::size_t) {
        struct stat st;
        ASSERT_EQ(::stat(checkpoint.path.c_str(), &st), 0);
        inodes.push_back(st.st_ino);
        snapshots.push_back(readFile(checkpoint.path));
        workloads.push_back(point.workload);
    };
    ExperimentRunner second = makeRunner();
    CampaignEngine(second, a15)
        .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
    ASSERT_EQ(snapshots.size(), 5u);

    // After k appends: the same inode (no rewrite) holding the
    // header, the retained rows and k one-line rows.
    std::string expected = retained;
    for (std::size_t k = 0; k < snapshots.size(); ++k) {
        EXPECT_EQ(inodes[k], inodes[0])
            << "append " << k + 1 << " replaced the file";
        ASSERT_EQ(snapshots[k].compare(0, expected.size(), expected), 0)
            << "append " << k + 1 << " changed earlier bytes";
        const std::string row = snapshots[k].substr(expected.size());
        ASSERT_FALSE(row.empty());
        EXPECT_EQ(std::count(row.begin(), row.end(), '\n'), 1);
        EXPECT_EQ(row.back(), '\n');
        EXPECT_EQ(row.rfind(workloads[k] + ",a15,", 0), 0u) << row;
        expected = snapshots[k];
    }
    EXPECT_EQ(readFile(checkpoint.path), expected);
}

TEST_F(CampaignFlow, CheckpointSyncsOncePerBatchOfRows)
{
    // A row lost to a power cut costs one re-measurement, so the
    // writer syncs once per batch of 32 in-place rows and once at
    // close, not once per row. The count depends on the row count
    // alone, never on the thread count.
    ExperimentRunner runner = makeRunner();
    std::vector<std::uint64_t> syncs;
    for (unsigned jobs : {1u, 4u}) {
        ScratchFile checkpoint("gs_campaign_sync_count_test.csv");
        CampaignConfig policy;
        policy.checkpointPath = checkpoint.path;
        policy.jobs = jobs;
        const std::uint64_t before = appendSyncCount();
        CampaignResult result =
            CampaignEngine(runner, policy)
                .runValidation(hwsim::CpuCluster::BigA15, {kFreq});
        syncs.push_back(appendSyncCount() - before);

        const std::string written = readFile(checkpoint.path);
        const std::size_t rows =
            std::count(written.begin(), written.end(), '\n') - 1;
        ASSERT_EQ(rows, result.points.size()) << "jobs " << jobs;
        ASSERT_GT(rows, 32u);
        EXPECT_GE(syncs.back(), 1u) << "jobs " << jobs;
        EXPECT_LE(syncs.back(), (rows + 31) / 32 + 1) << "jobs " << jobs;
    }
    EXPECT_EQ(syncs[0], syncs[1]);
}

TEST_F(CampaignFlow, CorruptCheckpointIsReportedAndRerun)
{
    ScratchFile checkpoint("gs_campaign_corrupt_test.csv");
    {
        std::ofstream out(checkpoint.path);
        out << "workload,cluster,freq_mhz,status,attempts,failures,"
               "rejected,backoff_s,exec_seconds,power_watts,"
               "temperature_c,voltage,throttled,repeats,pmc,error\n";
        // Bad status tag and bad numeric: both rows must be rejected
        // with a warning, then re-measured.
        out << "mi-crc32,a15,1000.000,meh,1,0,0,0,0.5,1,60,1.1,0,"
               "0.5,,ok\n";
        out << "mi-dijkstra,a15,1000.000,clean,1,0,0,0,oops,1,60,"
               "1.1,0,oops,,ok\n";
    }

    CampaignConfig policy;
    policy.checkpointPath = checkpoint.path;
    ExperimentRunner runner = makeRunner();
    CampaignResult result =
        CampaignEngine(runner, policy)
            .runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    EXPECT_EQ(result.resumedPoints, 0u);
    EXPECT_EQ(result.measuredPoints, 45u);
    EXPECT_EQ(result.dataset.records.size(), 45u);
    EXPECT_GE(result.warnings.size(), 2u);
}

TEST_F(CampaignFlow, NaivePolicyAcceptsFirstMeasurement)
{
    CampaignConfig naive = CampaignConfig::naive();
    EXPECT_EQ(naive.quorum, 1u);

    ExperimentRunner runner = makeRunner();
    runner.platform().injectFaults(hwsim::FaultConfig::labMix());
    CampaignEngine engine(runner, naive);
    CampaignResult result =
        engine.runValidation(hwsim::CpuCluster::BigA15, {kFreq});

    // The naive flow retries crashes but rejects nothing, so faulty
    // measurements land in the dataset and drag the error metric
    // outside the resilient campaign's one-point tolerance.
    EXPECT_EQ(result.totalRejected, 0u);
    EXPECT_GT(std::abs(result.dataset.execMpe() -
                       cleanDataset->execMpe()) * 100.0,
              1.0);
}

// ---------------------------------------------------------------------
// Point graph
// ---------------------------------------------------------------------

namespace {

/** Node calls and contract violations of one point-graph run. */
struct EdgeProbe
{
    std::size_t nodes = 0;
    unsigned hw = 0, g5 = 0, collate = 0, resume = 0;
    unsigned violations = 0;
};

/**
 * Build @p plan's graph with hw nodes, plus g5 and collate nodes when
 * asked, and run it on 4 threads. A later hw or g5 body of a workload
 * is a violation unless its first measured point's same-kind body has
 * finished; a collate body, unless its point's hw and g5 have.
 */
EdgeProbe
probePointGraph(const PointPlan &plan, bool g5, bool collate)
{
    const std::size_t n = plan.points.size();
    // Each point's first measured same-workload entry.
    std::vector<std::size_t> first(n);
    for (std::size_t i = 0, base = n; i < n; ++i) {
        if (i > 0 && plan.points[i - 1].work != plan.points[i].work)
            base = n;
        if (base == n && !plan.points[i].resumed)
            base = i;
        first[i] = base;
    }

    std::vector<std::atomic<bool>> hw_done(n), g5_done(n);
    std::atomic<unsigned> hw_calls{0}, g5_calls{0}, collate_calls{0},
        resume_calls{0}, violations{0};
    auto measured = [&](std::vector<std::atomic<bool>> *done,
                        std::atomic<unsigned> *calls) {
        return [&, done, calls](std::size_t i) {
            ++*calls;
            if (plan.points[i].resumed) {
                ++violations;
            } else if (i == first[i]) {
                // Gives a later point time to overtake a missing edge.
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            } else if (!(*done)[first[i]]) {
                ++violations;
            }
            (*done)[i] = true;
        };
    };
    PointBodies bodies;
    bodies.hw = measured(&hw_done, &hw_calls);
    if (g5)
        bodies.g5 = measured(&g5_done, &g5_calls);
    if (collate) {
        bodies.collate = [&](std::size_t i) {
            ++collate_calls;
            if (!hw_done[i] || !g5_done[i])
                ++violations;
        };
    }
    bodies.resume = [&](std::size_t i) {
        ++resume_calls;
        if (!plan.points[i].resumed)
            ++violations;
    };

    exec::TaskGraph graph;
    addPointGraph(graph, plan, bodies);
    runPointGraph(graph, 4, CancellationToken());
    return {graph.nodeCount(), hw_calls, g5_calls, collate_calls,
            resume_calls, violations};
}

} // namespace

TEST(PointGraph, LaterPointsDependOnTheFirstMeasuredPoint)
{
    const std::vector<const workload::Workload *> set =
        workload::Suite::validationSet();
    const std::vector<double> freqs = {200.0, 600.0, 1000.0, 1400.0};
    PointPlan plan({set[0], set[1], set[2]}, freqs);
    ASSERT_EQ(plan.points.size(), 12u);
    ASSERT_FALSE(plan.truncated);

    // Runner validation: an hw and a g5 node per point.
    EdgeProbe validation = probePointGraph(plan, true, false);
    EXPECT_EQ(validation.nodes, 24u);
    EXPECT_EQ(validation.hw, 12u);
    EXPECT_EQ(validation.g5, 12u);
    EXPECT_EQ(validation.violations, 0u);

    // Power characterisation: one hw node per point.
    EdgeProbe power = probePointGraph(plan, false, false);
    EXPECT_EQ(power.nodes, 12u);
    EXPECT_EQ(power.hw, 12u);
    EXPECT_EQ(power.violations, 0u);

    // Campaign: the second workload's first entry and the third's
    // last are restored, so the second takes its edge from its second
    // entry. Three nodes per measured point, one per resumed point.
    plan.points[4].resumed = true;
    plan.points[11].resumed = true;
    EdgeProbe campaign = probePointGraph(plan, true, true);
    EXPECT_EQ(campaign.nodes, 3 * 10u + 2u);
    EXPECT_EQ(campaign.hw, 10u);
    EXPECT_EQ(campaign.g5, 10u);
    EXPECT_EQ(campaign.collate, 10u);
    EXPECT_EQ(campaign.resume, 2u);
    EXPECT_EQ(campaign.violations, 0u);

    // maxPoints cuts the plan in canonical order.
    PointPlan cut({set[0], set[1]}, freqs, 6);
    ASSERT_EQ(cut.points.size(), 6u);
    EXPECT_TRUE(cut.truncated);
    EXPECT_EQ(cut.points[5].work, set[1]);
    EXPECT_EQ(cut.points[5].freqMhz, 600.0);
    EXPECT_FALSE(PointPlan({set[0], set[1]}, freqs, 8).truncated);
}
