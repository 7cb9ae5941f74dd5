/**
 * @file
 * Tests of the GemStone core: datasets, runner, and the Section IV
 * analyses, on a reduced (single-frequency) validation run.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "gemstone/analysis.hh"
#include "gemstone/powereval.hh"
#include "gemstone/runner.hh"
#include "powmon/builder.hh"

using namespace gemstone;
using namespace gemstone::core;

namespace {

/** Shared expensive fixtures: one validation run at 1 GHz. */
class GemstoneFlow : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        RunnerConfig config;
        config.g5Version = 1;
        runner = new ExperimentRunner(config);
        dataset = new ValidationDataset(runner->runValidation(
            hwsim::CpuCluster::BigA15, {1000.0}));
        clustering = new WorkloadClustering(
            clusterWorkloads(*dataset, 1000.0, 16));
    }
    static void TearDownTestSuite()
    {
        delete clustering;
        delete dataset;
        delete runner;
    }

    static ExperimentRunner *runner;
    static ValidationDataset *dataset;
    static WorkloadClustering *clustering;
};

ExperimentRunner *GemstoneFlow::runner = nullptr;
ValidationDataset *GemstoneFlow::dataset = nullptr;
WorkloadClustering *GemstoneFlow::clustering = nullptr;

} // namespace

// ---------------------------------------------------------------------
// Runner and dataset
// ---------------------------------------------------------------------

TEST_F(GemstoneFlow, DatasetCoversValidationSet)
{
    EXPECT_EQ(dataset->records.size(), 45u);
    EXPECT_EQ(dataset->workloadNames().size(), 45u);
    EXPECT_EQ(dataset->atFrequency(1000.0).size(), 45u);
    EXPECT_TRUE(dataset->atFrequency(600.0).empty());
}

TEST_F(GemstoneFlow, FindLocatesRecords)
{
    const ValidationRecord *r = dataset->find("mi-crc32", 1000.0);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->work->name, "mi-crc32");
    EXPECT_EQ(dataset->find("mi-crc32", 600.0), nullptr);
    EXPECT_EQ(dataset->find("nothing", 1000.0), nullptr);
}

TEST_F(GemstoneFlow, MpeSignConvention)
{
    // A record whose simulated time exceeds the hardware time must
    // have a negative MPE.
    for (const ValidationRecord &r : dataset->records) {
        if (r.g5.simSeconds > r.hw.execSeconds)
            EXPECT_LT(r.execMpe(), 0.0);
        else
            EXPECT_GE(r.execMpe(), 0.0);
        EXPECT_GE(r.execApe(), 0.0);
        EXPECT_DOUBLE_EQ(r.execApe(), std::fabs(r.execMpe()));
    }
}

TEST_F(GemstoneFlow, AggregatesAreConsistent)
{
    EXPECT_GE(dataset->execMape(),
              std::fabs(dataset->execMpe()));
    EXPECT_DOUBLE_EQ(dataset->execMape(),
                     dataset->execMapeAt(1000.0));
    // Suite filters partition the mean.
    double parsec = dataset->execMapeSuite("parsec");
    EXPECT_GT(parsec, 0.0);
}

TEST(RunnerStatics, FrequencyTablesMatchPaper)
{
    const auto &little = ExperimentRunner::frequenciesFor(
        hwsim::CpuCluster::LittleA7);
    const auto &big = ExperimentRunner::frequenciesFor(
        hwsim::CpuCluster::BigA15);
    EXPECT_EQ(little, (std::vector<double>{200, 600, 1000, 1400}));
    EXPECT_EQ(big, (std::vector<double>{600, 1000, 1400, 1800}));
}

TEST(RunnerStatics, ModelMapping)
{
    EXPECT_EQ(ExperimentRunner::modelFor(hwsim::CpuCluster::BigA15),
              g5::G5Model::Ex5Big);
    EXPECT_EQ(
        ExperimentRunner::modelFor(hwsim::CpuCluster::LittleA7),
        g5::G5Model::Ex5Little);
}

// ---------------------------------------------------------------------
// Workload clustering (Fig. 3 machinery)
// ---------------------------------------------------------------------

TEST_F(GemstoneFlow, ClusteringCoversAllWorkloads)
{
    EXPECT_EQ(clustering->workloads.size(), 45u);
    std::size_t total = 0;
    for (const auto &[label, size] : clustering->clusterSizes)
        total += size;
    EXPECT_EQ(total, 45u);
}

TEST_F(GemstoneFlow, ClusterLabelsAreOneToK)
{
    std::set<std::size_t> labels;
    for (const ClusteredWorkload &w : clustering->workloads)
        labels.insert(w.cluster);
    EXPECT_EQ(labels.size(), 16u);
    EXPECT_EQ(*labels.begin(), 1u);
    EXPECT_EQ(*labels.rbegin(), 16u);
}

TEST_F(GemstoneFlow, DendrogramOrderGroupsClusters)
{
    // In leaf order, each cluster appears as one contiguous block.
    std::set<std::size_t> closed;
    std::size_t current = 0;
    for (const ClusteredWorkload &w : clustering->workloads) {
        if (w.cluster != current) {
            EXPECT_EQ(closed.count(w.cluster), 0u)
                << "cluster " << w.cluster << " reopened";
            closed.insert(current);
            current = w.cluster;
        }
    }
}

TEST_F(GemstoneFlow, ClusterOfFindsWorkloads)
{
    std::size_t c = clustering->clusterOf("mi-crc32");
    EXPECT_GE(c, 1u);
    EXPECT_LE(c, 16u);
    EXPECT_EQ(clustering->clusterOf("unknown"), 0u);
}

TEST_F(GemstoneFlow, ClusterMeansMatchMembers)
{
    for (const auto &[label, mean_mpe] : clustering->clusterMeanMpe) {
        double sum = 0.0;
        std::size_t n = 0;
        for (const ClusteredWorkload &w : clustering->workloads) {
            if (w.cluster == label) {
                sum += w.mpe;
                ++n;
            }
        }
        ASSERT_GT(n, 0u);
        EXPECT_NEAR(mean_mpe, sum / n, 1e-12);
    }
}

// ---------------------------------------------------------------------
// Correlation analyses (Fig. 5 / Section IV-C machinery)
// ---------------------------------------------------------------------

TEST_F(GemstoneFlow, PmcCorrelationsBounded)
{
    CorrelationAnalysis analysis =
        correlatePmcEvents(*dataset, 1000.0, 24);
    EXPECT_GT(analysis.events.size(), 20u);
    for (const EventCorrelation &e : analysis.events) {
        EXPECT_GE(e.correlation, -1.0);
        EXPECT_LE(e.correlation, 1.0);
        EXPECT_GE(e.cluster, 1u);
    }
    // Sorted ascending.
    for (std::size_t i = 1; i < analysis.events.size(); ++i)
        EXPECT_LE(analysis.events[i - 1].correlation,
                  analysis.events[i].correlation);
}

TEST_F(GemstoneFlow, BranchEventsMostNegative)
{
    // The paper's key Fig. 5 signal: branch-rate events correlate
    // most negatively with the error on the v1 model.
    CorrelationAnalysis analysis =
        correlatePmcEvents(*dataset, 1000.0, 24);
    auto corr_of = [&](const std::string &key) {
        for (const EventCorrelation &e : analysis.events)
            if (e.name == key)
                return e.correlation;
        return 0.0;
    };
    EXPECT_LT(corr_of("0x12"), -0.2);
    EXPECT_LT(corr_of("0x76"), -0.2);
    // Exclusive/barrier events sit on the positive side.
    EXPECT_GT(corr_of("0x6C"), 0.0);
    EXPECT_GT(corr_of("0x7E"), 0.0);
}

TEST_F(GemstoneFlow, G5EventCorrelationFindsManyStatistics)
{
    CorrelationAnalysis analysis =
        correlateG5Events(*dataset, 1000.0, 0.3, 10);
    // The paper found 94 statistics above the threshold.
    EXPECT_GE(analysis.events.size(), 25u);
    for (const EventCorrelation &e : analysis.events)
        EXPECT_GE(std::fabs(e.correlation), 0.3);
    // Branch-related statistics must be among the most negative.
    bool found_branch = false;
    for (std::size_t i = 0;
         i < std::min<std::size_t>(12, analysis.events.size()); ++i) {
        const std::string &name = analysis.events[i].name;
        if (name.find("ranch") != std::string::npos ||
            name.find("squash") != std::string::npos ||
            name.find("Incorrect") != std::string::npos) {
            found_branch = true;
        }
    }
    EXPECT_TRUE(found_branch);
}

// ---------------------------------------------------------------------
// Regression analysis (Section IV-D machinery)
// ---------------------------------------------------------------------

TEST_F(GemstoneFlow, PmcRegressionExplainsError)
{
    ErrorRegression regression =
        regressErrorOnPmcs(*dataset, 1000.0, 7);
    EXPECT_GE(regression.selectedNames.size(), 2u);
    EXPECT_LE(regression.selectedNames.size(), 7u);
    EXPECT_GT(regression.r2, 0.5);  // paper: 0.97
    EXPECT_LE(regression.r2, 1.0);
    EXPECT_LE(regression.adjustedR2, regression.r2 + 1e-12);
}

TEST_F(GemstoneFlow, G5RegressionExplainsErrorBetter)
{
    ErrorRegression on_pmcs =
        regressErrorOnPmcs(*dataset, 1000.0, 7);
    ErrorRegression on_g5 =
        regressErrorOnG5Stats(*dataset, 1000.0, 8);
    // The simulator's own statistics see its error mechanisms
    // directly, so the fit is at least as good (paper: 0.99 vs 0.97).
    EXPECT_GE(on_g5.r2, on_pmcs.r2 - 0.05);
}

// ---------------------------------------------------------------------
// Event comparison (Fig. 6 machinery)
// ---------------------------------------------------------------------

TEST_F(GemstoneFlow, EventComparisonDirections)
{
    std::size_t pathological =
        clustering->clusterOf("par-basicmath-rad2deg");
    auto rows =
        compareEvents(*dataset, 1000.0, *clustering, pathological);
    ASSERT_FALSE(rows.empty());

    auto row_of = [&](const std::string &key)
        -> const EventComparisonRow * {
        for (const EventComparisonRow &row : rows)
            if (row.key == key)
                return &row;
        return nullptr;
    };

    // The paper's Fig. 6 directions.
    EXPECT_NEAR(row_of("0x08")->meanRatio, 1.0, 0.05);   // ~1.0x
    EXPECT_LT(row_of("0x02")->meanRatio, 0.6);           // 0.06x
    EXPECT_GT(row_of("0x10")->meanRatio, 5.0);           // 21x
    EXPECT_GT(row_of("0x14")->meanRatio, 1.5);           // >2x
    EXPECT_GT(row_of("0x43")->meanRatio, 2.0);           // 9.9x
    EXPECT_GT(row_of("0x15")->meanRatio, 2.0);           // 19x
}

TEST_F(GemstoneFlow, BpAccuracySummaryMatchesShape)
{
    BpAccuracySummary bp = summariseBpAccuracy(*dataset, 1000.0);
    EXPECT_GT(bp.hwMean, 0.93);           // paper: 96%
    EXPECT_LT(bp.g5Mean, bp.hwMean - 0.03);
    EXPECT_LT(bp.g5Worst, 0.75);
    EXPECT_FALSE(bp.g5WorstWorkload.empty());
    EXPECT_LT(bp.g5WorstMpe, -0.5);       // a storm victim
}

// ---------------------------------------------------------------------
// Power/energy evaluation (Fig. 7 machinery)
// ---------------------------------------------------------------------

TEST_F(GemstoneFlow, EnergyErrorExceedsPowerError)
{
    // Build a quick model on the big cluster and evaluate: the
    // paper's core Section VI message is that a small power error
    // coexists with a large energy error on the v1 model.
    auto observations = runner->runPowerCharacterisation(
        hwsim::CpuCluster::BigA15);
    powmon::PowerModelBuilder builder(observations, "a15");
    powmon::PowerModel model = builder.build(
        builder.selectEvents(powmon::g5CompatibleSelection(6, 1))
            .events);

    PowerEnergyEvaluation eval =
        evaluatePowerEnergy(*dataset, 1000.0, model, *clustering);

    EXPECT_LT(eval.powerMape, 0.25);
    EXPECT_GT(eval.energyMape, eval.powerMape * 2.0);
    EXPECT_LT(eval.energyMpe, 0.0);  // time overestimated overall
    EXPECT_EQ(eval.perWorkload.size(), 45u);
    EXPECT_EQ(eval.componentLabels.size(), model.events.size() + 1);

    // Per-record energies follow P x t on both sides.
    const PowerEnergyRecord &rec = eval.perWorkload.front();
    EXPECT_NEAR(rec.hwEnergy / rec.hwPower,
                dataset->find(rec.workload, 1000.0)->hw.execSeconds,
                1e-9);
}
