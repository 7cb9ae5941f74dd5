/**
 * @file
 * Tests of the power-modelling flow: event specs, selection, model
 * building, validation and application to both platforms.
 */

#include <gtest/gtest.h>

#include <set>

#include "gemstone/runner.hh"
#include "powmon/builder.hh"
#include "powmon/eventspec.hh"
#include "powmon/model.hh"

using namespace gemstone;
using namespace gemstone::powmon;

// ---------------------------------------------------------------------
// Event specifications
// ---------------------------------------------------------------------

TEST(EventSpecTest, SinglePmcExtraction)
{
    EventSpec cycles = EventSpecTable::forPmc(0x11);
    EXPECT_EQ(cycles.key, "0x11");
    hwsim::HwMeasurement m;
    m.pmc[0x11] = 5000.0;
    m.execSeconds = 2.0;
    EXPECT_DOUBLE_EQ(cycles.hwCount(m), 5000.0);
    EXPECT_DOUBLE_EQ(cycles.hwRate(m), 2500.0);
}

TEST(EventSpecTest, CompositeDifference)
{
    EventSpec diff = EventSpecTable::difference(0x1B, 0x73);
    EXPECT_EQ(diff.key, "0x1B-0x73");
    hwsim::HwMeasurement m;
    m.pmc[0x1B] = 1000.0;
    m.pmc[0x73] = 400.0;
    m.execSeconds = 1.0;
    EXPECT_DOUBLE_EQ(diff.hwCount(m), 600.0);
}

TEST(EventSpecTest, G5EquivalentExtraction)
{
    EventSpec cycles = EventSpecTable::forPmc(0x11);
    g5::G5Stats s;
    s.simSeconds = 0.5;
    const g5::StatSchema &schema = g5::StatSchema::instance();
    s.stats.assign(schema.size(), 0.0);
    s.stats[schema.indexOf("system.cpu.numCycles")] = 4000.0;
    EXPECT_DOUBLE_EQ(cycles.g5Count(s), 4000.0);
    EXPECT_DOUBLE_EQ(cycles.g5Rate(s), 8000.0);
}

TEST(EventSpecTest, BrokenEquivalentsAreFlagged)
{
    // 0x15 and 0x75 are on the paper's restriction list.
    const auto &bad = EventSpecTable::knownBadForG5();
    EXPECT_NE(std::find(bad.begin(), bad.end(), 0x15), bad.end());
    EXPECT_NE(std::find(bad.begin(), bad.end(), 0x75), bad.end());
}

TEST(EventSpecTest, G5CompatibleSelectionIsSectionV)
{
    SelectionConfig config = g5CompatibleSelection(7, 3);
    EXPECT_EQ(config.maxEvents, 7u);
    EXPECT_EQ(config.jobs, 3u);
    EXPECT_TRUE(config.requireG5Equivalent);
    const auto &bad = EventSpecTable::knownBadForG5();
    EXPECT_EQ(config.excluded, std::set<int>(bad.begin(), bad.end()));
    ASSERT_EQ(config.composites.size(), 1u);
    EXPECT_EQ(config.composites[0].key, "0x1B-0x73");
}

TEST(EventSpecTest, KeyEventsHaveG5Equivalents)
{
    for (int id : {0x08, 0x11, 0x16, 0x1B, 0x73, 0x04, 0x6C})
        EXPECT_TRUE(EventSpecTable::hasG5Equivalent(id))
            << hwsim::pmcIdString(id);
}

TEST(EventSpecTest, UnknownPmcFatals)
{
    EXPECT_EXIT(EventSpecTable::forPmc(0xEE),
                ::testing::ExitedWithCode(1), "unknown PMC");
}

// ---------------------------------------------------------------------
// Model building on real platform data (shared fixture: the
// characterisation run is expensive, do it once).
// ---------------------------------------------------------------------

class PowerModelFlow : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        core::RunnerConfig config;
        runner = new core::ExperimentRunner(config);
        observations = new std::vector<PowerObservation>(
            runner->runPowerCharacterisation(
                hwsim::CpuCluster::BigA15));
        builder = new PowerModelBuilder(*observations, "a15-test");

        selection = new SelectionResult(
            builder->selectEvents(g5CompatibleSelection(6, 1)));
        model = new PowerModel(builder->build(selection->events));
    }
    static void TearDownTestSuite()
    {
        delete model;
        delete selection;
        delete builder;
        delete observations;
        delete runner;
    }

    static core::ExperimentRunner *runner;
    static std::vector<PowerObservation> *observations;
    static PowerModelBuilder *builder;
    static SelectionResult *selection;
    static PowerModel *model;
};

core::ExperimentRunner *PowerModelFlow::runner = nullptr;
std::vector<PowerObservation> *PowerModelFlow::observations = nullptr;
PowerModelBuilder *PowerModelFlow::builder = nullptr;
SelectionResult *PowerModelFlow::selection = nullptr;
PowerModel *PowerModelFlow::model = nullptr;

TEST_F(PowerModelFlow, CharacterisationCoversSuiteAndOpps)
{
    // 65 workloads x 4 DVFS points.
    EXPECT_EQ(observations->size(), 65u * 4u);
}

TEST_F(PowerModelFlow, SelectionRespectsConstraints)
{
    EXPECT_GE(selection->events.size(), 3u);
    EXPECT_LE(selection->events.size(), 6u);
    for (const EventSpec &spec : selection->events) {
        for (int id : spec.addIds) {
            for (int bad : EventSpecTable::knownBadForG5())
                EXPECT_NE(id, bad) << spec.key;
        }
    }
    // Adjusted R2 grows monotonically along the selection.
    for (std::size_t i = 1; i < selection->adjR2Trajectory.size();
         ++i) {
        EXPECT_GE(selection->adjR2Trajectory[i],
                  selection->adjR2Trajectory[i - 1]);
    }
}

TEST_F(PowerModelFlow, PerFrequencyModelsCoverOpps)
{
    ASSERT_EQ(model->perFrequency.size(), 4u);
    EXPECT_DOUBLE_EQ(model->perFrequency.front().freqMhz, 600.0);
    EXPECT_DOUBLE_EQ(model->perFrequency.back().freqMhz, 1800.0);
    for (const FrequencyModel &fm : model->perFrequency) {
        EXPECT_TRUE(fm.fit.ok);
        EXPECT_GT(fm.voltage, 0.5);
    }
}

TEST_F(PowerModelFlow, InSampleQualityIsPaperGrade)
{
    PowerModelQuality q =
        PowerModelBuilder::validate(*model, *observations);
    EXPECT_LT(q.mape, 0.10);          // paper: 3.28%
    EXPECT_GT(q.adjustedR2, 0.97);    // paper: 0.996
    EXPECT_LT(q.meanVif, 12.0);       // paper: 6
    EXPECT_EQ(q.observations, observations->size());
    EXPECT_FALSE(q.worstObservation.empty());
}

TEST_F(PowerModelFlow, EstimatesTrackMeasurementsPerObservation)
{
    for (std::size_t i = 0; i < observations->size(); i += 17) {
        const PowerObservation &obs = (*observations)[i];
        double est = model->estimateHw(obs.measurement);
        EXPECT_GT(est, 0.0);
        EXPECT_NEAR(est, obs.power(), obs.power() * 0.5)
            << obs.workload();
    }
}

TEST_F(PowerModelFlow, BreakdownSumsToEstimate)
{
    const PowerObservation &obs = observations->front();
    double est = model->estimateHw(obs.measurement);
    std::vector<double> parts = model->breakdownHw(obs.measurement);
    ASSERT_EQ(parts.size(), model->events.size() + 1);
    double sum = 0.0;
    for (double part : parts)
        sum += part;
    EXPECT_NEAR(sum, est, 1e-9);
}

TEST_F(PowerModelFlow, AppliesToG5Statistics)
{
    // The Fig. 2 tool: the same model runs on simulator output.
    g5::G5Stats stats = runner->simulator().run(
        workload::Suite::byName("mi-crc32"), g5::G5Model::Ex5Big,
        1000.0);
    double est = model->estimateG5(stats);
    EXPECT_GT(est, 0.0);
    EXPECT_LT(est, 10.0);
}

TEST_F(PowerModelFlow, RuntimeEquationsMentionEveryEvent)
{
    std::string equations = model->runtimeEquations();
    for (const EventSpec &spec : model->events)
        EXPECT_NE(equations.find(spec.key), std::string::npos);
    EXPECT_NE(equations.find("600mhz"), std::string::npos);
    EXPECT_NE(equations.find("1800mhz"), std::string::npos);
}

TEST_F(PowerModelFlow, UnknownFrequencyFatals)
{
    const PowerObservation &obs = observations->front();
    std::vector<double> rates = model->hwRates(obs.measurement);
    EXPECT_EXIT(model->estimateFromRates(rates, 1234.0),
                ::testing::ExitedWithCode(1), "no fit");
}


TEST_F(PowerModelFlow, SerializationRoundTrip)
{
    std::string text = model->serialize();
    PowerModel restored = PowerModel::deserialize(text);
    EXPECT_EQ(restored.clusterName, model->clusterName);
    ASSERT_EQ(restored.events.size(), model->events.size());
    ASSERT_EQ(restored.perFrequency.size(),
              model->perFrequency.size());
    for (std::size_t e = 0; e < model->events.size(); ++e)
        EXPECT_EQ(restored.events[e].key, model->events[e].key);

    // Estimates from the restored model are bit-identical.
    const PowerObservation &obs = observations->front();
    EXPECT_DOUBLE_EQ(restored.estimateHw(obs.measurement),
                     model->estimateHw(obs.measurement));
}

TEST(PowerModelSerialization, RejectsGarbage)
{
    EXPECT_EXIT(PowerModel::deserialize("not a model"),
                ::testing::ExitedWithCode(1), "powmon model");
    EXPECT_EXIT(PowerModel::deserialize("powmon-model 1\n"),
                ::testing::ExitedWithCode(1), "incomplete");
}

TEST(PowerModelBuilderTest, EmptyObservationsFatal)
{
    EXPECT_EXIT(PowerModelBuilder({}, "empty"),
                ::testing::ExitedWithCode(1), "no observations");
}
