/**
 * @file
 * One pass over the paper's campaigns and analyses, shared by the
 * cold and warm phases, and the canonical renders its outputs are
 * checked through.
 */

#include <cstdio>

#include "bench.hh"
#include "gemstone/runner.hh"

namespace perfbench {

using namespace gemstone;

namespace {

/** The paper's fixed analysis frequency (Figs. 3-7). */
constexpr double kAnalysisMhz = 1000.0;

/** Fig. 7/8 gem5-compatible power-model selection. */
powmon::SelectionConfig
compatibleSelection(unsigned jobs)
{
    powmon::SelectionConfig config;
    config.maxEvents = 7;
    config.requireG5Equivalent = true;
    config.jobs = jobs;
    for (int id : powmon::EventSpecTable::knownBadForG5())
        config.excluded.insert(id);
    config.composites.push_back(
        powmon::EventSpecTable::difference(0x1B, 0x73));
    return config;
}

/** Appends exact (%.17g) fields to a canonical text render. */
class Render
{
  public:
    Render &num(double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g,", value);
        out += buf;
        return *this;
    }
    Render &text(const std::string &value)
    {
        out += value + ",";
        return *this;
    }
    Render &nums(const std::vector<double> &values)
    {
        for (double v : values)
            num(v);
        return *this;
    }
    Render &line()
    {
        out += "\n";
        return *this;
    }
    const std::string &str() const { return out; }

  private:
    std::string out;
};

std::string
render(const std::vector<powmon::PowerObservation> &obs)
{
    Render r;
    for (const powmon::PowerObservation &o : obs) {
        const hwsim::HwMeasurement &m = o.measurement;
        r.text(m.workload).text(hwsim::clusterTag(m.cluster));
        r.num(m.freqMhz).num(m.voltage).num(m.execSeconds).num(m.powerWatts);
        r.num(m.temperatureC).num(m.throttled ? 1.0 : 0.0);
        r.nums(m.repeatSeconds);
        for (const auto &[id, count] : m.pmc)
            r.num(id).num(count);
        r.line();
    }
    return r.str();
}

std::string
render(const core::WorkloadClustering &c)
{
    Render r;
    for (const core::ClusteredWorkload &w : c.workloads)
        r.text(w.name).num(static_cast<double>(w.cluster)).num(w.mpe).line();
    for (const auto &[label, mpe] : c.clusterMeanMpe)
        r.num(static_cast<double>(label)).num(mpe).line();
    return r.str();
}

std::string
render(const core::CorrelationAnalysis &c)
{
    Render r;
    for (const core::EventCorrelation &e : c.events)
        r.text(e.name).num(e.correlation).num(
            static_cast<double>(e.cluster)).line();
    return r.str();
}

std::string
render(const core::ErrorRegression &reg)
{
    Render r;
    for (const std::string &name : reg.selectedNames)
        r.text(name);
    r.line().num(reg.r2).num(reg.adjustedR2).line();
    r.nums(reg.stepwise.fit.beta).line();
    return r.str();
}

std::string
render(const std::vector<core::EventComparisonRow> &rows)
{
    Render r;
    for (const core::EventComparisonRow &row : rows) {
        r.text(row.key).text(row.label).num(row.meanRatio);
        for (const auto &[cluster, ratio] : row.clusterRatio)
            r.num(static_cast<double>(cluster)).num(ratio);
        r.num(row.rateMape).num(row.totalMape).num(row.totalMpe).line();
    }
    return r.str();
}

std::string
render(const powmon::SelectionResult &sel)
{
    Render r;
    for (const powmon::EventSpec &spec : sel.events)
        r.text(spec.key);
    r.line().nums(sel.adjR2Trajectory).line();
    return r.str();
}

std::string
render(const core::PowerEnergyEvaluation &eval)
{
    Render r;
    r.num(eval.powerMpe).num(eval.powerMape).num(eval.energyMpe).num(
        eval.energyMape).line();
    for (const core::PowerEnergyRecord &w : eval.perWorkload) {
        r.text(w.workload).num(static_cast<double>(w.cluster)).num(
            w.hwPower).num(w.g5Power).num(w.hwEnergy).num(w.g5Energy);
        r.nums(w.hwBreakdown).nums(w.g5Breakdown).line();
    }
    return r.str();
}

std::string
render(const core::DvfsScaling &scaling)
{
    Render r;
    for (const core::ScalingSeries &s : scaling.series) {
        r.text(s.label).nums(s.freqsMhz).nums(s.performance).nums(
            s.power).nums(s.energy).line();
    }
    return r.str();
}

} // namespace

CampaignData
runCampaigns(const std::vector<CampaignId> &order,
             const std::shared_ptr<exec::ResultStore> &store,
             unsigned jobs, Tracer *tracer)
{
    core::RunnerConfig v1;
    v1.jobs = jobs;
    core::RunnerConfig v2 = v1;
    v2.g5Version = 2;
    core::ExperimentRunner runner_v1(v1);
    core::ExperimentRunner runner_v2(v2);
    if (store) {
        runner_v1.attachResultStore(store);
        runner_v2.attachResultStore(store);
    }

    CampaignData data;
    for (const CampaignId &c : order) {
        core::ExperimentRunner &runner =
            c.g5Version == 2 ? runner_v2 : runner_v1;
        if (c.validation) {
            core::ValidationDataset dataset;
            {
                Span span(tracer, "replay_validation " + c.id, "gemstone");
                dataset = runner.runValidation(c.cluster);
            }
            Span span(tracer, "dataset_csv " + c.id, "gemstone");
            data.csv[c.id] = dataset.toCsv();
            data.validation[c.id] = std::move(dataset);
        } else {
            Span span(tracer, "replay_power " + c.id, "gemstone");
            data.power[c.id] = runner.runPowerCharacterisation(c.cluster);
        }
    }
    return data;
}

AnalysisResults
runAnalyses(const CampaignData &data, unsigned jobs, Tracer *tracer)
{
    const core::ValidationDataset &big = data.validation.at("val-a15-v1");
    const core::ValidationDataset &little =
        data.validation.at("val-a7-v1");
    AnalysisResults out;
    {
        Span span(tracer, "cluster_workloads", "gemstone");
        out.bigClusters = core::clusterWorkloads(big, kAnalysisMhz, 16, jobs);
        out.littleClusters =
            core::clusterWorkloads(little, kAnalysisMhz, 16, jobs);
    }
    {
        Span span(tracer, "correlate_pmc", "gemstone");
        out.pmcCorrelation =
            core::correlatePmcEvents(big, kAnalysisMhz, 24, jobs);
    }
    {
        Span span(tracer, "correlate_g5", "gemstone");
        out.g5Correlation =
            core::correlateG5Events(big, kAnalysisMhz, 0.3, 10, jobs);
    }
    {
        Span span(tracer, "regress_pmc", "gemstone");
        out.pmcRegression =
            core::regressErrorOnPmcs(big, kAnalysisMhz, 7, jobs);
    }
    {
        Span span(tracer, "regress_g5", "gemstone");
        out.g5Regression =
            core::regressErrorOnG5Stats(big, kAnalysisMhz, 8, jobs);
    }
    {
        Span span(tracer, "compare_events", "gemstone");
        out.comparison = core::compareEvents(
            big, kAnalysisMhz, out.bigClusters,
            out.bigClusters.clusterOf("par-basicmath-rad2deg"));
    }

    powmon::PowerModelBuilder big_builder(data.power.at("pow-a15"),
                                          "cortex-a15");
    powmon::PowerModelBuilder little_builder(data.power.at("pow-a7"),
                                             "cortex-a7");
    powmon::SelectionConfig selection = compatibleSelection(jobs);
    {
        Span span(tracer, "select_events", "powmon");
        out.bigSelection = big_builder.selectEvents(selection);
        out.littleSelection = little_builder.selectEvents(selection);
    }
    {
        Span span(tracer, "build", "powmon");
        out.bigModel = big_builder.build(out.bigSelection.events, jobs);
        out.littleModel =
            little_builder.build(out.littleSelection.events, jobs);
    }
    {
        Span span(tracer, "power_energy", "gemstone");
        out.bigEnergy = core::evaluatePowerEnergy(
            big, kAnalysisMhz, out.bigModel, out.bigClusters, jobs);
        out.littleEnergy = core::evaluatePowerEnergy(
            little, kAnalysisMhz, out.littleModel, out.littleClusters,
            jobs);
    }
    {
        Span span(tracer, "dvfs_scaling", "gemstone");
        out.littleScaling = core::computeDvfsScaling(
            little, out.littleModel, out.littleClusters, {2, 5, 9}, jobs);
    }
    return out;
}

bool
checkPass(const CampaignData &data, const AnalysisResults &results,
          DigestBook &book, Accuracy &accuracy)
{
    bool ok = true;
    for (const auto &[id, csv] : data.csv)
        ok &= book.check("campaign." + id, csv);
    for (const auto &[id, obs] : data.power)
        ok &= book.check("campaign." + id, render(obs));

    ok &= book.check("analysis.cluster_a15", render(results.bigClusters));
    ok &= book.check("analysis.cluster_a7", render(results.littleClusters));
    ok &= book.check("analysis.correlate_pmc",
                     render(results.pmcCorrelation));
    ok &= book.check("analysis.correlate_g5",
                     render(results.g5Correlation));
    ok &= book.check("analysis.regress_pmc", render(results.pmcRegression));
    ok &= book.check("analysis.regress_g5", render(results.g5Regression));
    ok &= book.check("analysis.compare_events", render(results.comparison));
    ok &= book.check("analysis.select_a15", render(results.bigSelection));
    ok &= book.check("analysis.select_a7",
                     render(results.littleSelection));
    ok &= book.check("analysis.model_a15", results.bigModel.serialize());
    ok &= book.check("analysis.model_a7", results.littleModel.serialize());
    ok &= book.check("analysis.power_energy_a15",
                     render(results.bigEnergy));
    ok &= book.check("analysis.power_energy_a7",
                     render(results.littleEnergy));
    ok &= book.check("analysis.dvfs_scaling_a7",
                     render(results.littleScaling));

    accuracy.execMapePct =
        50.0 * (data.validation.at("val-a15-v1").execMape() +
                data.validation.at("val-a7-v1").execMape());
    accuracy.energyMapePct = 100.0 * results.bigEnergy.energyMape;
    return ok;
}

} // namespace perfbench
