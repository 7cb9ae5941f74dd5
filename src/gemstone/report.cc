/**
 * @file
 * Report generation implementation.
 */

#include "gemstone/report.hh"

#include <filesystem>
#include <sstream>

#include "hwsim/pmu.hh"
#include "powmon/builder.hh"
#include "util/atomicfile.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/table.hh"

namespace gemstone::core {

namespace {

powmon::PowerModel
buildClusterPowerModel(ExperimentRunner &runner,
                       hwsim::CpuCluster cluster)
{
    std::vector<powmon::PowerObservation> observations =
        runner.runPowerCharacterisation(cluster);
    powmon::PowerModelBuilder builder(
        observations,
        cluster == hwsim::CpuCluster::LittleA7 ? "cortex-a7"
                                               : "cortex-a15");
    return builder.build(
        builder.selectEvents(powmon::g5CompatibleSelection(7, 1))
            .events);
}

} // namespace

Report
generateReport(ExperimentRunner &runner, const ReportConfig &config)
{
    Report report;
    report.config = config;

    inform("gemstone: running validation experiments");
    report.validation = runner.runValidation(config.cluster);

    inform("gemstone: workload clustering");
    report.clustering = clusterWorkloads(
        report.validation, config.analysisFreqMhz,
        config.workloadClusters);

    inform("gemstone: correlation analyses");
    report.pmcCorrelation = correlatePmcEvents(
        report.validation, config.analysisFreqMhz);
    report.g5Correlation = correlateG5Events(
        report.validation, config.analysisFreqMhz);

    inform("gemstone: regression analyses");
    report.pmcRegression = regressErrorOnPmcs(
        report.validation, config.analysisFreqMhz);
    report.g5Regression = regressErrorOnG5Stats(
        report.validation, config.analysisFreqMhz);

    inform("gemstone: event comparison");
    std::size_t pathological =
        report.clustering.clusterOf("par-basicmath-rad2deg");
    report.eventComparison = compareEvents(
        report.validation, config.analysisFreqMhz,
        report.clustering, pathological);
    report.bpSummary = summariseBpAccuracy(
        report.validation, config.analysisFreqMhz);

    if (config.includePower) {
        inform("gemstone: power characterisation and modelling");
        report.powerModel =
            buildClusterPowerModel(runner, config.cluster);
        report.powerEnergy = evaluatePowerEnergy(
            report.validation, config.analysisFreqMhz,
            report.powerModel, report.clustering);
        report.hasPower = true;

        if (config.includeDvfs) {
            inform("gemstone: DVFS scaling");
            std::vector<std::size_t> selected;
            for (const auto &[label, size] :
                 report.clustering.clusterSizes) {
                if (size >= 3 && selected.size() < 3)
                    selected.push_back(label);
            }
            report.dvfsScaling = computeDvfsScaling(
                report.validation, report.powerModel,
                report.clustering, selected);
            report.hasDvfs = true;
        }
    }
    return report;
}

void
Report::writeText(std::ostream &os) const
{
    std::string cluster_name =
        config.cluster == hwsim::CpuCluster::LittleA7 ? "Cortex-A7"
                                                      : "Cortex-A15";
    os << "GemStone report: " << cluster_name << " vs g5 "
       << (validation.g5Version == 1 ? "v1" : "v2") << ", analysis @"
       << config.analysisFreqMhz << " MHz\n";

    printBanner(os, "Execution-time error");
    TextTable summary({"scope", "MAPE", "MPE"});
    summary.addRow({"all DVFS points",
                    formatPercent(validation.execMape()),
                    formatPercent(validation.execMpe())});
    for (double freq : validation.freqsMhz) {
        summary.addRow({formatDouble(freq, 0) + " MHz",
                        formatPercent(validation.execMapeAt(freq)),
                        formatPercent(validation.execMpeAt(freq))});
    }
    summary.print(os);

    printBanner(os, "Workload clusters (HCA of HW PMC data)");
    TextTable clusters({"workload", "cluster", "MPE"});
    for (const ClusteredWorkload &w : clustering.workloads) {
        clusters.addRow({w.name, std::to_string(w.cluster),
                         formatPercent(w.mpe)});
    }
    clusters.print(os);

    printBanner(os, "PMC correlation with the error (extremes)");
    TextTable correlation({"event", "corr", "event cluster"});
    std::size_t shown = 0;
    for (const EventCorrelation &e : pmcCorrelation.events) {
        if (shown++ >= 10)
            break;
        correlation.addRow({e.name, formatDouble(e.correlation, 3),
                            std::to_string(e.cluster)});
    }
    correlation.addRule();
    shown = 0;
    for (auto it = pmcCorrelation.events.rbegin();
         it != pmcCorrelation.events.rend() && shown < 5;
         ++it, ++shown) {
        correlation.addRow({it->name,
                            formatDouble(it->correlation, 3),
                            std::to_string(it->cluster)});
    }
    correlation.print(os);

    printBanner(os, "Stepwise regression of the error");
    os << "on HW PMCs: R2 = " << formatDouble(pmcRegression.r2, 3)
       << " [" << join(pmcRegression.selectedNames, ", ") << "]\n";
    os << "on g5 statistics: R2 = "
       << formatDouble(g5Regression.r2, 3) << " ["
       << join(g5Regression.selectedNames, ", ") << "]\n";

    printBanner(os, "Matched-event comparison (g5 / HW)");
    TextTable events({"event", "name", "mean ratio", "total MAPE"});
    for (const EventComparisonRow &row : eventComparison) {
        events.addRow({row.key, row.label, formatRatio(row.meanRatio),
                       formatPercent(row.totalMape)});
    }
    events.print(os);

    os << "\nBranch prediction accuracy: HW mean "
       << formatPercent(bpSummary.hwMean) << ", model mean "
       << formatPercent(bpSummary.g5Mean) << ", model worst "
       << formatPercent(bpSummary.g5Worst) << " ("
       << bpSummary.g5WorstWorkload << ")\n";

    if (hasPower) {
        printBanner(os, "Power & energy (model on HW PMCs vs g5)");
        TextTable power({"metric", "value"});
        power.addRow({"power MPE",
                      formatPercent(powerEnergy.powerMpe)});
        power.addRow({"power MAPE",
                      formatPercent(powerEnergy.powerMape)});
        power.addRow({"energy MPE",
                      formatPercent(powerEnergy.energyMpe)});
        power.addRow({"energy MAPE",
                      formatPercent(powerEnergy.energyMape)});
        power.print(os);

        printBanner(os, "Run-time power equations");
        os << powerModel.runtimeEquations();
    }

    if (hasDvfs) {
        printBanner(os, "DVFS scaling (normalised to the lowest "
                        "frequency)");
        TextTable scaling({"series", "perf", "power", "energy"});
        for (const ScalingSeries &s : dvfsScaling.series) {
            if (s.performance.empty())
                continue;
            scaling.addRow({s.label,
                            formatRatio(s.performance.back()),
                            formatRatio(s.power.back()),
                            formatRatio(s.energy.back())});
        }
        scaling.print(os);
    }
}

std::size_t
writeReportFiles(const Report &report, const std::string &directory)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(directory, ec);
    fatal_if(ec, "cannot create report directory ", directory);

    std::size_t files = 0;

    // Every artefact goes through the atomic temp + fsync + rename
    // path, so a crash mid-write never leaves a torn file where a
    // previous good report used to be.
    {
        std::ostringstream text;
        report.writeText(text);
        Status written = atomicWriteFile(directory + "/report.txt",
                                         text.str());
        fatal_if(!written.ok(), "cannot write report.txt: ",
                 written.toString());
        ++files;
    }

    if (!report.config.writeCsv)
        return files;

    // Per-workload validation dataset.
    {
        // A failed CSV is a degraded report, not a dead flow: warn
        // with the path and keep writing the remaining files.
        std::string path = directory + "/validation.csv";
        Status written = atomicWriteFile(path,
                                         report.validation.toCsv(),
                                         kCsvIntegrityMarker);
        if (written.ok())
            ++files;
        else
            warn("cannot write report file ", path, ": ",
                 written.toString());
    }

    // Workload clustering.
    {
        CsvWriter csv({"workload", "cluster", "mpe"});
        for (const ClusteredWorkload &w :
             report.clustering.workloads) {
            csv.addRow({w.name, std::to_string(w.cluster),
                        formatDouble(w.mpe, 6)});
        }
        std::string path = directory + "/clusters.csv";
        if (csv.writeFileAtomic(path).ok())
            ++files;
        else
            warn("cannot write report file ", path);
    }

    // PMC correlations.
    {
        CsvWriter csv({"event", "correlation", "event_cluster"});
        for (const EventCorrelation &e :
             report.pmcCorrelation.events) {
            csv.addRow({e.name, formatDouble(e.correlation, 6),
                        std::to_string(e.cluster)});
        }
        std::string path = directory + "/pmc_correlation.csv";
        if (csv.writeFileAtomic(path).ok())
            ++files;
        else
            warn("cannot write report file ", path);
    }

    // Event comparison.
    {
        CsvWriter csv({"event", "name", "mean_ratio", "rate_mape",
                       "total_mape", "total_mpe"});
        for (const EventComparisonRow &row :
             report.eventComparison) {
            csv.addRow({row.key, row.label,
                        formatDouble(row.meanRatio, 6),
                        formatDouble(row.rateMape, 6),
                        formatDouble(row.totalMape, 6),
                        formatDouble(row.totalMpe, 6)});
        }
        std::string path = directory + "/event_comparison.csv";
        if (csv.writeFileAtomic(path).ok())
            ++files;
        else
            warn("cannot write report file ", path);
    }

    // The full PMU capture per workload at the analysis frequency —
    // the raw dataset other tools can post-process.
    {
        std::vector<std::string> header = {"workload"};
        for (int id : hwsim::PmuEventTable::allIds())
            header.push_back(hwsim::pmcIdString(id));
        CsvWriter csv(header);
        for (const ValidationRecord *r : report.validation.atFrequency(
                 report.config.analysisFreqMhz)) {
            std::vector<std::string> row = {r->work->name};
            for (int id : hwsim::PmuEventTable::allIds())
                row.push_back(formatDouble(r->hw.pmcValue(id), 2));
            csv.addRow(row);
        }
        std::string path = directory + "/hw_pmcs.csv";
        if (csv.writeFileAtomic(path).ok())
            ++files;
        else
            warn("cannot write report file ", path);
    }

    if (report.hasPower) {
        Status written =
            atomicWriteFile(directory + "/power_model.txt",
                            report.powerModel.runtimeEquations());
        fatal_if(!written.ok(), "cannot write power_model.txt: ",
                 written.toString());
        ++files;
    }
    return files;
}

} // namespace gemstone::core
