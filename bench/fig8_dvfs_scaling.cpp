/**
 * @file
 * E10 — Fig. 8 and Section VI: performance, power and energy scaling
 * across DVFS points, normalised to the lowest frequency.
 *
 * Paper values: on the Cortex-A15, the 600 -> 1800 MHz speedup is
 * 2.7x on HW vs 2.9x in the model — the mean is right but the
 * model compresses the workload diversity (HW range 2.1-3.2x, model
 * 2.8-3.0x); energy growth is 1.7-2.3x (mean 1.8x) on HW vs
 * 1.6-1.9x (mean 1.7x) in the model. On the A7 the curves are
 * normalised to 200 MHz.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/powereval.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

namespace {

void
printSeries(std::ostream &out, const core::DvfsScaling &scaling,
            const std::vector<double> &freqs)
{
    TextTable t({"series", "quantity", "f0", "f1", "f2", "f3"});
    for (const core::ScalingSeries &s : scaling.series) {
        auto row = [&](const char *quantity,
                       const std::vector<double> &values) {
            std::vector<std::string> cells = {s.label, quantity};
            for (double v : values)
                cells.push_back(formatRatio(v));
            while (cells.size() < 6)
                cells.push_back("-");
            t.addRow(cells);
        };
        row("performance", s.performance);
        row("power", s.power);
        row("energy", s.energy);
        t.addRule();
    }
    out << "frequencies (MHz):";
    for (double f : freqs)
        out << " " << f;
    out << "\n";
    t.print(out);
}

} // namespace

void
fig8_dvfs_scaling::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E10 (Fig. 8): DVFS scaling of performance, power "
           "and energy (g5 v1)\n";

    core::ExperimentRunner &runner = artefacts.runner();

    // --- Cortex-A7 normalised to 200 MHz (the paper's Fig. 8) ---
    const powmon::PowerModel &little_model =
        artefacts.compatibleModel(hwsim::CpuCluster::LittleA7);
    core::ValidationDataset little =
        runner.runValidation(hwsim::CpuCluster::LittleA7);
    core::WorkloadClustering little_clusters =
        core::clusterWorkloads(little, 1000.0, 16);

    // Pick three representative clusters plus the mean.
    std::vector<std::size_t> selected = {2, 5, 9};
    core::DvfsScaling little_scaling = core::computeDvfsScaling(
        little, little_model, little_clusters, selected);

    printBanner(out, "Cortex-A7, normalised to 200 MHz");
    printSeries(out, little_scaling, little.freqsMhz);

    // --- Cortex-A15: 600 -> 1800 MHz speedup and energy growth ---
    const powmon::PowerModel &big_model =
        artefacts.compatibleModel(hwsim::CpuCluster::BigA15);
    core::ValidationDataset big =
        runner.runValidation(hwsim::CpuCluster::BigA15);
    core::WorkloadClustering big_clusters =
        core::clusterWorkloads(big, 1000.0, 16);

    core::SpeedupSummary speedup =
        core::summariseSpeedup(big, big_clusters, 600.0, 1800.0);
    core::SpeedupSummary energy = core::summariseEnergyGrowth(
        big, big_model, big_clusters, 600.0, 1800.0);

    printBanner(out,
                "Cortex-A15 600 -> 1800 MHz (per-cluster ranges)");
    TextTable s({"metric", "HW", "g5 model", "paper HW",
                 "paper model"});
    s.addRow({"mean speedup", formatRatio(speedup.hwMean),
              formatRatio(speedup.g5Mean), "2.7x", "2.9x"});
    s.addRow({"speedup range",
              formatRatio(speedup.hwMin) + " - " +
                  formatRatio(speedup.hwMax),
              formatRatio(speedup.g5Min) + " - " +
                  formatRatio(speedup.g5Max),
              "2.1x - 3.2x", "2.8x - 3.0x"});
    s.addRow({"min-speedup cluster",
              std::to_string(speedup.hwMinCluster),
              std::to_string(speedup.g5MinCluster), "same cluster",
              "same cluster"});
    s.addRow({"max-speedup cluster",
              std::to_string(speedup.hwMaxCluster),
              std::to_string(speedup.g5MaxCluster),
              "cluster differs", "cluster differs"});
    s.addRow({"mean energy growth", formatRatio(energy.hwMean),
              formatRatio(energy.g5Mean), "1.8x", "1.7x"});
    s.addRow({"energy growth range",
              formatRatio(energy.hwMin) + " - " +
                  formatRatio(energy.hwMax),
              formatRatio(energy.g5Min) + " - " +
                  formatRatio(energy.g5Max),
              "1.7x - 2.3x", "1.6x - 1.9x"});
    s.print(out);
}
