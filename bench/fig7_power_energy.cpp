/**
 * @file
 * E9 — Fig. 7 and Section VI: the power model applied to HW PMC
 * events vs g5 statistics, per workload cluster, with component
 * breakdowns and the power/energy error contrast.
 *
 * Paper values (Cortex-A15, 45 workloads, g5 v1): power MPE 3.3%,
 * power MAPE 10%; energy MPE -43.6%, energy MAPE 50.0%; per-cluster
 * energy MAPEs range from 0.6% to 266%; component errors can cancel
 * (a cluster with a 9.7x error on 0x43 still reaches 0.7% power
 * error). Cortex-A7: power MPE/MAPE -5.48%/7.97%, energy MPE/MAPE
 * 5.85%/14.6%.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/powereval.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
fig7_power_energy::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E9 (Fig. 7): power and energy, HW PMCs vs g5 "
           "statistics (g5 v1)\n";

    core::ExperimentRunner &runner = artefacts.runner();

    // --- Cortex-A15 @1GHz ---
    const powmon::PowerModel &big_model =
        artefacts.compatibleModel(hwsim::CpuCluster::BigA15);
    core::ValidationDataset big = runner.runValidation(
        hwsim::CpuCluster::BigA15, {1000.0});
    core::WorkloadClustering clustering =
        core::clusterWorkloads(big, 1000.0, 16);
    core::PowerEnergyEvaluation eval = core::evaluatePowerEnergy(
        big, 1000.0, big_model, clustering);

    printBanner(out, "Cortex-A15 summary");
    TextTable s({"metric", "measured", "paper"});
    s.addRow({"power MPE", formatPercent(eval.powerMpe), "3.3%"});
    s.addRow({"power MAPE", formatPercent(eval.powerMape), "10%"});
    s.addRow({"energy MPE", formatPercent(eval.energyMpe), "-43.6%"});
    s.addRow(
        {"energy MAPE", formatPercent(eval.energyMape), "50.0%"});
    s.print(out);

    printBanner(out, "Per-cluster power MAPE (bold in the "
                     "paper's figure) and energy MAPE "
                     "(brackets)");
    TextTable c({"cluster", "workloads", "power MAPE",
                 "energy MAPE"});
    for (const core::ClusterPowerEnergy &agg : eval.perCluster) {
        c.addRow({std::to_string(agg.cluster),
                  std::to_string(agg.workloadCount),
                  formatPercent(agg.powerMape),
                  formatPercent(agg.energyMape)});
    }
    c.print(out);

    printBanner(out, "Mean component breakdown across "
                     "clusters: HW-PMC estimate | g5 estimate "
                     "(watts)");
    TextTable b({"component", "HW (mean W)", "g5 (mean W)"});
    std::vector<double> hw_mean(eval.componentLabels.size(), 0.0);
    std::vector<double> g5_mean(eval.componentLabels.size(), 0.0);
    for (const core::ClusterPowerEnergy &agg : eval.perCluster) {
        for (std::size_t i = 0; i < hw_mean.size(); ++i) {
            hw_mean[i] += agg.hwBreakdown[i];
            g5_mean[i] += agg.g5Breakdown[i];
        }
    }
    for (std::size_t i = 0; i < hw_mean.size(); ++i) {
        b.addRow({eval.componentLabels[i],
                  formatDouble(hw_mean[i] / eval.perCluster.size(), 3),
                  formatDouble(g5_mean[i] / eval.perCluster.size(),
                               3)});
    }
    b.print(out);

    // --- Cortex-A7 ---
    const powmon::PowerModel &little_model =
        artefacts.compatibleModel(hwsim::CpuCluster::LittleA7);
    core::ValidationDataset little = runner.runValidation(
        hwsim::CpuCluster::LittleA7, {1000.0});
    core::WorkloadClustering little_clustering =
        core::clusterWorkloads(little, 1000.0, 16);
    core::PowerEnergyEvaluation little_eval =
        core::evaluatePowerEnergy(little, 1000.0, little_model,
                                  little_clustering);

    printBanner(out, "Cortex-A7 summary");
    TextTable a7({"metric", "measured", "paper"});
    a7.addRow({"power MPE", formatPercent(little_eval.powerMpe),
               "-5.48%"});
    a7.addRow({"power MAPE", formatPercent(little_eval.powerMape),
               "7.97%"});
    a7.addRow({"energy MPE", formatPercent(little_eval.energyMpe),
               "5.85%"});
    a7.addRow({"energy MAPE", formatPercent(little_eval.energyMape),
               "14.6%"});
    a7.print(out);
}
