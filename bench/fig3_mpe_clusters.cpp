/**
 * @file
 * E2 — Fig. 3: per-workload execution-time MPE at 1 GHz on the
 * Cortex-A15 cluster, ordered and grouped by HCA cluster of the HW
 * PMC data.
 *
 * Paper observations to reproduce: the MPE varies strongly between
 * workloads; workloads in the same cluster have similar MPEs;
 * extreme-MPE workloads sit in singleton clusters; clusters span
 * large positive (paper: +47%) to large negative (paper: -66%) means
 * with some near zero (paper: -3%); the worst workload
 * (par-basicmath-rad2deg) has a MAPE of 285% at 600 MHz.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/analysis.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
fig3_mpe_clusters::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E2 (Fig. 3): per-workload exec-time MPE @1GHz, "
           "Cortex-A15, grouped by HCA cluster\n";

    core::ExperimentRunner &runner = artefacts.runner();
    core::ValidationDataset dataset = runner.runValidation(
        hwsim::CpuCluster::BigA15, {600.0, 1000.0});
    core::WorkloadClustering clustering =
        core::clusterWorkloads(dataset, 1000.0, 16);

    printBanner(out,
                "Workloads in dendrogram order (cluster, MPE)");
    TextTable t({"workload", "cluster", "exec-time MPE"});
    std::size_t last_cluster = 0;
    for (const core::ClusteredWorkload &w : clustering.workloads) {
        if (w.cluster != last_cluster && last_cluster != 0)
            t.addRule();
        last_cluster = w.cluster;
        t.addRow({w.name, std::to_string(w.cluster),
                  formatPercent(w.mpe)});
    }
    t.print(out);

    printBanner(out, "Cluster mean MPE (paper: e.g. cluster 4 "
                     "+47%, cluster 8 -66%, cluster 10 -3%)");
    TextTable c({"cluster", "workloads", "mean MPE"});
    for (const auto &[label, mean_mpe] : clustering.clusterMeanMpe) {
        c.addRow({std::to_string(label),
                  std::to_string(clustering.clusterSizes.at(label)),
                  formatPercent(mean_mpe)});
    }
    c.print(out);

    // The worst workload at 600 MHz (paper: par-basicmath-rad2deg,
    // MAPE 285%).
    double worst_ape = 0.0;
    std::string worst_name;
    for (const core::ValidationRecord *r :
         dataset.atFrequency(600.0)) {
        if (r->execApe() > worst_ape) {
            worst_ape = r->execApe();
            worst_name = r->work->name;
        }
    }
    out << "\nHighest MAPE at 600 MHz: " << worst_name << " at "
        << formatPercent(worst_ape)
        << " (paper: par-basicmath-rad2deg, 285%)\n";
}
