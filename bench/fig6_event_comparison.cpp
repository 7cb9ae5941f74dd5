/**
 * @file
 * E7 — Fig. 6: total g5 events normalised to their HW PMC
 * equivalents, overall and for selected workload clusters.
 *
 * Paper values (means excluding the pathological cluster):
 * instructions ~1.0x; ITLB refills 0.06x (workload dependent:
 * 0.7x .. 0.01x across clusters); DTLB refills 1.7x; predicted
 * branches 1.1x (1.32x .. 0.93x); branch mispredictions 21x (1402x
 * for the pathological workload); active cycles follow the
 * per-cluster error; speculative instructions 1.1x; L1I accesses
 * over 2x; L1D_CACHE_REFILL_WR 9.9x; L1D_CACHE_WB 19x; L2
 * prefetches significantly overestimated.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/analysis.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
fig6_event_comparison::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E7 (Fig. 6): g5 events normalised to HW PMC "
           "equivalents @1GHz, Cortex-A15 (g5 v1)\n";

    core::ExperimentRunner &runner = artefacts.runner();
    core::ValidationDataset dataset =
        runner.runValidation(hwsim::CpuCluster::BigA15, {1000.0});
    core::WorkloadClustering clustering =
        core::clusterWorkloads(dataset, 1000.0, 16);

    // The pathological workload's cluster is excluded from the means,
    // as in the paper's Fig. 6 ("mean bars exclude Cluster 16").
    std::size_t pathological =
        clustering.clusterOf("par-basicmath-rad2deg");

    std::vector<core::EventComparisonRow> rows = core::compareEvents(
        dataset, 1000.0, clustering, pathological);

    printBanner(out, "Mean g5/HW event ratios (pathological "
                     "cluster excluded)");
    TextTable t({"event", "name", "mean g5/HW", "paper"});
    auto paper_of = [](const std::string &key) -> std::string {
        if (key == "0x08")
            return "~1.0x";
        if (key == "0x02")
            return "0.06x";
        if (key == "0x05")
            return "1.7x";
        if (key == "0x12")
            return "1.1x";
        if (key == "0x10")
            return "21x";
        if (key == "0x14")
            return ">2x";
        if (key == "0x43")
            return "9.9x";
        if (key == "0x15")
            return "19x";
        if (key == "0x1B")
            return "1.1x";
        if (key == "0x11")
            return "follows error";
        return "-";
    };
    for (const core::EventComparisonRow &row : rows) {
        t.addRow({row.key, row.label, formatRatio(row.meanRatio),
                  paper_of(row.key)});
    }
    t.print(out);

    printBanner(out, "Per-cluster ratios for the workload-"
                     "dependent events");
    TextTable c({"event", "cluster", "g5/HW"});
    for (const core::EventComparisonRow &row : rows) {
        if (row.key != "0x02" && row.key != "0x12" &&
            row.key != "0x10") {
            continue;
        }
        for (const auto &[cluster, ratio] : row.clusterRatio) {
            c.addRow({row.key, std::to_string(cluster),
                      formatRatio(ratio)});
        }
        c.addRule();
    }
    c.print(out);

    // The pathological workload's misprediction ratio (paper: 1402x).
    const core::ValidationRecord *worst =
        dataset.find("par-basicmath-rad2deg", 1000.0);
    if (worst) {
        double hw = worst->hw.pmcValue(0x10);
        double g5 = worst->g5.value(
            "system.cpu.commit.branchMispredicts");
        out << "\npar-basicmath-rad2deg misprediction ratio: "
            << formatRatio(hw > 0 ? g5 / hw : 0)
            << " (paper: 1402x)\n";
    }
}
