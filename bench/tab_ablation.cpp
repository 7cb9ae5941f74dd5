/**
 * @file
 * A1 — ablation study of the ex5_big specification errors (the
 * iterative-improvement flow of Sections IV-F and VII).
 *
 * Each row re-runs the 45-workload validation against the reference
 * platform with ONE component corrected to its hardware
 * specification. Paper anchors: the branch predictor dominates the
 * error; correcting the L1 ITLB size *alone* makes the MAPE larger
 * ("changing this to the correct value results in a significantly
 * larger MAPE, as expected, due to the BP errors present"); fixing
 * everything recovers a small-error model.
 */

#include <ostream>

#include "artefacts.hh"
#include "exec/parallel.hh"
#include "g5/config.hh"
#include "gemstone/runner.hh"
#include "mlstat/descriptive.hh"
#include "uarch/system.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
tab_ablation::render(Artefacts &artefacts, std::ostream &out)
{
    out << "A1: ablation of the ex5_big specification errors "
           "(45 workloads @1GHz)\n";

    struct Row
    {
        const char *label;
        g5::Ex5Fixes fixes;
        const char *expectation;
    };
    std::vector<Row> rows;
    rows.push_back({"baseline (all errors present)", {},
                    "paper: MAPE 59%, MPE -51%"});

    g5::Ex5Fixes bp_only;
    bp_only.fixBranchPredictor = true;
    rows.push_back(
        {"fix branch predictor only", bp_only,
         "dominant source: error collapses"});

    g5::Ex5Fixes itlb_only;
    itlb_only.fixItlbSize = true;
    rows.push_back({"fix L1 ITLB size only", itlb_only,
                    "paper: MAPE *increases*"});

    g5::Ex5Fixes dram_only;
    dram_only.fixDramLatency = true;
    rows.push_back({"fix DRAM latency only", dram_only,
                    "small improvement"});

    g5::Ex5Fixes sync_only;
    sync_only.fixSyncCosts = true;
    rows.push_back({"fix synchronisation costs only", sync_only,
                    "small improvement"});

    g5::Ex5Fixes tlb_only;
    tlb_only.fixL2Tlb = true;
    rows.push_back({"fix L2 TLB shape only", tlb_only,
                    "small change (BP still storms)"});

    g5::Ex5Fixes stream_only;
    stream_only.fixWriteStreaming = true;
    rows.push_back({"fix write-streaming only", stream_only,
                    "event accuracy, small timing change"});

    g5::Ex5Fixes bp_and_mem;
    bp_and_mem.fixBranchPredictor = true;
    bp_and_mem.fixDramLatency = true;
    bp_and_mem.fixSyncCosts = true;
    rows.push_back({"fix BP + DRAM + sync", bp_and_mem,
                    "close to hardware"});

    rows.push_back({"fix everything", g5::Ex5Fixes::all(),
                    "smallest error"});

    // The hardware points do not depend on the row, so they are
    // measured once; every (row, workload) model run writes its own
    // slot, so the errors are the same at any jobs count.
    hwsim::OdroidXu3Platform &board = artefacts.runner().platform();
    const std::vector<const workload::Workload *> works =
        workload::Suite::validationSet();
    const std::size_t n = works.size();
    std::vector<double> hw_times(n);
    exec::parallelFor(artefacts.jobs, n, [&](std::size_t w) {
        hwsim::HwMeasurement hw = board.measureAttempt(
            *works[w], hwsim::CpuCluster::BigA15, 1000.0, 0, 1);
        hw_times[w] = hw.execSeconds;
    });
    std::vector<double> g5_times(rows.size() * n);
    exec::parallelFor(artefacts.jobs, g5_times.size(), [&](std::size_t i) {
        const workload::Workload &work = *works[i % n];
        uarch::ClusterConfig config = g5::ex5ConfigWithFixes(
            g5::G5Model::Ex5Big, rows[i / n].fixes);
        config.memBytes =
            std::max<std::uint64_t>(work.memBytes, 64 * 1024);
        uarch::ClusterModel cluster(config);
        work.prepareMemory(cluster.memory());
        g5_times[i] =
            cluster.run(work.program, work.numThreads, 1.0).seconds;
    });

    printBanner(out, "Execution-time error per correction");
    TextTable t({"configuration", "MAPE", "MPE", "expectation"});
    double baseline_mape = 0.0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const std::vector<double> g5_row(g5_times.begin() + r * n,
                                         g5_times.begin() + (r + 1) * n);
        double mape = mlstat::meanAbsPercentError(hw_times, g5_row);
        double mpe = mlstat::meanPercentError(hw_times, g5_row);
        if (r == 0)
            baseline_mape = mape;
        t.addRow({rows[r].label, formatPercent(mape), formatPercent(mpe),
                  rows[r].expectation});
    }
    t.print(out);
    out << "\nBaseline MAPE " << formatPercent(baseline_mape)
        << "; the component ordering above is the paper's "
           "motivation for fixing the most significant source "
           "first.\n";
}
