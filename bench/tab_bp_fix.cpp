/**
 * @file
 * E11 — Section VII: the branch-predictor fix between g5 versions.
 *
 * Paper values (Cortex-A15 model, 45 workloads): execution-time MPE
 * swings from -51% to +10%, MAPE improves from 59% to 18%, and the
 * energy MAPE improves from 50% to 18%. Mean BP accuracy is ~65% in
 * the old model vs ~96% on hardware; the worst model accuracy is
 * 0.86% on par-basicmath-rad2deg (99.9% on hardware), a workload
 * with an execution-time MPE of -268% at 1 GHz.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/analysis.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
tab_bp_fix::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E11: g5 version comparison (ex5_big, 45 "
           "workloads)\n";

    core::ValidationDataset v1 =
        artefacts.runner().runValidation(hwsim::CpuCluster::BigA15);

    core::RunnerConfig config_v2;
    config_v2.g5Version = 2;
    core::ValidationDataset v2 = artefacts.runner(config_v2).runValidation(
        hwsim::CpuCluster::BigA15);

    printBanner(out, "Execution-time error across versions");
    TextTable t({"metric", "g5 v1 (paper's release)",
                 "g5 v2 (BP fix)", "paper v1", "paper v2"});
    t.addRow({"exec-time MPE", formatPercent(v1.execMpe()),
              formatPercent(v2.execMpe()), "-51%", "+10%"});
    t.addRow({"exec-time MAPE", formatPercent(v1.execMape()),
              formatPercent(v2.execMape()), "59%", "18%"});
    t.print(out);

    printBanner(out, "Branch prediction accuracy @1GHz");
    core::BpAccuracySummary bp_v1 =
        core::summariseBpAccuracy(v1, 1000.0);
    core::BpAccuracySummary bp_v2 =
        core::summariseBpAccuracy(v2, 1000.0);
    TextTable b({"metric", "measured", "paper"});
    b.addRow({"HW mean accuracy", formatPercent(bp_v1.hwMean),
              "96%"});
    b.addRow({"g5 v1 mean accuracy", formatPercent(bp_v1.g5Mean),
              "65%"});
    b.addRow({"g5 v2 mean accuracy", formatPercent(bp_v2.g5Mean),
              "(improved)"});
    b.addRow({"g5 v1 worst accuracy",
              formatPercent(bp_v1.g5Worst) + " (" +
                  bp_v1.g5WorstWorkload + ")",
              "0.86% (par-basicmath-rad2deg)"});
    b.addRow({"HW accuracy on that workload",
              formatPercent(bp_v1.g5WorstHwAccuracy), "99.9%"});
    b.addRow({"its exec-time MPE",
              formatPercent(bp_v1.g5WorstMpe), "-268%"});
    b.print(out);
}
