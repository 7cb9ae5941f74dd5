/**
 * @file
 * E1 — Section IV headline numbers: execution-time MAPE/MPE of the
 * g5 models against the reference platform.
 *
 * Paper values: PARSEC-only across both clusters and all DVFS points
 * MAPE 25.5% / MPE -7.5%; all 45 workloads MAPE 40% / MPE -21%;
 * Cortex-A7 model at 1 GHz MAPE 20% / MPE +8.5%; Cortex-A15 model at
 * 1 GHz MAPE 59% / MPE -51%.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;
using core::ExperimentRunner;
using core::ValidationDataset;

void
fig_exec_error::render(Artefacts &artefacts, std::ostream &out)
{
    ExperimentRunner &runner = artefacts.runner();

    out << "E1: execution-time error of the g5 models "
           "(45 validation workloads, g5 v1)\n";

    ValidationDataset big =
        runner.runValidation(hwsim::CpuCluster::BigA15);
    ValidationDataset little =
        runner.runValidation(hwsim::CpuCluster::LittleA7);

    printBanner(out, "Execution-time error summary");
    TextTable t({"scope", "MAPE", "MPE", "paper MAPE", "paper MPE"});

    // PARSEC only, both clusters, all DVFS points.
    double parsec_mape = 0.5 * (big.execMapeSuite("parsec") +
                                little.execMapeSuite("parsec"));
    double parsec_mpe = 0.5 * (big.execMpeSuite("parsec") +
                               little.execMpeSuite("parsec"));
    t.addRow({"PARSEC, both clusters, all DVFS",
              formatPercent(parsec_mape), formatPercent(parsec_mpe),
              "25.5%", "-7.5%"});

    // All 45 workloads, both clusters, all DVFS points.
    double all_mape = 0.5 * (big.execMape() + little.execMape());
    double all_mpe = 0.5 * (big.execMpe() + little.execMpe());
    t.addRow({"all 45, both clusters, all DVFS",
              formatPercent(all_mape), formatPercent(all_mpe), "40%",
              "-21%"});

    t.addRow({"Cortex-A7 model @1GHz",
              formatPercent(little.execMapeAt(1000.0)),
              formatPercent(little.execMpeAt(1000.0)), "20%",
              "+8.5%"});
    t.addRow({"Cortex-A15 model @1GHz",
              formatPercent(big.execMapeAt(1000.0)),
              formatPercent(big.execMpeAt(1000.0)), "59%", "-51%"});
    t.print(out);

    printBanner(out, "Per-frequency drift (MPE becomes more "
                     "positive with frequency)");
    TextTable f({"cluster", "freq (MHz)", "MAPE", "MPE"});
    for (const ValidationDataset *ds : {&little, &big}) {
        for (double freq : ds->freqsMhz) {
            f.addRow({ds->cluster == hwsim::CpuCluster::LittleA7
                          ? "Cortex-A7"
                          : "Cortex-A15",
                      formatDouble(freq, 0),
                      formatPercent(ds->execMapeAt(freq)),
                      formatPercent(ds->execMpeAt(freq))});
        }
    }
    f.print(out);
}
