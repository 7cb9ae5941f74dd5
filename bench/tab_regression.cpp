/**
 * @file
 * E6 — Section IV-D: forward-stepwise regression of the g5
 * execution-time error on HW PMC events and on g5 statistics.
 *
 * Paper values: the HW-PMC model selects seven events and reaches
 * R2 (and adjusted R2) of 0.97, with PC_WRITE_SPEC (total) the
 * single best predictor and SNOOPS / L1D_CACHE_REFILL_WR appearing
 * despite not standing out in the correlation analysis; the
 * g5-statistic model selects eight events and reaches R2 0.99.
 */

#include <ostream>
#include <string>

#include "artefacts.hh"
#include "gemstone/analysis.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
tab_regression::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E6 (Section IV-D): stepwise regression of the "
           "exec-time error @1GHz, Cortex-A15 (g5 v1)\n";

    core::ExperimentRunner &runner = artefacts.runner();
    core::ValidationDataset dataset =
        runner.runValidation(hwsim::CpuCluster::BigA15, {1000.0});

    core::ErrorRegression on_pmcs =
        core::regressErrorOnPmcs(dataset, 1000.0, 7, artefacts.jobs);
    core::ErrorRegression on_g5 =
        core::regressErrorOnG5Stats(dataset, 1000.0, 8, artefacts.jobs);

    printBanner(out, "Error ~ HW PMC events (paper: 7 events, "
                     "R2 = 0.97)");
    TextTable t({"step", "selected event", "R2 after step"});
    for (std::size_t i = 0; i < on_pmcs.selectedNames.size(); ++i) {
        t.addRow({std::to_string(i + 1), on_pmcs.selectedNames[i],
                  formatDouble(on_pmcs.stepwise.r2Trajectory[i], 4)});
    }
    t.print(out);
    out << "final R2 = " << formatDouble(on_pmcs.r2, 3)
        << ", adjusted R2 = "
        << formatDouble(on_pmcs.adjustedR2, 3)
        << " (paper: 0.97 / 0.97)\n";

    printBanner(out, "Error ~ g5 statistics (paper: 8 events, "
                     "R2 = 0.99)");
    TextTable g({"step", "selected statistic", "R2 after step"});
    for (std::size_t i = 0; i < on_g5.selectedNames.size(); ++i) {
        g.addRow({std::to_string(i + 1), on_g5.selectedNames[i],
                  formatDouble(on_g5.stepwise.r2Trajectory[i], 4)});
    }
    g.print(out);
    out << "final R2 = " << formatDouble(on_g5.r2, 3)
        << ", adjusted R2 = "
        << formatDouble(on_g5.adjustedR2, 3)
        << " (paper: 0.99 / 0.99)\n";
}
