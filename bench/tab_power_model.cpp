/**
 * @file
 * E8 — Section V: power-model construction and quality.
 *
 * Paper values (Cortex-A15): published coefficients applied to a
 * different board give MAPE 5.6%; re-tuning the same event selection
 * gives 2.8%; a fresh unrestricted selection gives 4.0% with a
 * better fit metric; the final gem5-compatible selection achieves
 * MAPE 3.28%, SER 0.049 W, adjusted R2 0.996, mean VIF 6, with a
 * worst observation of 14% (parsec-canneal-4 @1400 MHz) out of 621
 * observations. The Cortex-A7 model reaches adjusted R2 0.992, MAPE
 * 6.64%, SER 0.014 W.
 */

#include <ostream>
#include <string>

#include "artefacts.hh"
#include "gemstone/runner.hh"
#include "powmon/builder.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;
using powmon::PowerModel;
using powmon::PowerModelBuilder;
using powmon::PowerModelQuality;
using powmon::SelectionConfig;
using powmon::SelectionResult;

namespace {

void
printQuality(const std::string &label, const PowerModelQuality &q,
             TextTable &t)
{
    t.addRow({label, formatPercent(q.mape, 2),
              formatDouble(q.ser, 3) + " W",
              formatDouble(q.adjustedR2, 4),
              formatDouble(q.meanVif, 1),
              formatPercent(q.maxAbsError, 1) + " (" +
                  q.worstObservation + ")"});
}

} // namespace

void
tab_power_model::render(Artefacts &artefacts, std::ostream &out)
{
    // Event selection and the per-frequency fits are identical at
    // any jobs count.
    const unsigned jobs = artefacts.jobs;
    out << "E8 (Section V): empirical power models\n";

    core::ExperimentRunner &runner = artefacts.runner();

    // --- Cortex-A15 ---
    std::vector<powmon::PowerObservation> big_obs =
        runner.runPowerCharacterisation(hwsim::CpuCluster::BigA15);
    PowerModelBuilder big_builder(big_obs, "cortex-a15");
    out << "\nCortex-A15 observations: " << big_obs.size()
        << " (65 workloads x 4 DVFS points; paper: 621 "
           "observations)\n";

    TextTable t({"model", "MAPE", "SER", "adj R2", "mean VIF",
                 "worst observation"});

    // 1. "Published coefficients": a model built on a *different*
    // board instance (different sensors, temperature, silicon), then
    // applied to ours — the paper's 5.6% scenario.
    core::RunnerConfig other_config;
    other_config.seed = 0xB0A2DULL;      // a different physical board
    other_config.boardVariation = 0.06;  // silicon/sensor spread
    core::ExperimentRunner &other_runner =
        artefacts.runner(other_config);
    std::vector<powmon::PowerObservation> other_obs =
        other_runner.runPowerCharacterisation(
            hwsim::CpuCluster::BigA15);
    PowerModelBuilder other_builder(other_obs, "cortex-a15-other");

    SelectionConfig published_sel;
    published_sel.maxEvents = 7;
    published_sel.jobs = jobs;
    SelectionResult published_events =
        other_builder.selectEvents(published_sel);
    PowerModel published =
        other_builder.build(published_events.events, jobs);
    printQuality("published coefficients (paper 5.6%)",
                 PowerModelBuilder::validate(published, big_obs, jobs),
                 t);

    // 2. Same event selection, coefficients re-tuned on this board
    // (paper: 2.8%).
    PowerModel retuned =
        big_builder.build(published_events.events, jobs);
    printQuality("re-tuned coefficients (paper 2.8%)",
                 PowerModelBuilder::validate(retuned, big_obs, jobs),
                 t);

    // 3. Fresh unrestricted selection on this board (paper: 4.0%).
    SelectionConfig unrestricted;
    unrestricted.maxEvents = 7;
    unrestricted.jobs = jobs;
    SelectionResult fresh = big_builder.selectEvents(unrestricted);
    PowerModel fresh_model = big_builder.build(fresh.events, jobs);
    printQuality("unrestricted selection (paper 4.0%)",
                 PowerModelBuilder::validate(fresh_model, big_obs,
                                             jobs),
                 t);

    // 4. The final gem5-compatible selection: restricted to events
    // with reliable g5 equivalents, plus the 0x1B-0x73 composite
    // (paper: 3.28%, SER 0.049 W, adj R2 0.996, mean VIF 6).
    const PowerModel &final_model =
        artefacts.compatibleModel(hwsim::CpuCluster::BigA15);
    printQuality("gem5-compatible selection (paper 3.28%)",
                 PowerModelBuilder::validate(final_model, big_obs,
                                             jobs),
                 t);

    t.print(out);

    out << "\ngem5-compatible events selected:";
    for (const powmon::EventSpec &spec : final_model.events)
        out << " " << spec.key;
    out << "\n";

    // --- Cortex-A7 (paper: MAPE 6.64%, SER 0.014 W, adj R2 0.992) ---
    std::vector<powmon::PowerObservation> little_obs =
        runner.runPowerCharacterisation(hwsim::CpuCluster::LittleA7);
    const PowerModel &little_model =
        artefacts.compatibleModel(hwsim::CpuCluster::LittleA7);

    TextTable a7({"model", "MAPE", "SER", "adj R2", "mean VIF",
                  "worst observation"});
    printQuality("Cortex-A7 gem5-compatible (paper 6.64%)",
                 PowerModelBuilder::validate(little_model,
                                             little_obs, jobs),
                 a7);
    printBanner(out, "Cortex-A7 model");
    a7.print(out);

    printBanner(out, "Run-time power equations (emitted for "
                     "in-simulator evaluation)");
    out << final_model.runtimeEquations();
}
