/**
 * @file
 * big.LITTLE scheduling trade-off study — the motivating use case of
 * the paper's Section VI ("the trade-offs between DVFS levels and
 * different cores ... are important for many investigations").
 *
 * For a set of workloads, this example measures execution time and
 * model-estimated power on every operating point of both clusters,
 * then reports, per workload, the most energy-efficient operating
 * point that still meets a deadline — first using the reference
 * platform, then using the g5 model — and shows where the model's
 * errors would change the scheduling decision.
 */

#include <iostream>

#include "gemstone/runner.hh"
#include "powmon/builder.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

namespace {

struct OperatingPoint
{
    hwsim::CpuCluster cluster;
    double freqMhz;
};

struct Choice
{
    OperatingPoint opp{hwsim::CpuCluster::LittleA7, 0.0};
    double seconds = 0.0;
    double energy = 1e300;
};

std::string
oppName(const OperatingPoint &opp)
{
    return std::string(opp.cluster == hwsim::CpuCluster::LittleA7
                           ? "A7"
                           : "A15") +
        "@" + formatDouble(opp.freqMhz, 0);
}

powmon::PowerModel
buildModel(core::ExperimentRunner &runner, hwsim::CpuCluster cluster,
           const std::string &name)
{
    powmon::PowerModelBuilder builder(
        runner.runPowerCharacterisation(cluster), name);
    return builder.build(
        builder.selectEvents(powmon::g5CompatibleSelection(6, 1))
            .events);
}

} // namespace

int
main()
{
    std::cout
        << "big.LITTLE energy/deadline scheduling study\n"
        << "(picks the lowest-energy operating point that meets a "
           "deadline, on HW vs on the g5 v1 model)\n";

    core::ExperimentRunner runner;

    powmon::PowerModel a7_model =
        buildModel(runner, hwsim::CpuCluster::LittleA7, "a7");
    powmon::PowerModel a15_model =
        buildModel(runner, hwsim::CpuCluster::BigA15, "a15");

    std::vector<OperatingPoint> opps;
    for (double f : core::ExperimentRunner::frequenciesFor(
             hwsim::CpuCluster::LittleA7)) {
        opps.push_back({hwsim::CpuCluster::LittleA7, f});
    }
    for (double f : core::ExperimentRunner::frequenciesFor(
             hwsim::CpuCluster::BigA15)) {
        opps.push_back({hwsim::CpuCluster::BigA15, f});
    }

    const std::vector<std::string> workloads = {
        "mi-crc32",     "mi-fft",          "mi-dijkstra",
        "whetstone",    "parsec-canneal-1", "parsec-dedup-1",
        "mi-qsort",     "dhrystone"};

    printBanner(std::cout, "Best operating point per workload "
                           "(deadline = 1.5x the fastest HW time)");
    TextTable t({"workload", "HW choice", "HW energy (mJ)",
                 "g5 choice", "g5 choice's true energy (mJ)",
                 "agrees?"});

    unsigned disagreements = 0;
    for (const std::string &name : workloads) {
        const workload::Workload &work =
            workload::Suite::byName(name);

        // Gather (time, power) on every OPP for both platforms.
        struct Row
        {
            OperatingPoint opp;
            double hw_seconds;
            double hw_power;
            double g5_seconds;
            double g5_power;
        };
        std::vector<Row> rows;
        double fastest_hw = 1e300;
        for (const OperatingPoint &opp : opps) {
            const powmon::PowerModel &model =
                opp.cluster == hwsim::CpuCluster::LittleA7
                    ? a7_model
                    : a15_model;
            hwsim::HwMeasurement hw = runner.platform().measure(
                work, opp.cluster, opp.freqMhz, 1);
            g5::G5Stats g5 = runner.simulator().run(
                work, core::ExperimentRunner::modelFor(opp.cluster),
                opp.freqMhz);
            Row row{opp, hw.execSeconds, model.estimateHw(hw),
                    g5.simSeconds, model.estimateG5(g5)};
            fastest_hw = std::min(fastest_hw, row.hw_seconds);
            rows.push_back(row);
        }

        double deadline = fastest_hw * 1.5;

        // Pick the lowest-energy OPP meeting the deadline, once with
        // the true platform numbers and once with the model's.
        Choice truth;
        Choice modelled;
        for (const Row &row : rows) {
            double hw_energy = row.hw_power * row.hw_seconds;
            if (row.hw_seconds <= deadline &&
                hw_energy < truth.energy) {
                truth = {row.opp, row.hw_seconds, hw_energy};
            }
            double g5_energy = row.g5_power * row.g5_seconds;
            if (row.g5_seconds <= deadline &&
                g5_energy < modelled.energy) {
                modelled = {row.opp, row.g5_seconds, g5_energy};
            }
        }

        // The model may claim no operating point meets the deadline
        // at all (its execution-time overestimate exceeds 50% for
        // storm-hit workloads) — itself a wrong scheduling outcome.
        bool model_found = modelled.energy < 1e299;

        // What would the model's choice really cost on hardware?
        double modelled_true_energy = 0.0;
        for (const Row &row : rows) {
            if (model_found &&
                row.opp.cluster == modelled.opp.cluster &&
                row.opp.freqMhz == modelled.opp.freqMhz) {
                modelled_true_energy =
                    row.hw_power * row.hw_seconds;
            }
        }

        bool agree = model_found &&
            truth.opp.cluster == modelled.opp.cluster &&
            truth.opp.freqMhz == modelled.opp.freqMhz;
        disagreements += agree ? 0 : 1;
        t.addRow({name, oppName(truth.opp),
                  formatDouble(truth.energy * 1e3, 3),
                  model_found ? oppName(modelled.opp)
                              : "\"deadline unmeetable\"",
                  model_found
                      ? formatDouble(modelled_true_energy * 1e3, 3)
                      : "-",
                  agree ? "yes" : "NO"});
    }
    t.print(std::cout);

    std::cout << "\n" << disagreements << " of " << workloads.size()
              << " scheduling decisions change when made on the "
                 "un-validated model — the paper's argument for "
                 "hardware-validated models in one table.\n";
    return 0;
}
