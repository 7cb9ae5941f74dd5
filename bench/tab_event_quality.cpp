/**
 * @file
 * E12 — the per-event quality audit behind the Fig. 7 legend and the
 * Section V restriction list: rate and total MAPE of each candidate
 * model event when estimated by g5, plus the headline bad events.
 *
 * Paper values: 0x15 (L1D write-backs) has an MPE over 1000% for
 * both rate and total; 0x75 (VFP) is misclassified as SIMD and its
 * natural equivalent is useless; the chosen model inputs have low
 * rate/total MAPEs.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/analysis.hh"
#include "gemstone/runner.hh"
#include "hwsim/pmu.hh"
#include "mlstat/descriptive.hh"
#include "powmon/eventspec.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
tab_event_quality::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E12: event-quality audit of g5 equivalents @1GHz, "
           "Cortex-A15 (g5 v1)\n";

    core::ExperimentRunner &runner = artefacts.runner();
    core::ValidationDataset dataset =
        runner.runValidation(hwsim::CpuCluster::BigA15, {1000.0});

    printBanner(out, "Rate/total error of candidate model "
                     "events (g5 vs HW)");
    TextTable t({"event", "name", "rate MAPE", "total MAPE",
                 "total MPE", "verdict"});

    static const int audited[] = {0x11, 0x08, 0x1B, 0x04, 0x16, 0x17,
                                  0x12, 0x10, 0x43, 0x15, 0x73, 0x74,
                                  0x75, 0x02, 0x05, 0x6C, 0x6D, 0x7E,
                                  0x14, 0x06, 0x07};

    auto records = dataset.atFrequency(1000.0);
    for (int id : audited) {
        powmon::EventSpec spec = powmon::EventSpecTable::forPmc(id);
        std::vector<double> hw_rate, g5_rate, hw_total, g5_total;
        for (const core::ValidationRecord *r : records) {
            double hw_count = spec.hwCount(r->hw);
            if (hw_count <= 0)
                continue;
            hw_total.push_back(hw_count);
            g5_total.push_back(spec.g5Count(r->g5));
            hw_rate.push_back(hw_count / r->hw.execSeconds);
            g5_rate.push_back(spec.g5Count(r->g5) /
                              std::max(1e-12, r->g5.simSeconds));
        }
        if (hw_total.empty())
            continue;
        double rate_mape =
            mlstat::meanAbsPercentError(hw_rate, g5_rate);
        double total_mape =
            mlstat::meanAbsPercentError(hw_total, g5_total);
        double total_mpe =
            mlstat::meanPercentError(hw_total, g5_total);

        bool banned = false;
        for (int bad : powmon::EventSpecTable::knownBadForG5())
            banned |= bad == id;
        const hwsim::PmcEvent *event = hwsim::PmuEventTable::find(id);
        t.addRow({hwsim::pmcIdString(id), event ? event->name : "?",
                  formatPercent(rate_mape),
                  formatPercent(total_mape),
                  formatPercent(total_mpe),
                  banned ? "EXCLUDED from pool" : "usable"});
    }
    t.print(out);

    out << "\nPaper anchors: 0x15 rate/total MPE over 1000% "
           "(the write-streaming divergence), 0x75 "
           "misclassified as SIMD (equivalent reads ~0), both "
           "excluded from the selection pool.\n";
}
