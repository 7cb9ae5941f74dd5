/**
 * @file
 * E4 — Fig. 5: correlation of each HW PMC rate with the
 * execution-time MPE, labelled with the PMC event's HCA cluster.
 *
 * Paper findings: the most positive correlations belong to the
 * barrier/exclusive cluster (0x6C, 0x6D, 0x7E) and to unaligned
 * accesses; the most negative to branches and control flow (0x12,
 * 0x76, 0x78), with branch *mispredictions* (0x10) negative but
 * smaller in magnitude; instruction-rate clusters also negative.
 */

#include <ostream>
#include <string>

#include "artefacts.hh"
#include "gemstone/analysis.hh"
#include "gemstone/runner.hh"
#include "hwsim/pmu.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
fig5_pmc_correlation::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E4 (Fig. 5): HW PMC rate correlation with "
           "exec-time MPE @1GHz, Cortex-A15 (g5 v1)\n";

    core::ExperimentRunner &runner = artefacts.runner();
    core::ValidationDataset dataset =
        runner.runValidation(hwsim::CpuCluster::BigA15, {1000.0});
    core::CorrelationAnalysis analysis =
        core::correlatePmcEvents(dataset, 1000.0, 24, artefacts.jobs);

    printBanner(out,
                "Events sorted by correlation (clustered by HCA)");
    TextTable t({"PMC", "name", "corr with MPE", "event cluster"});
    for (const core::EventCorrelation &e : analysis.events) {
        int id = static_cast<int>(
            std::stoul(e.name.substr(2), nullptr, 16));
        const hwsim::PmcEvent *event = hwsim::PmuEventTable::find(id);
        t.addRow({e.name, event ? event->name : "?",
                  formatDouble(e.correlation, 3),
                  std::to_string(e.cluster)});
    }
    t.print(out);

    printBanner(out, "Key event checks against the paper");
    auto corr_of = [&](const std::string &key) {
        for (const core::EventCorrelation &e : analysis.events) {
            if (e.name == key)
                return e.correlation;
        }
        return 0.0;
    };
    TextTable k({"event", "meaning", "measured corr",
                 "paper expectation"});
    k.addRow({"0x6C", "LDREX_SPEC", formatDouble(corr_of("0x6C"), 3),
              "large positive"});
    k.addRow({"0x7E", "DMB_SPEC", formatDouble(corr_of("0x7E"), 3),
              "large positive"});
    k.addRow({"0x6A", "UNALIGNED_LDST_SPEC",
              formatDouble(corr_of("0x6A"), 3), "positive"});
    k.addRow({"0x12", "BR_PRED", formatDouble(corr_of("0x12"), 3),
              "most negative group"});
    k.addRow({"0x76", "PC_WRITE_SPEC",
              formatDouble(corr_of("0x76"), 3),
              "most negative group"});
    k.addRow({"0x10", "BR_MIS_PRED", formatDouble(corr_of("0x10"), 3),
              "negative, smaller magnitude"});
    k.addRow({"0x08", "INST_RETIRED", formatDouble(corr_of("0x08"), 3),
              "notable negative"});
    k.addRow({"0x73", "DP_SPEC", formatDouble(corr_of("0x73"), 3),
              "notable negative"});
    k.print(out);
}
