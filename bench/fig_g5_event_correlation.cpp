/**
 * @file
 * E5 — Section IV-C: cluster/correlation analysis over the g5
 * statistics.
 *
 * Paper findings: 94 statistics with |r| > 0.3; the largest cluster
 * (A) is ITLB/walker-cache dominated with every member below -0.51;
 * cluster B (predicted/mispredicted branches) between -0.46 and
 * -0.31; cluster C is L1I-miss related around -0.35; positive
 * correlations include fetch/commit IPC-style rates and L2
 * writeback/miss-latency statistics.
 */

#include <ostream>

#include "artefacts.hh"
#include "gemstone/analysis.hh"
#include "gemstone/runner.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

void
fig_g5_event_correlation::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E5 (Section IV-C): g5 statistic correlation with "
           "exec-time MPE @1GHz, ex5_big v1\n";

    core::ExperimentRunner &runner = artefacts.runner();
    core::ValidationDataset dataset =
        runner.runValidation(hwsim::CpuCluster::BigA15, {1000.0});
    core::CorrelationAnalysis analysis =
        core::correlateG5Events(dataset, 1000.0, 0.3, 10);

    out << "\nStatistics with |r| >= 0.3: "
        << analysis.events.size() << " (paper: 94)\n";

    printBanner(out,
                "Event clusters by mean correlation (most negative "
                "first)");
    TextTable c({"cluster", "events", "mean corr", "members (up to 6)"});
    for (const auto &[label, mean_corr] :
         analysis.clustersByMeanCorrelation()) {
        auto members = analysis.inCluster(label);
        std::string names;
        std::size_t shown = 0;
        for (const core::EventCorrelation *e : members) {
            if (shown++ == 6) {
                names += ", ...";
                break;
            }
            if (!names.empty())
                names += ", ";
            names += e->name;
        }
        c.addRow({std::to_string(label),
                  std::to_string(members.size()),
                  formatDouble(mean_corr, 3), names});
    }
    c.print(out);

    printBanner(out, "Most negative statistics (paper: ITLB "
                     "walker-cache and branch events)");
    TextTable t({"g5 statistic", "corr"});
    std::size_t count = 0;
    for (const core::EventCorrelation &e : analysis.events) {
        if (count++ == 15)
            break;
        t.addRow({e.name, formatDouble(e.correlation, 3)});
    }
    t.print(out);

    printBanner(out, "Most positive statistics (paper: fetch "
                     "rate / IPC, L2 writebacks, L2 miss "
                     "latency)");
    TextTable p({"g5 statistic", "corr"});
    count = 0;
    for (auto it = analysis.events.rbegin();
         it != analysis.events.rend() && count < 10; ++it, ++count) {
        p.addRow({it->name, formatDouble(it->correlation, 3)});
    }
    p.print(out);
}
