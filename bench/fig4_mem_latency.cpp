/**
 * @file
 * E3 — Fig. 4: lat_mem_rd-style memory-latency curves (stride 256)
 * for HW and the g5 models on both clusters.
 *
 * Paper findings to reproduce: the modelled DRAM latency is too low
 * on both models; the Cortex-A7 model's L2 latency is too high; the
 * other levels match closely.
 */

#include <ostream>

#include "artefacts.hh"
#include "g5/simulator.hh"
#include "hwsim/platform.hh"
#include "uarch/system.hh"
#include "util/strutil.hh"
#include "util/table.hh"
#include "workload/microbench.hh"

using namespace gemstone;

namespace {

/** Average ns per dependent load for a platform run. */
double
nsPerHop(double seconds, std::uint64_t hops)
{
    return seconds / static_cast<double>(hops) * 1e9;
}

} // namespace

void
fig4_mem_latency::render(Artefacts &artefacts, std::ostream &out)
{
    out << "E3 (Fig. 4): measured memory latency with a stride "
           "of 256 (ns per load, 1 GHz)\n";

    constexpr std::uint64_t stride = 256;
    constexpr std::uint64_t hops = 40000;

    hwsim::OdroidXu3Platform &board = artefacts.runner().platform();
    g5::G5Simulation &sim = artefacts.runner().simulator();

    printBanner(out, "Latency vs working-set size");
    TextTable t({"size (KiB)", "HW A15", "g5 ex5_big", "HW A7",
                 "g5 ex5_LITTLE"});

    for (std::uint64_t size : workload::latMemRdSizes()) {
        workload::Workload probe =
            workload::makeLatMemRd(size, stride, hops);

        hwsim::HwMeasurement hw_big = board.measure(
            probe, hwsim::CpuCluster::BigA15, 1000.0, 1);
        hwsim::HwMeasurement hw_little = board.measure(
            probe, hwsim::CpuCluster::LittleA7, 1000.0, 1);
        g5::G5Stats g5_big =
            sim.run(probe, g5::G5Model::Ex5Big, 1000.0);
        g5::G5Stats g5_little =
            sim.run(probe, g5::G5Model::Ex5Little, 1000.0);

        t.addRow({std::to_string(size / 1024),
                  formatDouble(nsPerHop(hw_big.execSeconds, hops), 2),
                  formatDouble(nsPerHop(g5_big.simSeconds, hops), 2),
                  formatDouble(nsPerHop(hw_little.execSeconds, hops),
                               2),
                  formatDouble(nsPerHop(g5_little.simSeconds, hops),
                               2)});
    }
    t.print(out);

    out << "\nExpected shape (paper): plateaus at L1/L2/DRAM; "
           "the g5 DRAM plateau sits well below HW on both "
           "clusters, and the ex5_LITTLE L2 plateau sits above "
           "the A7's.\n";
}
