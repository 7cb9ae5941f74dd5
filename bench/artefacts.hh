/**
 * @file
 * The reproduced paper artefacts: one render function per figure or
 * table (bench/reproduce.cpp holds the table of them), and the
 * campaigns they share.
 */

#ifndef GEMSTONE_BENCH_ARTEFACTS_HH
#define GEMSTONE_BENCH_ARTEFACTS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <tuple>

#include "gemstone/runner.hh"
#include "powmon/builder.hh"

namespace gemstone {

/**
 * What every artefact shares: the worker count, one ExperimentRunner
 * per distinct runner configuration and the power models built on
 * them. A runner memoises its base runs in its platform and
 * simulator, so a campaign that a later artefact repeats on it
 * re-times those runs instead of re-simulating them. Points and fits
 * do not depend on the job count, so sharing moves no output byte.
 */
class Artefacts
{
  public:
    explicit Artefacts(unsigned jobs) : jobs(jobs) {}

    /**
     * The shared runner for @p config, created on first use. Only
     * the fields that define results (g5 version, repeats, seed,
     * board variation) select it; its jobs count is always #jobs.
     */
    core::ExperimentRunner &
    runner(const core::RunnerConfig &config = {})
    {
        auto &slot = runners[{config.g5Version, config.repeats,
                              config.seed, config.boardVariation}];
        if (!slot) {
            core::RunnerConfig shared = config;
            shared.jobs = jobs;
            slot = std::make_unique<core::ExperimentRunner>(shared);
        }
        return *slot;
    }

    /**
     * Section V's gem5-compatible power model of a cluster, fitted
     * once to the default runner's power characterisation: seven
     * events with reliable g5 equivalents plus the 0x1B-0x73
     * composite.
     */
    const powmon::PowerModel &
    compatibleModel(hwsim::CpuCluster cluster)
    {
        auto found = models.find(cluster);
        if (found != models.end())
            return found->second;
        powmon::PowerModelBuilder builder(
            runner().runPowerCharacterisation(cluster),
            cluster == hwsim::CpuCluster::LittleA7 ? "cortex-a7"
                                                   : "cortex-a15");
        powmon::PowerModel model = builder.build(
            builder.selectEvents(powmon::g5CompatibleSelection(7, jobs))
                .events,
            jobs);
        return models.emplace(cluster, std::move(model)).first->second;
    }

    /** Worker threads for campaigns and analyses. */
    const unsigned jobs;

  private:
    std::map<std::tuple<int, unsigned, std::uint64_t, double>,
             std::unique_ptr<core::ExperimentRunner>>
        runners;
    std::map<hwsim::CpuCluster, powmon::PowerModel> models;
};

} // namespace gemstone

using gemstone::Artefacts;

/** Renders one artefact's bytes. */
using RenderFn = void (*)(Artefacts &, std::ostream &);

// One namespace per artefact, named as its source file and its
// entry in bench/golden/artefact_digests.txt.
namespace fig3_mpe_clusters { void render(Artefacts &, std::ostream &); }
namespace fig4_mem_latency { void render(Artefacts &, std::ostream &); }
namespace fig5_pmc_correlation { void render(Artefacts &, std::ostream &); }
namespace fig6_event_comparison { void render(Artefacts &, std::ostream &); }
namespace fig7_power_energy { void render(Artefacts &, std::ostream &); }
namespace fig8_dvfs_scaling { void render(Artefacts &, std::ostream &); }
namespace fig_exec_error { void render(Artefacts &, std::ostream &); }
namespace fig_g5_event_correlation {
void render(Artefacts &, std::ostream &);
}
namespace tab_ablation { void render(Artefacts &, std::ostream &); }
namespace tab_bp_fix { void render(Artefacts &, std::ostream &); }
namespace tab_event_quality { void render(Artefacts &, std::ostream &); }
namespace tab_power_model { void render(Artefacts &, std::ostream &); }
namespace tab_regression { void render(Artefacts &, std::ostream &); }
namespace tab_fault_resilience { void render(Artefacts &, std::ostream &); }

#endif // GEMSTONE_BENCH_ARTEFACTS_HH
