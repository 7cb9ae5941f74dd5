/**
 * @file
 * Reproduce the paper's figures and tables from campaigns shared
 * through one Artefacts (bench/artefacts.hh).
 *
 * Usage: reproduce [--jobs N] [--out DIR] [NAME...]
 * No NAME renders every artefact, in table order. --jobs 0 (the
 * default) uses every core; the bytes are the same at any N. --out
 * writes DIR/NAME.txt per artefact instead of stdout. Warnings go to
 * stderr; an unknown NAME exits 2 and lists the valid names.
 */

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "artefacts.hh"
#include "exec/threadpool.hh"
#include "util/logging.hh"

using namespace gemstone;

namespace {

struct Artefact
{
    const char *name;
    RenderFn render;
};

/** Every artefact, in the order of bench/golden/artefact_digests.txt. */
const Artefact kArtefacts[] = {
    {"fig3_mpe_clusters", fig3_mpe_clusters::render},       // E2  Fig. 3
    {"fig4_mem_latency", fig4_mem_latency::render},         // E3  Fig. 4
    {"fig5_pmc_correlation", fig5_pmc_correlation::render}, // E4  Fig. 5
    {"fig6_event_comparison", fig6_event_comparison::render}, // E7 Fig. 6
    {"fig7_power_energy", fig7_power_energy::render},       // E9  Fig. 7
    {"fig8_dvfs_scaling", fig8_dvfs_scaling::render},       // E10 Fig. 8
    {"fig_exec_error", fig_exec_error::render},             // E1  Sec. IV
    {"fig_g5_event_correlation",
     fig_g5_event_correlation::render},                     // E5  Sec. IV-C
    {"tab_ablation", tab_ablation::render},                 // A1  ablation
    {"tab_bp_fix", tab_bp_fix::render},                     // E11 Sec. VII
    {"tab_event_quality", tab_event_quality::render},       // E12 audit
    {"tab_power_model", tab_power_model::render},           // E8  Sec. V
    {"tab_regression", tab_regression::render},             // E6  Sec. IV-D
    {"tab_fault_resilience",
     tab_fault_resilience::render},                         // R1  resilience
};

const Artefact *
findArtefact(const std::string &name)
{
    for (const Artefact &artefact : kArtefacts) {
        if (name == artefact.name)
            return &artefact;
    }
    return nullptr;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned jobs = 0;
    std::string out_dir;
    std::vector<const Artefact *> selected;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--jobs" && i + 1 < argc) {
            int value = std::stoi(argv[++i]);
            if (value < 0)
                fatal("--jobs must be >= 0");
            jobs = static_cast<unsigned>(value);
        } else if (arg == "--out" && i + 1 < argc) {
            out_dir = argv[++i];
        } else if (const Artefact *artefact = findArtefact(arg)) {
            selected.push_back(artefact);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--jobs N] [--out DIR] [NAME...]\n"
                      << "unknown artefact '" << arg
                      << "'; valid names:\n";
            for (const Artefact &artefact : kArtefacts)
                std::cerr << "  " << artefact.name << "\n";
            return 2;
        }
    }
    if (selected.empty()) {
        for (const Artefact &artefact : kArtefacts)
            selected.push_back(&artefact);
    }

    Artefacts artefacts(jobs == 0 ? exec::ThreadPool::defaultThreadCount()
                                  : jobs);
    if (!out_dir.empty())
        std::filesystem::create_directories(out_dir);
    for (const Artefact *artefact : selected) {
        if (out_dir.empty()) {
            artefact->render(artefacts, std::cout);
            continue;
        }
        const std::filesystem::path path =
            (std::filesystem::path(out_dir) / artefact->name) += ".txt";
        std::ofstream file(path, std::ios::binary);
        if (!file)
            fatal("cannot open ", path.string());
        artefact->render(artefacts, file);
        if (!file.flush())
            fatal("cannot write ", path.string());
    }
    return 0;
}
