/**
 * @file
 * P1 — scaling of the execution engine (src/exec/).
 *
 * Times the Cortex-A15 validation campaign (hardware characterisation
 * + g5 simulation per point) through the task-graph scheduler at 1, 2,
 * 4 and 8 threads, cold and then warm against a content-addressed
 * result store. Reports points/sec and speedup relative to the serial
 * cold run. The collated dataset is byte-identical across every row —
 * the engine trades wall-clock only, never results — and the bench
 * asserts that as it goes.
 *
 * Expectations: near-linear cold-run scaling up to the physical core
 * count (>=3x at 8 threads on a >=4-core host), and a >=10x warm-store
 * speedup since a hit replays a measurement without simulating.
 *
 * Emits BENCH_campaign_scaling.json in the shared benchjson.hh shape
 * (host-dependent, so not CI-gated).
 *
 * Usage:
 *   perf_campaign_scaling [--out FILE]
 */

#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "benchjson.hh"
#include "exec/resultstore.hh"
#include "exec/threadpool.hh"
#include "gemstone/runner.hh"
#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/table.hh"

using namespace gemstone;

namespace {

const std::vector<double> kFreqs = {600.0, 1000.0};

struct Timed
{
    double seconds = 0.0;
    std::size_t points = 0;
    std::string csv;
};

Timed
timedCampaign(unsigned jobs,
              std::shared_ptr<exec::ResultStore> store)
{
    core::RunnerConfig config;
    config.jobs = jobs;
    core::ExperimentRunner runner(config);
    if (store)
        runner.attachResultStore(store);

    auto start = std::chrono::steady_clock::now();
    core::ValidationDataset dataset =
        runner.runValidation(hwsim::CpuCluster::BigA15, kFreqs);
    auto stop = std::chrono::steady_clock::now();

    Timed timed;
    timed.seconds =
        std::chrono::duration<double>(stop - start).count();
    timed.points = dataset.records.size();
    timed.csv = dataset.toCsv();
    return timed;
}

std::string
pointsPerSec(const Timed &t)
{
    return formatDouble(t.points / t.seconds, 1);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_campaign_scaling.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc)
            out_path = argv[++i];
        else
            fatal("unknown argument ", arg);
    }

    benchjson::BenchJson json("campaign_scaling", "points per second");
    auto addRow = [&](const std::string &group, const std::string &tag,
                      const Timed &run, double speedup) {
        json.addResult()
            .str("case", group + "-" + tag)
            .str("group", group)
            .integer("points", run.points)
            .num("seconds", run.seconds, 3)
            .num("points_per_sec", run.points / run.seconds, 1)
            .num("speedup", speedup, 2);
    };

    unsigned hw_threads = exec::ThreadPool::defaultThreadCount();
    std::cout << "P1: campaign scaling through the exec engine "
                 "(Cortex-A15, " << kFreqs.size()
              << " DVFS points; host reports " << hw_threads
              << " hardware thread(s))\n";

    Timed serial_cold = timedCampaign(1, nullptr);

    printBanner(std::cout, "Cold runs (no result store)");
    TextTable cold({"jobs", "seconds", "points/sec", "speedup",
                    "identical"});
    cold.addRow({"1", formatDouble(serial_cold.seconds, 3),
                 pointsPerSec(serial_cold), "1.00x", "-"});
    addRow("cold", "1", serial_cold, 1.0);
    for (unsigned jobs : {2u, 4u, 8u}) {
        Timed run = timedCampaign(jobs, nullptr);
        if (run.csv != serial_cold.csv)
            fatal("jobs=", jobs, " diverged from the serial run");
        cold.addRow({std::to_string(jobs),
                     formatDouble(run.seconds, 3), pointsPerSec(run),
                     formatRatio(serial_cold.seconds / run.seconds),
                     "yes"});
        addRow("cold", std::to_string(jobs), run,
               serial_cold.seconds / run.seconds);
    }
    cold.print(std::cout);

    // Warm the store once, then replay. Every successful measurement
    // and simulation hits the store, so a warm campaign is pure
    // decode + collation.
    auto store = std::make_shared<exec::ResultStore>();
    timedCampaign(1, store);
    exec::ResultStore::Stats warmed = store->stats();

    printBanner(std::cout, "Warm runs (content-addressed store)");
    TextTable warm({"jobs", "seconds", "points/sec", "speedup",
                    "identical"});
    for (unsigned jobs : {1u, hw_threads}) {
        Timed run = timedCampaign(jobs, store);
        if (run.csv != serial_cold.csv)
            fatal("warm jobs=", jobs,
                  " diverged from the serial run");
        warm.addRow({std::to_string(jobs),
                     formatDouble(run.seconds, 3), pointsPerSec(run),
                     formatRatio(serial_cold.seconds / run.seconds),
                     "yes"});
        addRow("warm", std::to_string(jobs), run,
               serial_cold.seconds / run.seconds);
    }
    warm.print(std::cout);

    exec::ResultStore::Stats stats = store->stats();
    std::cout << "store: " << store->size() << " entries, "
              << (stats.hits - warmed.hits) << " replay hits, "
              << stats.insertions << " insertions, "
              << stats.evictions << " evictions\n";

    json.write(out_path);
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
