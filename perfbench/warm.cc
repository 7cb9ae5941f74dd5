/**
 * @file
 * warm_iterate: replay the campaigns from a filled store and rerun
 * the analysis set, as a user iterating on the Section IV-VI
 * analyses does.
 */

#include <atomic>
#include <iostream>

#include "gemstone/runner.hh"
#include "phases.hh"

namespace perfbench {

using namespace gemstone;

std::shared_ptr<exec::ResultStore>
fillWarmStore(const Plan &plan)
{
    // Set-up only needs the entries, so the five campaigns run
    // concurrently: one campaign's base-run waits overlap another's
    // work. Runners and the store are safe to share across threads.
    auto store = std::make_shared<exec::ResultStore>();
    core::RunnerConfig v1;
    v1.jobs = plan.jobs;
    core::RunnerConfig v2 = v1;
    v2.g5Version = 2;
    core::ExperimentRunner runner_v1(v1), runner_v2(v2);
    runner_v1.attachResultStore(store);
    runner_v2.attachResultStore(store);
    std::vector<std::thread> threads;
    std::atomic<bool> failed{false};
    for (const CampaignId &c : plan.warmOrder) {
        core::ExperimentRunner &runner =
            c.g5Version == 2 ? runner_v2 : runner_v1;
        threads.emplace_back([&runner, &failed, c] {
            try {
                if (c.validation)
                    runner.runValidation(c.cluster);
                else
                    runner.runPowerCharacterisation(c.cluster);
            } catch (const std::exception &e) {
                std::cerr << "perfbench: warm-store fill of " << c.id
                          << " failed: " << e.what() << "\n";
                failed = true;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return failed ? nullptr : store;
}

WarmSample
warmPass(const Plan &plan, const std::shared_ptr<exec::ResultStore> &store,
         DigestBook &book, Tracer *tracer)
{
    WarmSample sample;
    exec::ResultStore::Stats before = store->stats();
    Span pass(tracer, "warm_pass", "bench");
    CampaignData data = runCampaigns(plan.warmOrder, store, plan.jobs,
                                     tracer);
    AnalysisResults results = runAnalyses(data, plan.jobs, tracer);
    sample.wallSeconds = pass.stop();
    exec::ResultStore::Stats after = store->stats();
    sample.storeDelta.hits = after.hits - before.hits;
    sample.storeDelta.misses = after.misses - before.misses;
    sample.storeDelta.insertions = after.insertions - before.insertions;
    sample.storeDelta.evictions = after.evictions - before.evictions;
    Accuracy accuracy;
    sample.ok = checkPass(data, results, book, accuracy);
    return sample;
}

bool
tracedWarmPasses(const Plan &plan,
                 const std::shared_ptr<exec::ResultStore> &store,
                 Tracer &tracer, Metrics &metrics, DigestBook &book)
{
    bool ok = true;
    std::vector<double> traced, untraced;
    WarmSample last;
    for (unsigned i = 0; i < plan.warmPasses; ++i) {
        // Alternate so drift hits both sides equally.
        bool with_spans = i % 2 == 0;
        WarmSample s =
            warmPass(plan, store, book, with_spans ? &tracer : nullptr);
        ok &= s.ok;
        (with_spans ? traced : untraced).push_back(s.wallSeconds);
        last = s;
    }

    // Per traced pass: total time per span kind, found by walking each
    // span up to its warm_pass root.
    std::vector<Tracer::Record> spans = tracer.records();
    std::vector<double> self = tracer.selfSeconds();
    std::map<long, std::map<std::string, double>> per_pass;
    std::vector<double> unattributed;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        long root = static_cast<long>(i);
        while (spans[root].parent >= 0)
            root = spans[root].parent;
        if (spans[root].name != "warm_pass")
            continue;
        if (root == static_cast<long>(i)) {
            unattributed.push_back(
                100.0 * self[i] / (spans[i].end - spans[i].start));
            continue;
        }
        std::string kind = spans[i].name.substr(0, spans[i].name.find(' '));
        per_pass[root][kind] += spans[i].end - spans[i].start;
    }
    auto pass_median_ms = [&](std::initializer_list<const char *> kinds) {
        std::vector<double> values;
        for (auto &[root, totals] : per_pass) {
            double sum = 0.0;
            for (const char *kind : kinds)
                sum += totals[kind];
            values.push_back(sum * 1e3);
        }
        return median(values);
    };
    metrics.set("gemstone.replay_validation_ms",
                pass_median_ms({"replay_validation"}), "ms");
    metrics.set("gemstone.replay_power_ms", pass_median_ms({"replay_power"}),
                "ms");
    metrics.set("gemstone.campaign_replay_ms",
                pass_median_ms({"replay_validation", "replay_power"}), "ms");
    metrics.set("gemstone.dataset_csv_ms", pass_median_ms({"dataset_csv"}),
                "ms");
    for (const char *kind :
         {"cluster_workloads", "correlate_pmc", "correlate_g5", "regress_pmc",
          "regress_g5", "compare_events", "power_energy", "dvfs_scaling"}) {
        metrics.set(std::string("gemstone.") + kind + "_ms",
                    pass_median_ms({kind}), "ms");
    }
    metrics.set("powmon.select_events_ms", pass_median_ms({"select_events"}),
                "ms");
    metrics.set("powmon.build_ms", pass_median_ms({"build"}), "ms");

    std::uint64_t lookups = last.storeDelta.hits + last.storeDelta.misses;
    metrics.set("exec.store_lookups", static_cast<double>(lookups), "count");
    metrics.set("exec.store_hit_ratio",
                lookups ? static_cast<double>(last.storeDelta.hits) / lookups
                        : 0.0,
                "ratio");
    metrics.set("exec.store_insertions",
                static_cast<double>(store->stats().insertions), "count");
    metrics.set("exec.store_evictions",
                static_cast<double>(store->stats().evictions), "count");

    double base = median(untraced);
    metrics.set("trace.overhead_pct", 100.0 * (median(traced) - base) / base,
                "%");
    metrics.set("trace.unattributed_pct", median(unattributed), "%");
    return ok;
}

} // namespace perfbench
