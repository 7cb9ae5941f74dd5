/**
 * @file
 * cold_reproduce: the artefact-regeneration pass from a cold start,
 * and its stage-by-stage traced counterpart.
 */

#include <algorithm>
#include <set>

#include "g5/config.hh"
#include "gemstone/runner.hh"
#include "isa/predecode.hh"
#include "phases.hh"
#include "uarch/system.hh"
#include "workload/workload.hh"

namespace perfbench {

using namespace gemstone;

ColdSample
coldPass(const Plan &plan, DigestBook &book, Accuracy &accuracy)
{
    ColdSample sample;
    isa::PredecodeCacheStats before = isa::predecodeCacheStats();
    double cpu0 = processCpuSeconds();
    double t0 = nowSeconds();
    CampaignData data = runCampaigns(plan.coldOrder, nullptr, plan.jobs,
                                     nullptr);
    AnalysisResults results = runAnalyses(data, plan.jobs, nullptr);
    sample.wallSeconds = nowSeconds() - t0;
    sample.cpuSeconds = processCpuSeconds() - cpu0;
    isa::PredecodeCacheStats after = isa::predecodeCacheStats();
    sample.predecodeHits = after.hits - before.hits;
    sample.predecodeMisses = after.misses - before.misses;
    sample.ok = checkPass(data, results, book, accuracy);
    return sample;
}

namespace {

/**
 * Times uarch::ClusterModel::runInto once per distinct (config,
 * workload) of the pass: the true A15/A7 configs (hwsim reuses one
 * warm model per shape, and so does this stage) and the ex5 configs
 * of each g5 version (g5 builds a fresh model per base run).
 */
class UarchStage
{
  public:
    explicit UarchStage(Tracer &tracer) : tracer(tracer) {}

    /** Run the base run behind a hw (or g5) call, timed. */
    void run(const workload::Workload &work, bool hw,
             hwsim::CpuCluster cluster, int g5_version)
    {
        g5::G5Model model = core::ExperimentRunner::modelFor(cluster);
        uarch::ClusterConfig config = hw
            ? (cluster == hwsim::CpuCluster::LittleA7
                   ? hwsim::trueLittleConfig()
                   : hwsim::trueBigConfig())
            : g5::ex5Config(model, g5_version);
        config.memBytes =
            std::max<std::uint64_t>(work.memBytes, 64 * 1024);
        std::string tag = hw ? hwsim::clusterTag(cluster)
                             : g5::modelTag(model) + "-v" +
                std::to_string(g5_version);

        Span span(&tracer, "runInto " + tag, "uarch");
        std::unique_ptr<uarch::ClusterModel> fresh;
        uarch::ClusterModel *target = nullptr;
        if (hw) {
            auto &slot = pool[{tag, config.memBytes}];
            if (slot) {
                slot->reset();
                slot->memory().clear();
            } else {
                slot = std::make_unique<uarch::ClusterModel>(config);
            }
            target = slot.get();
        } else {
            fresh = std::make_unique<uarch::ClusterModel>(config);
            target = fresh.get();
        }
        work.prepareMemory(target->memory());
        target->runInto(work.program, work.numThreads, 1.0, result);
        (hw ? hwBusy : g5Busy) += span.stop();
        instructions += static_cast<double>(result.instructions);
        ++runs;
    }

    double busy(bool hw) const { return hw ? hwBusy : g5Busy; }

    void report(Metrics &metrics) const
    {
        double busy = hwBusy + g5Busy;
        metrics.set("uarch.runs", static_cast<double>(runs), "count");
        metrics.set("uarch.busy_s", busy, "s");
        metrics.set("uarch.minst_per_s", instructions / busy / 1e6,
                    "Minst/s");
    }

  private:
    Tracer &tracer;
    std::map<std::pair<std::string, std::uint64_t>,
             std::unique_ptr<uarch::ClusterModel>>
        pool;
    uarch::RunResult result;
    double hwBusy = 0.0;
    double g5Busy = 0.0;
    double instructions = 0.0;
    std::size_t runs = 0;
};

/** Per-call accounting of one simulator-facing layer. */
struct CallLedger
{
    std::size_t calls = 0;
    double total = 0.0;
    std::vector<double> warmUs;
    /** Base runs done: hw per (cluster, workload), g5 per (version,
     *  cluster, workload) — store keys share hw results across g5
     *  versions, so each base run happens on its first call. */
    std::set<std::string> based;
};

/**
 * Every measureHw/runG5 call of the pass, one at a time, on fresh
 * runners sharing a fresh store, workloads in plan order. Next to
 * the call that carries a base run, the uarch stage times the same
 * run, so self time = total - matching uarch time compares runs made
 * in the same machine state. Returns the filled store.
 */
std::shared_ptr<exec::ResultStore>
pointStage(const Plan &plan, Tracer &tracer, Metrics &metrics)
{
    auto store = std::make_shared<exec::ResultStore>();
    core::RunnerConfig v1;
    core::RunnerConfig v2 = v1;
    v2.g5Version = 2;
    core::ExperimentRunner runner_v1(v1), runner_v2(v2);
    runner_v1.attachResultStore(store);
    runner_v2.attachResultStore(store);

    std::set<std::string> validation;
    for (const workload::Workload *w : workload::Suite::validationSet())
        validation.insert(w->name);

    UarchStage uarch_stage(tracer);
    CallLedger hw, g5;
    auto timed = [&](CallLedger &ledger, const std::string &key,
                     const char *layer, const char *name, auto &&base_run,
                     auto &&call) {
        bool first = ledger.based.insert(key).second;
        // Whichever of the pair runs second finds the program hot in
        // the host caches; alternating the order cancels that bias.
        bool uarch_first = ledger.based.size() % 2 == 0;
        if (first && uarch_first)
            base_run();
        std::uint64_t misses = store->stats().misses;
        Span span(&tracer, name, layer);
        call();
        double seconds = span.stop();
        if (first && !uarch_first)
            base_run();
        ++ledger.calls;
        ledger.total += seconds;
        if (!first && store->stats().misses != misses)
            ledger.warmUs.push_back(seconds * 1e6);
    };

    for (const CampaignId &c : plan.coldOrder) {
        core::ExperimentRunner &runner =
            c.g5Version == 2 ? runner_v2 : runner_v1;
        std::string tag = hwsim::clusterTag(c.cluster) + "|";
        Span campaign(&tracer, "points " + c.id, "gemstone");
        for (const std::string &name : plan.stageWorkloads) {
            if (c.validation && !validation.count(name))
                continue;
            const workload::Workload &work = workload::Suite::byName(name);
            for (double freq :
                 core::ExperimentRunner::frequenciesFor(c.cluster)) {
                timed(
                    hw, tag + name, "hwsim", "measureHw",
                    [&] { uarch_stage.run(work, true, c.cluster, 1); },
                    [&] { runner.measureHw(work, c.cluster, freq, 0); });
                if (!c.validation)
                    continue;
                timed(
                    g5, std::to_string(c.g5Version) + tag + name, "g5",
                    "runG5",
                    [&] {
                        uarch_stage.run(work, false, c.cluster,
                                        c.g5Version);
                    },
                    [&] { runner.runG5(work, c.cluster, freq); });
            }
        }
    }

    uarch_stage.report(metrics);
    metrics.set("hwsim.measure_calls", static_cast<double>(hw.calls),
                "count");
    metrics.set("hwsim.measure_self_s", hw.total - uarch_stage.busy(true),
                "s");
    metrics.set("hwsim.measure_warm_us_p50", median(hw.warmUs), "us");
    metrics.set("g5.run_calls", static_cast<double>(g5.calls), "count");
    metrics.set("g5.run_self_s", g5.total - uarch_stage.busy(false), "s");
    metrics.set("g5.run_warm_us_p50", median(g5.warmUs), "us");
    return store;
}

} // namespace

bool
stagedColdPass(const Plan &plan, Tracer &tracer, Metrics &metrics,
               DigestBook &book)
{
    Span pass(&tracer, "staged_cold_pass", "bench");
    std::shared_ptr<exec::ResultStore> store =
        pointStage(plan, tracer, metrics);

    // Stage 3: the campaign calls replaying from that store (exec and
    // gemstone self time), then stage 4: the analyses, all at jobs=1.
    CampaignData data = runCampaigns(plan.coldOrder, store, 1, &tracer);
    AnalysisResults results = runAnalyses(data, 1, &tracer);
    pass.stop();
    Accuracy accuracy;
    return checkPass(data, results, book, accuracy);
}

} // namespace perfbench
