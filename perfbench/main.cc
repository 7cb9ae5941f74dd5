/**
 * @file
 * gs_perfbench: executes one generated plan (see run.py) and prints
 * its metrics as the last line of stdout.
 *
 * Every run is a user session of set-up, cold regeneration, warm
 * iteration and daemon traffic; the plan's pass and request counts
 * set how much of each the workload measures. Untraced runs report
 * the end-to-end metrics; traced runs (plan "trace 1") report the
 * per-layer metrics and write the spans as Chrome trace-event JSON.
 */

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "phases.hh"
#include "util/strutil.hh"
#include "workload/workload.hh"

using namespace perfbench;
using gemstone::formatDouble;

namespace {

/** Set-up state kept for the measured phases. */
struct Session
{
    std::shared_ptr<gemstone::exec::ResultStore> warmStore;
    std::unique_ptr<Daemon> daemon;
};

/**
 * One set-up: fill the warm store with the five campaigns, boot the
 * daemon and prewarm its store with the repeat specs.
 */
bool
setUp(const Plan &plan, unsigned index, Session &session)
{
    session.daemon.reset();
    session.warmStore = fillWarmStore(plan);
    session.daemon = std::make_unique<Daemon>(
        plan.tempDir + "/setup" + std::to_string(index));
    return session.warmStore && session.daemon->prewarm(plan);
}

void
reportTail(const std::string &name, const Tail &tail)
{
    std::cout << name << ": p" << formatDouble(tail.percentile, 1)
              << " of " << tail.samples << " samples\n";
}

/** One client-side time of the successful requests of a kind (or all). */
std::vector<double>
requestTimes(const ServeOutcome &outcome, double RequestSample::*field,
             int kind = -1)
{
    std::vector<double> out;
    for (const RequestSample &s : outcome.requests) {
        if (s.ok && (kind < 0 || static_cast<int>(s.kind) == kind))
            out.push_back(s.*field);
    }
    return out;
}

/** The end-to-end metrics of an untraced run. */
void
measureEndToEnd(const Plan &plan, Session &session, DigestBook &book,
                Metrics &metrics, std::uint64_t &attempted,
                std::uint64_t &failed)
{
    auto count = [&](bool ok) {
        ++attempted;
        failed += ok ? 0 : 1;
    };

    // Rounds interleave the phases, each with its share of the passes
    // and requests, so every phase samples the whole run: a host
    // slowdown of a few seconds hits a slice of each phase rather than
    // all of one.
    std::vector<double> cold_wall, cold_cpu, warm_ms;
    Accuracy accuracy;
    ServeOutcome served;
    const unsigned rounds = std::max(plan.coldPasses, 8u);
    auto share = [&](unsigned total, unsigned r) {
        return total * (r + 1) / rounds - total * r / rounds;
    };
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned i = share(plan.coldPasses, r); i > 0; --i) {
            ColdSample cold = coldPass(plan, book, accuracy);
            count(cold.ok);
            cold_wall.push_back(cold.wallSeconds);
            cold_cpu.push_back(cold.cpuSeconds);
        }
        for (unsigned i = share(plan.warmPasses, r); i > 0; --i) {
            WarmSample s = warmPass(plan, session.warmStore, book, nullptr);
            count(s.ok);
            warm_ms.push_back(s.wallSeconds * 1e3);
        }

        ServeOutcome part =
            runServeMix(plan, *session.daemon, nullptr, r, rounds);
        served.wallSeconds += part.wallSeconds;
        for (RequestSample &s : part.requests)
            served.requests.push_back(std::move(s));
    }
    checkServe(plan, *session.daemon, served, book);
    for (const RequestSample &s : served.requests)
        count(s.ok);
    std::vector<double> total = requestTimes(served, &RequestSample::totalMs);
    std::size_t ok_requests = total.size();

    metrics.set("cold_pass_s", median(cold_wall), "s");
    metrics.set("cold_pass_cpu_s", median(cold_cpu), "s");
    metrics.set("exec_mape_pct", accuracy.execMapePct, "%");
    metrics.set("energy_mape_pct", accuracy.energyMapePct, "%");
    metrics.set("warm_pass_ms", median(warm_ms), "ms");
    Tail warm_tail = tailOf(warm_ms);
    metrics.set("warm_pass_tail_ms", warm_tail.value, "ms");
    metrics.set("serve_p50_ms", median(total), "ms");
    Tail serve_tail = tailOf(total);
    metrics.set("serve_tail_ms", serve_tail.value, "ms");
    metrics.set("serve_first_point_p50_ms",
                median(requestTimes(served, &RequestSample::firstPointMs)),
                "ms");
    metrics.set("serve_req_per_s", ok_requests / served.wallSeconds, "1/s");
    reportTail("warm_pass_tail_ms", warm_tail);
    reportTail("serve_tail_ms", serve_tail);
    for (auto kind : {RequestPlan::Kind::Repeat, RequestPlan::Kind::Fresh,
                      RequestPlan::Kind::Durable}) {
        std::vector<double> ms = requestTimes(
            served, &RequestSample::totalMs, static_cast<int>(kind));
        std::cout << "serve " << requestKindName(kind) << ": " << ms.size()
                  << " requests, p50 " << formatDouble(median(ms), 1)
                  << " ms, p90 " << formatDouble(percentile(ms, 90.0), 1)
                  << " ms\n";
    }
    std::cout << "cold passes (s):";
    for (double s : cold_wall)
        std::cout << " " << formatDouble(s, 3);
    std::cout << "\n";
}

/** The per-layer metrics of a traced run. */
void
measureLayers(const Plan &plan, Session &session, DigestBook &book,
              Metrics &metrics, std::uint64_t &attempted,
              std::uint64_t &failed)
{
    auto count = [&](bool ok) {
        ++attempted;
        failed += ok ? 0 : 1;
    };
    Tracer tracer;

    count(stagedColdPass(plan, tracer, metrics, book));

    // Parallel efficiency and the predecode cache, from one untraced
    // cold pass at jobs = nproc.
    Accuracy accuracy;
    ColdSample cold = coldPass(plan, book, accuracy);
    count(cold.ok);
    double capacity = cold.wallSeconds * plan.jobs;
    metrics.set("isa.predecode_hits", static_cast<double>(cold.predecodeHits),
                "count");
    metrics.set("isa.predecode_misses",
                static_cast<double>(cold.predecodeMisses), "count");
    metrics.set("exec.cpu_util", cold.cpuSeconds / capacity, "ratio");
    metrics.set("exec.idle_core_s", capacity - cold.cpuSeconds, "s");

    count(tracedWarmPasses(plan, session.warmStore, tracer, metrics, book));

    ServeOutcome served = runServeMix(plan, *session.daemon, &tracer);
    checkServe(plan, *session.daemon, served, book);
    for (const RequestSample &s : served.requests)
        count(s.ok);
    auto p50 = [&](double RequestSample::*field, int kind = -1) {
        return median(requestTimes(served, field, kind));
    };
    metrics.set("serve.accept_ms_p50", p50(&RequestSample::acceptMs), "ms");
    metrics.set("serve.wait_first_point_ms_p50",
                p50(&RequestSample::firstPointMs), "ms");
    metrics.set("serve.stream_ms_p50", p50(&RequestSample::streamMs), "ms");
    for (auto kind : {RequestPlan::Kind::Repeat, RequestPlan::Kind::Fresh,
                      RequestPlan::Kind::Durable}) {
        metrics.set(std::string("serve.") + requestKindName(kind) + "_p50_ms",
                    p50(&RequestSample::totalMs, static_cast<int>(kind)),
                    "ms");
    }
    const gemstone::serve::DaemonStats &a = served.after, &b = served.before;
    metrics.set("serve.rejected",
                static_cast<double>(a.requestsRejected - b.requestsRejected),
                "count");
    double hits = static_cast<double>(a.storeHits - b.storeHits);
    double lookups = hits + static_cast<double>(a.storeMisses - b.storeMisses);
    metrics.set("serve.store_hit_ratio", lookups ? hits / lookups : 0.0,
                "ratio");
    // Journal cost: durable minus plain repeats of the same specs.
    std::set<std::size_t> durable_specs;
    std::vector<double> durable_ms, repeat_ms;
    for (const auto &list : plan.clients) {
        for (const RequestPlan &r : list) {
            if (r.kind == RequestPlan::Kind::Durable)
                durable_specs.insert(r.prewarmIndex);
        }
    }
    for (const RequestSample &s : served.requests) {
        const RequestPlan &r = plan.clients[s.client][s.index];
        if (!s.ok || !durable_specs.count(r.prewarmIndex))
            continue;
        if (r.kind == RequestPlan::Kind::Durable)
            durable_ms.push_back(s.totalMs);
        else if (r.kind == RequestPlan::Kind::Repeat)
            repeat_ms.push_back(s.totalMs);
    }
    metrics.set("util.journal_extra_ms",
                median(durable_ms) - median(repeat_ms), "ms");

    // Raw span nesting: a measureHw span's base run is its own self
    // time here; hwsim.measure_self_s subtracts the matching uarch run.
    std::cout << "span self time by layer (s, summed over threads):";
    for (const auto &[layer, seconds] : tracer.selfByLayer())
        std::cout << " " << layer << "=" << formatDouble(seconds, 3);
    std::cout << "\n";
    if (!plan.traceOut.empty() && !tracer.writeChrome(plan.traceOut))
        std::cerr << "perfbench: cannot write " << plan.traceOut << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc == 2 && std::string(argv[1]) == "--list-workloads") {
        for (const gemstone::workload::Workload &w :
             gemstone::workload::Suite::all())
            std::cout << w.name << "\n";
        return 0;
    }
    if (argc == 2 && std::string(argv[1]) == "--admission-limit") {
        // Requests the daemon admits at once by default (running plus
        // waiting); a submit beyond them is rejected with queue_full.
        gemstone::serve::Server::Config defaults;
        std::cout << defaults.maxActive + defaults.queueDepth << "\n";
        return 0;
    }
    if (argc != 3 || std::string(argv[1]) != "--plan") {
        std::cerr << "usage: " << argv[0]
                  << " --plan FILE | --list-workloads | --admission-limit\n";
        return 2;
    }
    Plan plan = loadPlan(argv[2]);
    std::filesystem::create_directories(plan.tempDir);
    DigestBook book(plan.digestsPath, plan.writeDigests);
    Metrics metrics;
    std::uint64_t attempted = 0, failed = 0;

    Session session;
    std::vector<double> setups;
    for (unsigned i = 0; i < plan.setups; ++i) {
        double t0 = nowSeconds();
        bool ok = setUp(plan, i, session);
        setups.push_back(nowSeconds() - t0);
        ++attempted;
        failed += ok ? 0 : 1;
    }
    if (failed) {
        std::cerr << "perfbench: set-up failed; nothing measured\n";
        return 1;
    }

    if (plan.trace) {
        measureLayers(plan, session, book, metrics, attempted, failed);
    } else {
        metrics.set("setup_s", median(setups), "s");
        measureEndToEnd(plan, session, book, metrics, attempted, failed);
    }
    session.daemon.reset();
    if (!plan.trace)
        metrics.set("peak_rss_mb", peakRssMb(), "MB");

    bool correct = book.mismatches() == 0 && failed == 0;
    if (plan.writeDigests)
        correct = correct && book.save();
    std::cout << "digests checked: " << book.checked() << ", mismatches: "
              << book.mismatches() << "\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics.json() << "}" << std::endl;
    return correct ? 0 : 1;
}
