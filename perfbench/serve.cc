/**
 * @file
 * serve_mix: a closed loop of client connections driving an
 * in-process gemstoned over a Unix socket.
 */

#include <algorithm>
#include <filesystem>

#include "phases.hh"
#include "serve/client.hh"
#include "serve/service.hh"
#include "util/logging.hh"

namespace perfbench {

using namespace gemstone;

serve::CampaignSpec
specFor(const Plan &plan, const RequestPlan &request)
{
    const RequestPlan &fields = request.kind == RequestPlan::Kind::Fresh
        ? request
        : plan.prewarm.at(request.prewarmIndex);
    serve::CampaignSpec spec;
    spec.cluster = fields.cluster;
    spec.g5Version = fields.g5Version;
    spec.seed = fields.seed;
    spec.maxPoints = fields.maxPoints;
    spec.freqsMhz = fields.freqsMhz;
    spec.jobs = plan.jobs;
    spec.durable = request.kind == RequestPlan::Kind::Durable;
    return spec;
}

Daemon::Daemon(const std::string &dir)
    : directory(dir), socket(dir + "/d.sock")
{
    std::filesystem::create_directories(dir + "/journal");
    serve::Server::Config config;
    config.socketPath = socket;
    config.journalDir = dir + "/journal";
    daemon = std::make_unique<serve::Server>(config);
    Status started = daemon->start();
    fatal_if(!started.ok(), "gemstoned start failed: ", started.message());
    loop = std::thread([this] {
        try {
            Status done = daemon->run();
            fatal_if(!done.ok(), "gemstoned loop failed: ", done.message());
        } catch (const std::exception &e) {
            fatal("gemstoned loop threw: ", e.what());
        }
    });
}

Daemon::~Daemon()
{
    daemon->requestDrain();
    loop.join();
    daemon.reset();
    std::filesystem::remove_all(directory);
}

bool
Daemon::prewarm(const Plan &plan)
{
    prewarmBytes.assign(plan.prewarm.size(), std::string());
    std::vector<char> ok(plan.prewarm.size(), 0);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < plan.prewarm.size(); ++i) {
        threads.emplace_back([&, i] {
            serve::Client client;
            serve::Client::SubmitResult result;
            RequestPlan request;
            request.prewarmIndex = i;
            if (client.connectUnix(socket).ok() &&
                client.submit(specFor(plan, request), result).ok() &&
                result.accepted &&
                result.summary.outcome == serve::RequestOutcome::Ok) {
                prewarmBytes[i] = result.summary.datasetCsv;
                ok[i] = 1;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    return std::all_of(ok.begin(), ok.end(), [](char c) { return c; });
}

namespace {

/** Client-side spans of one request: submit -> Accepted -> first
 *  PointResult -> Summary. */
void
runOneRequest(const Plan &plan, serve::Client &client,
              const RequestPlan &request, RequestSample &sample,
              Tracer *tracer, std::uint64_t request_id)
{
    serve::CampaignSpec spec = specFor(plan, request);
    // A unique tag keeps durable specs from coalescing onto each other.
    spec.tag = "perfbench-" + std::to_string(request_id);
    const std::string kind = requestKindName(request.kind);

    std::size_t root = 0, phase = 0;
    if (tracer) {
        root = tracer->open("request " + kind, "serve", request_id);
        phase = tracer->open("accept", "serve", request_id);
    }
    double t0 = nowSeconds();
    bool got_point = false;
    serve::Client::Callbacks callbacks;
    callbacks.onAccepted = [&](const serve::Accepted &) {
        sample.acceptMs = (nowSeconds() - t0) * 1e3;
        if (tracer) {
            tracer->close(phase);
            phase = tracer->open("wait_first_point", "serve", request_id);
        }
    };
    callbacks.onPoint = [&](const serve::PointUpdate &) {
        if (got_point)
            return;
        got_point = true;
        sample.firstPointMs = (nowSeconds() - t0) * 1e3;
        if (tracer) {
            tracer->close(phase);
            phase = tracer->open("stream", "serve", request_id);
        }
    };
    serve::Client::SubmitResult result;
    Status status = client.submit(spec, result, callbacks);
    sample.totalMs = (nowSeconds() - t0) * 1e3;
    if (tracer) {
        tracer->close(phase);
        tracer->close(root);
    }
    sample.streamMs = sample.totalMs - sample.firstPointMs;
    sample.ok = status.ok() && result.accepted && got_point &&
        result.summary.outcome == serve::RequestOutcome::Ok;
    sample.datasetCsv = std::move(result.summary.datasetCsv);
}

} // namespace

ServeOutcome
runServeMix(const Plan &plan, Daemon &daemon, Tracer *tracer,
            std::size_t round, std::size_t rounds)
{
    ServeOutcome outcome;
    std::vector<std::vector<RequestSample>> per_client(plan.clients.size());
    outcome.before = daemon.server().statsSnapshot();
    double t0 = nowSeconds();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < plan.clients.size(); ++c) {
        threads.emplace_back([&, c] {
            serve::Client client;
            bool connected = client.connectUnix(daemon.socketPath()).ok();
            std::size_t n = plan.clients[c].size();
            for (std::size_t i = n * round / rounds;
                 i < n * (round + 1) / rounds; ++i) {
                RequestSample sample;
                sample.kind = plan.clients[c][i].kind;
                sample.client = c;
                sample.index = i;
                if (connected) {
                    runOneRequest(plan, client, plan.clients[c][i], sample,
                                  tracer, (c + 1) * 1000000 + i);
                }
                per_client[c].push_back(std::move(sample));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    outcome.wallSeconds = nowSeconds() - t0;
    outcome.after = daemon.server().statsSnapshot();
    for (auto &samples : per_client) {
        for (RequestSample &s : samples)
            outcome.requests.push_back(std::move(s));
    }
    return outcome;
}

bool
checkServe(const Plan &plan, const Daemon &daemon, ServeOutcome &outcome,
           DigestBook &book)
{
    auto in_process = [&](const RequestPlan &request) {
        RequestPlan plain = request;
        if (plain.kind == RequestPlan::Kind::Durable)
            plain.kind = RequestPlan::Kind::Repeat;
        return serve::runCampaign(specFor(plan, plain), nullptr,
                                  core::CampaignConfig::PointSink(),
                                  CancellationToken())
            .datasetCsv;
    };

    // The prewarm specs are fixed, so their in-process bytes are pinned
    // by committed digests (recomputed when the digests are rewritten);
    // served bytes must match those digests.
    bool ok = true;
    std::vector<std::string> expected;
    for (std::size_t i = 0; i < plan.prewarm.size(); ++i) {
        std::string key = "serve.prewarm" + std::to_string(i);
        if (plan.writeDigests) {
            RequestPlan request;
            request.prewarmIndex = i;
            ok &= book.check(key, in_process(request));
        }
        ok &= book.check(key, daemon.prewarmCsv()[i]);
        expected.push_back(daemon.prewarmCsv()[i]);
    }
    for (RequestSample &sample : outcome.requests) {
        if (!sample.ok)
            continue;
        const RequestPlan &request = plan.clients[sample.client][sample.index];
        std::string what = std::string("served ") +
            requestKindName(sample.kind) + " request " +
            std::to_string(sample.client) + "/" +
            std::to_string(sample.index);
        sample.ok = request.kind == RequestPlan::Kind::Fresh
            ? book.same(what, sample.datasetCsv, in_process(request))
            : book.same(what, sample.datasetCsv,
                        expected[request.prewarmIndex]);
        ok &= sample.ok;
    }
    return ok;
}

} // namespace perfbench
