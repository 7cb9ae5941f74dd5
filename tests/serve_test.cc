/**
 * @file
 * Integration tests for the gemstoned campaign service (src/serve/).
 *
 * Each test boots a real Server on a private Unix-domain socket with
 * the event loop on a background thread, and talks to it over actual
 * sockets — the Client class for well-formed exchanges, a RawConn for
 * pipelining, torn input and protocol-error paths. The invariants
 * under test are the ones DESIGN.md §15 promises: daemon-served
 * campaigns are byte-identical to one-shot runs, repeated requests
 * are served from the shared result store, a client disconnect
 * cancels exactly its own work, admission control rejects overload,
 * scheduling is round-robin fair across connections, and SIGTERM
 * drains gracefully with no orphaned socket.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <errno.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/wireproto.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"
#include "util/signals.hh"

using namespace gemstone;

namespace {

/** A short-lived per-test socket path under /tmp (sun_path limit). */
std::string
freshSocketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/gs_serve_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A campaign small enough to finish in tens of milliseconds. */
serve::CampaignSpec
smallSpec(std::uint64_t seed = 1)
{
    serve::CampaignSpec spec;
    spec.cluster = hwsim::CpuCluster::LittleA7;
    spec.freqsMhz = {1000.0};
    spec.maxPoints = 4;
    spec.repeats = 2;
    spec.quorum = 1;
    spec.seed = seed;
    return spec;
}

/** The full A7 campaign: long enough (~1s) to cancel mid-flight. */
serve::CampaignSpec
longSpec(std::uint64_t seed = 1)
{
    serve::CampaignSpec spec;
    spec.cluster = hwsim::CpuCluster::LittleA7;
    spec.repeats = 2;
    spec.quorum = 1;
    spec.seed = seed;
    return spec;
}

/** Expected dataset bytes: the same single entry point the daemon
 *  uses, run one-shot with a private store. */
std::string
referenceCsv(const serve::CampaignSpec &spec)
{
    auto store = std::make_shared<exec::ResultStore>();
    serve::CampaignOutcome outcome = serve::runCampaign(
        spec, store, core::CampaignConfig::PointSink(),
        CancellationToken());
    EXPECT_EQ(outcome.outcome, serve::RequestOutcome::Ok);
    return outcome.datasetCsv;
}

/**
 * Raw frame-level connection: what Client does, minus the manners.
 * Lets tests pipeline several submits on one connection, hang up
 * mid-stream, and send hostile bytes.
 */
struct RawConn
{
    int fd = -1;
    exec::FrameDecoder decoder;

    ~RawConn() { close(); }

    void
    connectUnix(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        struct sockaddr_un addr;
        std::memset(&addr, 0, sizeof(addr));
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        ASSERT_EQ(::connect(
                      fd, reinterpret_cast<struct sockaddr *>(&addr),
                      sizeof(addr)),
                  0)
            << std::strerror(errno);
    }

    bool
    send(exec::FrameType type, const std::string &payload)
    {
        return exec::writeFrame(fd, type, payload);
    }

    /** Raw bytes, bypassing the framing layer entirely. */
    bool
    sendBytes(const std::string &bytes)
    {
        return ::write(fd, bytes.data(), bytes.size()) ==
               static_cast<ssize_t>(bytes.size());
    }

    /** Blocking read of one frame; false on EOF/error. */
    bool
    read(exec::Frame &out)
    {
        for (;;) {
            if (decoder.corrupt())
                return false;
            if (decoder.next(out))
                return true;
            char buffer[16384];
            ssize_t n = ::read(fd, buffer, sizeof(buffer));
            if (n > 0) {
                decoder.feed(buffer, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
    }

    /** Read frames until one of @p type arrives (skipping others). */
    bool
    readUntil(exec::FrameType type, exec::Frame &out)
    {
        while (read(out)) {
            if (out.type == type)
                return true;
        }
        return false;
    }

    void
    close()
    {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
};

/** In-process daemon: Server + event loop on a background thread. */
class DaemonFixture
{
  public:
    serve::Server::Config config;
    std::unique_ptr<serve::Server> server;
    std::string socketPath;
    Status runStatus = Status::okStatus();

    DaemonFixture()
    {
        socketPath = freshSocketPath();
        config.socketPath = socketPath;
        // Same policy as gemstoned: a fatal() deep in a request is a
        // request error, not a daemon death.
        setFatalThrows(true);
    }

    ~DaemonFixture()
    {
        stop();
        setFatalThrows(false);
    }

    void
    start()
    {
        server = std::make_unique<serve::Server>(config);
        Status started = server->start();
        ASSERT_TRUE(started.ok()) << started.toString();
        loop = std::thread([this] { runStatus = server->run(); });
    }

    /** Graceful drain; asserts the loop exits cleanly. */
    void
    stop()
    {
        if (!loop.joinable())
            return;
        server->requestDrain();
        loop.join();
        EXPECT_TRUE(runStatus.ok()) << runStatus.toString();
    }

  private:
    std::thread loop;
};

/** Spin until @p predicate or ~2s; true when it held. */
template <typename Predicate>
bool
eventually(Predicate predicate)
{
    for (int i = 0; i < 400; ++i) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

TEST(ServeTest, ConcurrentClientsByteIdenticalToOneShot)
{
    constexpr int kClients = 4;
    std::vector<serve::CampaignSpec> specs;
    std::vector<std::string> expected;
    for (int i = 0; i < kClients; ++i) {
        specs.push_back(smallSpec(100 + i));
        expected.push_back(referenceCsv(specs.back()));
        ASSERT_FALSE(expected.back().empty());
    }

    DaemonFixture daemon;
    daemon.config.maxActive = kClients;
    daemon.start();

    std::vector<serve::Client::SubmitResult> results(kClients);
    std::vector<Status> statuses(kClients, Status::okStatus());
    std::vector<int> points(kClients, 0);
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
        clients.emplace_back([&, i] {
            serve::Client client;
            Status connected = client.connectUnix(daemon.socketPath);
            if (!connected.ok()) {
                statuses[i] = connected;
                return;
            }
            serve::Client::Callbacks callbacks;
            callbacks.onPoint = [&, i](const serve::PointUpdate &) {
                ++points[i];
            };
            statuses[i] =
                client.submit(specs[i], results[i], callbacks);
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int i = 0; i < kClients; ++i) {
        ASSERT_TRUE(statuses[i].ok()) << statuses[i].toString();
        ASSERT_TRUE(results[i].accepted);
        EXPECT_EQ(results[i].summary.outcome,
                  serve::RequestOutcome::Ok);
        // The load-bearing claim: daemon-served bytes are identical
        // to a one-shot run of the same spec.
        EXPECT_EQ(results[i].summary.datasetCsv, expected[i]);
        // Every settled point was streamed before the summary.
        EXPECT_EQ(points[i],
                  static_cast<int>(results[i].summary.measuredPoints));
    }
    daemon.stop();
}

TEST(ServeTest, BatchedSubmitDemuxesPerSpecByteIdentically)
{
    // Three specs pipelined over ONE connection, plus one invalid
    // spec wedged into the middle: the in-order admission mapping
    // must bind the rejection to the right slot, and every accepted
    // spec's daemon-served bytes must equal a one-shot run of the
    // same campaign.
    std::vector<serve::CampaignSpec> specs;
    std::vector<std::string> expected;
    for (int i = 0; i < 3; ++i) {
        specs.push_back(smallSpec(300 + i));
        expected.push_back(referenceCsv(specs.back()));
        ASSERT_FALSE(expected.back().empty());
    }
    serve::CampaignSpec bad = smallSpec(999);
    bad.quorum = 0;
    specs.insert(specs.begin() + 1, bad);
    expected.insert(expected.begin() + 1, "");

    DaemonFixture daemon;
    daemon.start();

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());

    std::vector<int> points(specs.size(), 0);
    serve::Client::BatchCallbacks callbacks;
    callbacks.onPoint = [&](std::size_t idx,
                            const serve::PointUpdate &) {
        ++points[idx];
    };
    std::vector<serve::Client::SubmitResult> results;
    Status status = client.submitMany(specs, results, callbacks);
    ASSERT_TRUE(status.ok()) << status.toString();
    ASSERT_EQ(results.size(), specs.size());

    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (i == 1) {
            EXPECT_FALSE(results[i].accepted);
            EXPECT_EQ(results[i].rejection.reason,
                      serve::RejectReason::BadRequest);
            EXPECT_EQ(points[i], 0);
            continue;
        }
        ASSERT_TRUE(results[i].accepted) << "spec " << i;
        EXPECT_EQ(results[i].summary.outcome,
                  serve::RequestOutcome::Ok);
        EXPECT_EQ(results[i].summary.datasetCsv, expected[i]);
        EXPECT_EQ(points[i],
                  static_cast<int>(results[i].summary.measuredPoints));
    }

    // The campaigns predecoded programs in this process, so the
    // daemon's predecode-cache counters must have moved.
    serve::DaemonStats stats;
    ASSERT_TRUE(client.queryStats(stats).ok());
    EXPECT_GT(stats.predecodeHits + stats.predecodeMisses, 0u);
    EXPECT_GE(stats.predecodeInserts, 1u);
    daemon.stop();
}

TEST(ServeTest, RepeatedRequestServedFromSharedStore)
{
    DaemonFixture daemon;
    daemon.start();

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());

    serve::Client::SubmitResult first;
    ASSERT_TRUE(client.submit(smallSpec(7), first).ok());
    ASSERT_TRUE(first.accepted);
    ASSERT_EQ(first.summary.outcome, serve::RequestOutcome::Ok);
    serve::DaemonStats after_first;
    ASSERT_TRUE(client.queryStats(after_first).ok());
    EXPECT_GT(after_first.storeInsertions, 0u);

    serve::Client::SubmitResult second;
    ASSERT_TRUE(client.submit(smallSpec(7), second).ok());
    ASSERT_TRUE(second.accepted);
    serve::DaemonStats after_second;
    ASSERT_TRUE(client.queryStats(after_second).ok());

    // Identical replay, no re-simulation: everything the repeat
    // needed came out of the shared store.
    EXPECT_EQ(second.summary.datasetCsv, first.summary.datasetCsv);
    EXPECT_EQ(after_second.storeInsertions,
              after_first.storeInsertions);
    EXPECT_GE(after_second.storeHits,
              after_first.storeHits + after_first.storeInsertions);
    daemon.stop();
}

TEST(ServeTest, DisconnectCancelsOnlyThatRequest)
{
    DaemonFixture daemon;
    daemon.config.maxActive = 2;
    daemon.start();

    // A submits the long campaign and hangs up right after Accepted.
    RawConn dropper;
    dropper.connectUnix(daemon.socketPath);
    ASSERT_TRUE(dropper.send(exec::FrameType::SubmitCampaign,
                             serve::encodeCampaignSpec(longSpec())));
    exec::Frame frame;
    ASSERT_TRUE(dropper.readUntil(exec::FrameType::Accepted, frame));
    dropper.close();

    // B's request on the other slot is unaffected.
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(smallSpec(), result).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);

    // The dropped request is reaped as cancelled, not served/failed.
    EXPECT_TRUE(eventually([&] {
        serve::DaemonStats stats = daemon.server->statsSnapshot();
        return stats.requestsCancelled == 1 &&
               stats.requestsServed == 1;
    }));
    EXPECT_EQ(daemon.server->statsSnapshot().requestsFailed, 0u);
    daemon.stop();
}

TEST(ServeTest, CancellingQueuedRequestSettlesImmediately)
{
    DaemonFixture daemon;
    daemon.config.maxActive = 1;
    daemon.config.queueDepth = 4;
    daemon.start();

    RawConn busy;
    busy.connectUnix(daemon.socketPath);
    ASSERT_TRUE(busy.send(exec::FrameType::SubmitCampaign,
                          serve::encodeCampaignSpec(longSpec())));
    exec::Frame frame;
    ASSERT_TRUE(busy.readUntil(exec::FrameType::Accepted, frame));

    // Second request queues behind the long one; cancel it while it
    // waits — it must settle as Cancelled without ever running.
    RawConn waiter;
    waiter.connectUnix(daemon.socketPath);
    ASSERT_TRUE(waiter.send(exec::FrameType::SubmitCampaign,
                            serve::encodeCampaignSpec(smallSpec())));
    ASSERT_TRUE(waiter.readUntil(exec::FrameType::Accepted, frame));
    exec::WireReader reader(frame.payload);
    std::uint64_t queued_id = reader.u64();

    exec::WireWriter writer;
    writer.u64(queued_id);
    ASSERT_TRUE(
        waiter.send(exec::FrameType::CancelRequest, writer.take()));
    ASSERT_TRUE(waiter.readUntil(exec::FrameType::Summary, frame));
    serve::Summary summary;
    ASSERT_TRUE(serve::decodeSummary(frame.payload, summary));
    EXPECT_EQ(summary.requestId, queued_id);
    EXPECT_EQ(summary.outcome, serve::RequestOutcome::Cancelled);
    EXPECT_EQ(summary.measuredPoints, 0u);

    // Unblock the daemon: drop the long request too.
    busy.close();
    waiter.close();
    EXPECT_TRUE(eventually([&] {
        return daemon.server->statsSnapshot().requestsActive == 0;
    }));
    daemon.stop();
}

TEST(ServeTest, AdmissionControlRejectsWhenSaturated)
{
    DaemonFixture daemon;
    daemon.config.maxActive = 1;
    daemon.config.queueDepth = 0;
    daemon.start();

    RawConn busy;
    busy.connectUnix(daemon.socketPath);
    ASSERT_TRUE(busy.send(exec::FrameType::SubmitCampaign,
                          serve::encodeCampaignSpec(longSpec())));
    exec::Frame frame;
    ASSERT_TRUE(busy.readUntil(exec::FrameType::Accepted, frame));

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(smallSpec(), result).ok());
    EXPECT_FALSE(result.accepted);
    EXPECT_EQ(result.rejection.reason,
              serve::RejectReason::QueueFull);
    EXPECT_EQ(daemon.server->statsSnapshot().requestsRejected, 1u);

    busy.close();
    daemon.stop();
}

TEST(ServeTest, RoundRobinIsFairAcrossConnections)
{
    DaemonFixture daemon;
    daemon.config.maxActive = 1;
    daemon.config.queueDepth = 8;
    daemon.start();

    // Connection A pipelines three campaigns...
    RawConn pipeliner;
    pipeliner.connectUnix(daemon.socketPath);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        ASSERT_TRUE(
            pipeliner.send(exec::FrameType::SubmitCampaign,
                           serve::encodeCampaignSpec(smallSpec(seed))));
    }
    exec::Frame frame;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(
            pipeliner.readUntil(exec::FrameType::Accepted, frame));

    // ...then connection B submits one. Round-robin hands B the slot
    // after A's *first* campaign, so B's summary returns while A
    // still has work queued. FIFO-by-submit-order would serve B last.
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(smallSpec(99), result).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_LE(daemon.server->statsSnapshot().requestsServed, 2u);

    // Let A's remaining campaigns finish and flush.
    int summaries = 0;
    while (summaries < 3 &&
           pipeliner.readUntil(exec::FrameType::Summary, frame))
        ++summaries;
    EXPECT_EQ(summaries, 3);
    pipeliner.close();
    daemon.stop();
}

TEST(ServeTest, PerRequestDeadlineReportsDeadlineOutcome)
{
    DaemonFixture daemon;
    daemon.start();

    serve::CampaignSpec spec = longSpec();
    spec.deadlineSeconds = 0.05;

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(spec, result).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Deadline);
    daemon.stop();
}

TEST(ServeTest, HeartbeatsStreamWhileRunning)
{
    DaemonFixture daemon;
    daemon.config.heartbeatSeconds = 0.02;
    daemon.start();

    std::atomic<int> heartbeats{0};
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::Callbacks callbacks;
    callbacks.onProgress = [&](const serve::ProgressUpdate &update) {
        ++heartbeats;
        EXPECT_LE(update.completed, update.total);
    };
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(longSpec(), result, callbacks).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_GE(heartbeats.load(), 1);
    daemon.stop();
}

TEST(ServeTest, InvalidSpecRejectedAsBadRequest)
{
    DaemonFixture daemon;
    daemon.start();

    serve::CampaignSpec spec = smallSpec();
    spec.quorum = 0;

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(spec, result).ok());
    EXPECT_FALSE(result.accepted);
    EXPECT_EQ(result.rejection.reason,
              serve::RejectReason::BadRequest);
    daemon.stop();
}

TEST(ServeTest, RequestFatalBecomesErrorSummaryNotDaemonDeath)
{
    DaemonFixture daemon;
    daemon.start();

    // 12345 MHz passes spec validation (finite, positive) but has no
    // operating point — the platform layer calls fatal(), which the
    // daemon must absorb as a per-request error.
    serve::CampaignSpec spec = smallSpec();
    spec.freqsMhz = {12345.0};

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(spec, result).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Error);
    EXPECT_FALSE(result.summary.error.empty());

    // The daemon survived and still serves.
    serve::Client::SubmitResult ok_result;
    ASSERT_TRUE(client.submit(smallSpec(), ok_result).ok());
    ASSERT_TRUE(ok_result.accepted);
    EXPECT_EQ(ok_result.summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_EQ(daemon.server->statsSnapshot().requestsFailed, 1u);
    daemon.stop();
}

TEST(ServeTest, GarbageInputGetsProtocolErrorThenClose)
{
    DaemonFixture daemon;
    daemon.start();

    // An oversized length prefix latches the decoder corrupt.
    RawConn hostile;
    hostile.connectUnix(daemon.socketPath);
    ASSERT_TRUE(hostile.sendBytes(std::string("\xff\xff\xff\xff", 4)));
    exec::Frame frame;
    ASSERT_TRUE(hostile.read(frame));
    EXPECT_EQ(frame.type, exec::FrameType::ProtocolError);
    EXPECT_FALSE(hostile.read(frame));  // daemon hangs up
    hostile.close();

    // An unknown frame type is equally fatal for the connection.
    RawConn unknown;
    unknown.connectUnix(daemon.socketPath);
    ASSERT_TRUE(
        unknown.send(static_cast<exec::FrameType>(200), "junk"));
    ASSERT_TRUE(unknown.read(frame));
    EXPECT_EQ(frame.type, exec::FrameType::ProtocolError);
    EXPECT_FALSE(unknown.read(frame));
    unknown.close();

    // Neither hostile connection disturbed the service.
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(smallSpec(), result).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    daemon.stop();
}

TEST(ServeTest, SigtermDrainsGracefully)
{
    DaemonFixture daemon;
    daemon.config.maxActive = 1;
    // The real signal path: SIGTERM -> cancellation -> drain. raise()
    // exactly once in this binary — the handler's second-signal path
    // force-exits the process.
    installSignalCancellation(daemon.config.drain);
    daemon.start();

    RawConn conn;
    conn.connectUnix(daemon.socketPath);
    ASSERT_TRUE(conn.send(exec::FrameType::SubmitCampaign,
                          serve::encodeCampaignSpec(longSpec())));
    exec::Frame frame;
    ASSERT_TRUE(conn.readUntil(exec::FrameType::Accepted, frame));

    ASSERT_EQ(std::raise(SIGTERM), 0);

    // Draining: the admitted request still finishes and is flushed...
    ASSERT_TRUE(conn.readUntil(exec::FrameType::Summary, frame));
    serve::Summary summary;
    ASSERT_TRUE(serve::decodeSummary(frame.payload, summary));
    EXPECT_EQ(summary.outcome, serve::RequestOutcome::Ok);
    conn.close();

    // ...the loop exits Ok (checked in stop()) and the socket inode
    // is gone: no orphaned sockets after a drain.
    daemon.stop();
    struct stat st;
    EXPECT_NE(::lstat(daemon.socketPath.c_str(), &st), 0);

    // New connections are refused post-drain.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, daemon.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    EXPECT_NE(::connect(fd,
                        reinterpret_cast<struct sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ::close(fd);
}

TEST(ServeTest, ProtocolRoundTripsSurviveEncoding)
{
    serve::CampaignSpec spec = longSpec(42);
    spec.deadlineSeconds = 1.5;
    spec.boardVariation = 0.01;
    spec.tag = "round-trip";
    serve::CampaignSpec decoded_spec;
    ASSERT_TRUE(serve::decodeCampaignSpec(
        serve::encodeCampaignSpec(spec), decoded_spec));
    EXPECT_EQ(decoded_spec.cluster, spec.cluster);
    EXPECT_EQ(decoded_spec.seed, spec.seed);
    EXPECT_EQ(decoded_spec.freqsMhz, spec.freqsMhz);
    EXPECT_EQ(decoded_spec.tag, spec.tag);
    EXPECT_EQ(decoded_spec.deadlineSeconds, spec.deadlineSeconds);

    // Truncation never decodes, and neither does a spec from another
    // protocol revision: a v3 spec (version header 3, trailing
    // OPP-grid flag byte) is refused, not misread.
    std::string spec_bytes = serve::encodeCampaignSpec(spec);
    exec::WireWriter v3_header;
    v3_header.u32(3);
    std::vector<std::string> rejected_specs = {
        v3_header.take() + spec_bytes.substr(4) + std::string(1, '\1')};
    for (std::size_t cut = 0; cut < spec_bytes.size(); ++cut)
        rejected_specs.push_back(spec_bytes.substr(0, cut));
    for (const std::string &bytes : rejected_specs) {
        serve::CampaignSpec partial;
        EXPECT_FALSE(serve::decodeCampaignSpec(bytes, partial))
            << "spec of " << bytes.size() << " bytes decoded";
    }

    serve::Summary summary;
    summary.requestId = 9;
    summary.outcome = serve::RequestOutcome::Deadline;
    summary.measuredPoints = 3;
    summary.datasetCsv = "a,b\n1,2\n";
    summary.warnings = {"w1", "w2"};
    serve::Summary decoded_summary;
    ASSERT_TRUE(serve::decodeSummary(serve::encodeSummary(summary),
                                     decoded_summary));
    EXPECT_EQ(decoded_summary.requestId, 9u);
    EXPECT_EQ(decoded_summary.outcome,
              serve::RequestOutcome::Deadline);
    EXPECT_EQ(decoded_summary.datasetCsv, summary.datasetCsv);
    EXPECT_EQ(decoded_summary.warnings, summary.warnings);

    // Truncation never decodes: every strict prefix is rejected.
    std::string bytes = serve::encodeSummary(summary);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        serve::Summary partial;
        EXPECT_FALSE(serve::decodeSummary(bytes.substr(0, cut),
                                          partial))
            << "prefix of " << cut << " bytes decoded";
    }
}

TEST(ServeTest, DurabilityPayloadsFailClosedOnTruncation)
{
    // The v2 payloads (resume tokens, Attach, Resumed) obey the same
    // contract as the v1 ones: round-trip exactly, reject every
    // strict prefix, and bound hostile string lengths.
    serve::Accepted accepted;
    accepted.requestId = 77;
    accepted.token = "gst1-" + std::string(32, 'a');
    serve::Accepted accepted_rt;
    ASSERT_TRUE(serve::decodeAccepted(serve::encodeAccepted(accepted),
                                      accepted_rt));
    EXPECT_EQ(accepted_rt.requestId, accepted.requestId);
    EXPECT_EQ(accepted_rt.token, accepted.token);
    std::string bytes = serve::encodeAccepted(accepted);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        serve::Accepted partial;
        EXPECT_FALSE(
            serve::decodeAccepted(bytes.substr(0, cut), partial))
            << "Accepted prefix of " << cut << " bytes decoded";
    }

    serve::AttachRequest attach;
    attach.token = accepted.token;
    serve::AttachRequest attach_rt;
    ASSERT_TRUE(serve::decodeAttachRequest(
        serve::encodeAttachRequest(attach), attach_rt));
    EXPECT_EQ(attach_rt.token, attach.token);
    bytes = serve::encodeAttachRequest(attach);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        serve::AttachRequest partial;
        EXPECT_FALSE(
            serve::decodeAttachRequest(bytes.substr(0, cut), partial))
            << "Attach prefix of " << cut << " bytes decoded";
    }
    // An empty or oversized token never decodes, however framed.
    serve::AttachRequest hostile;
    EXPECT_FALSE(serve::decodeAttachRequest(
        serve::encodeAttachRequest({""}), hostile));
    EXPECT_FALSE(serve::decodeAttachRequest(
        serve::encodeAttachRequest(
            {std::string(serve::kMaxTokenLength + 1, 'x')}),
        hostile));

    serve::ResumeInfo info;
    info.requestId = 88;
    info.token = accepted.token;
    info.finished = true;
    info.replayPoints = 1234;
    serve::ResumeInfo info_rt;
    ASSERT_TRUE(serve::decodeResumeInfo(serve::encodeResumeInfo(info),
                                        info_rt));
    EXPECT_EQ(info_rt.requestId, info.requestId);
    EXPECT_EQ(info_rt.token, info.token);
    EXPECT_EQ(info_rt.finished, info.finished);
    EXPECT_EQ(info_rt.replayPoints, info.replayPoints);
    bytes = serve::encodeResumeInfo(info);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        serve::ResumeInfo partial;
        EXPECT_FALSE(
            serve::decodeResumeInfo(bytes.substr(0, cut), partial))
            << "Resumed prefix of " << cut << " bytes decoded";
    }
}

TEST(ServeTest, TruncatedAttachGetsProtocolErrorThenClose)
{
    DaemonFixture daemon;
    daemon.start();

    // A torn Attach payload (valid frame, half a token inside) is a
    // protocol error and a hangup — never a crash, never a bind.
    std::string payload = serve::encodeAttachRequest(
        {"gst1-" + std::string(32, 'b')});
    RawConn torn;
    torn.connectUnix(daemon.socketPath);
    ASSERT_TRUE(torn.send(exec::FrameType::Attach,
                          payload.substr(0, payload.size() / 2)));
    exec::Frame frame;
    ASSERT_TRUE(torn.read(frame));
    EXPECT_EQ(frame.type, exec::FrameType::ProtocolError);
    EXPECT_FALSE(torn.read(frame));  // daemon hangs up
    torn.close();

    // The daemon is unharmed and still serves.
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.submit(smallSpec(), result).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    daemon.stop();
}

} // namespace
