/**
 * @file
 * Durability tests for the gemstoned campaign service (src/serve/).
 *
 * DESIGN.md §16 promises that a durable request outlives both its
 * client connection and the daemon process: disconnects detach
 * instead of cancelling, Attach by resume token replays the settled
 * PointResult frames byte-identically before the live stream
 * continues, identical durable specs coalesce onto one request, a
 * restarted daemon re-admits journaled requests, and the self-healing
 * client reconnects with backoff and re-attaches on its own. Each of
 * those claims gets a test against a real in-process Server on real
 * sockets; the full SIGKILL crash path runs in tests/serve_chaos.sh
 * against the shipped binaries.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <errno.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/wireproto.hh"
#include "serve/client.hh"
#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/service.hh"
#include "util/cancellation.hh"
#include "util/logging.hh"

using namespace gemstone;

namespace {

/** A short-lived per-test socket path under /tmp (sun_path limit). */
std::string
freshSocketPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/gs_durable_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1)) + ".sock";
}

/** A per-test scratch directory, removed on destruction. */
struct ScratchDir
{
    std::string path;

    ScratchDir()
    {
        static std::atomic<int> counter{0};
        path = "/tmp/gs_durable_dir_" + std::to_string(::getpid()) +
               "_" + std::to_string(counter.fetch_add(1));
        std::filesystem::create_directories(path);
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
    }
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** A durable campaign small enough to finish in tens of ms. */
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
    spec.durable = true;
    return spec;
}

/** The full A7 campaign (~1s): long enough to hang up mid-flight. */
serve::CampaignSpec
longSpec(std::uint64_t seed = 1)
{
    serve::CampaignSpec spec;
    spec.cluster = hwsim::CpuCluster::LittleA7;
    spec.repeats = 2;
    spec.quorum = 1;
    spec.seed = seed;
    spec.durable = true;
    return spec;
}

/** Expected dataset bytes: the same spec, run one-shot. */
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

/** Raw frame-level connection (see serve_test.cc). */
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

/** Spin until @p predicate or ~10s; true when it held. */
template <typename Predicate>
bool
eventually(Predicate predicate)
{
    for (int i = 0; i < 2000; ++i) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

TEST(ServeDurableTest, JournalCodecKeepsLongestValidPrefix)
{
    // Hex codec is exact and rejects junk.
    std::string bytes("\x00\x01\xfe\xff ok", 7);
    std::string decoded;
    ASSERT_TRUE(serve::hexDecode(serve::hexEncode(bytes), decoded));
    EXPECT_EQ(decoded, bytes);
    EXPECT_FALSE(serve::hexDecode("abc", decoded));   // odd length
    EXPECT_FALSE(serve::hexDecode("zz", decoded));    // non-hex
    EXPECT_TRUE(serve::hexDecode("", decoded));
    EXPECT_TRUE(decoded.empty());

    // Tokens are fresh, well-formed and filesystem-safe.
    std::string token = serve::makeResumeToken(7);
    EXPECT_TRUE(serve::validResumeToken(token));
    EXPECT_NE(token, serve::makeResumeToken(7));
    EXPECT_FALSE(serve::validResumeToken(""));
    EXPECT_FALSE(serve::validResumeToken("../../etc/passwd"));
    EXPECT_FALSE(serve::validResumeToken("gst1-NOTHEX"));

    // Build a journal the way the daemon does: the header created
    // atomically, then one appended line per settled point and one
    // for the summary.
    ScratchDir dir;
    serve::RequestJournal journal;
    journal.requestId = 42;
    journal.token = token;
    journal.specBytes = serve::encodeCampaignSpec(smallSpec(3));
    const std::string path = serve::journalPath(dir.path, token);
    const std::vector<std::string> payloads = {
        std::string("\x01\x02", 2), "payload",
        std::string("\x00summary", 8)};
    // record_end[r]: file size once record r is wholly written.
    std::vector<std::size_t> record_end;
    std::size_t header_end = 0;
    {
        AppendFile file;
        ASSERT_TRUE(
            serve::createRequestJournal(dir.path, journal, file).ok());
        header_end = readFile(path).size();
        std::size_t size = header_end;
        for (std::size_t r = 0; r < payloads.size(); ++r) {
            const std::string line = serve::encodeJournalLine(
                r + 1 == payloads.size() ? "summary" : "point",
                payloads[r]);
            ASSERT_TRUE(file.append(line).ok());
            size += line.size();
            record_end.push_back(size);
        }
        ASSERT_TRUE(file.sync().ok());
    }
    const std::string content = readFile(path);
    ASSERT_EQ(content.size(), record_end.back());

    // The decoded journal holds exactly the first @p whole records.
    auto expect_prefix = [&](const serve::RequestJournal &parsed,
                             std::size_t whole,
                             const std::string &where) {
        EXPECT_EQ(parsed.requestId, journal.requestId) << where;
        EXPECT_EQ(parsed.token, journal.token) << where;
        EXPECT_EQ(parsed.specBytes, journal.specBytes) << where;
        const std::size_t points = std::min<std::size_t>(whole, 2);
        EXPECT_EQ(parsed.points,
                  std::vector<std::string>(payloads.begin(),
                                           payloads.begin() + points))
            << where;
        EXPECT_EQ(parsed.finished, whole == 3) << where;
        EXPECT_EQ(parsed.summary, whole == 3 ? payloads[2] : "")
            << where;
    };
    serve::RequestJournal parsed;
    ASSERT_TRUE(serve::decodeRequestJournal(content, parsed));
    expect_prefix(parsed, 3, "intact");

    // Torn at any byte offset: a cut inside the atomically created
    // header cannot happen and does not decode; any later cut yields
    // exactly the records wholly written before it, never a partial
    // payload.
    for (std::size_t cut = 0; cut <= content.size(); ++cut) {
        serve::RequestJournal partial;
        bool decoded_ok =
            serve::decodeRequestJournal(content.substr(0, cut), partial);
        if (cut < header_end) {
            EXPECT_FALSE(decoded_ok) << "header cut at " << cut;
            continue;
        }
        ASSERT_TRUE(decoded_ok) << "cut at " << cut;
        std::size_t whole = 0;
        while (whole < record_end.size() && record_end[whole] <= cut)
            ++whole;
        expect_prefix(partial, whole, "cut at " + std::to_string(cut));
    }

    // One flipped byte anywhere inside record r (payload, checksum,
    // separators, newline) drops r and every record after it.
    for (std::size_t r = 0; r < record_end.size(); ++r) {
        const std::size_t begin = r == 0 ? header_end : record_end[r - 1];
        for (std::size_t at = begin; at < record_end[r]; ++at) {
            for (char mask : {'\x01', '\x20', '\x80'}) {
                std::string damaged = content;
                damaged[at] = static_cast<char>(damaged[at] ^ mask);
                serve::RequestJournal partial;
                ASSERT_TRUE(serve::decodeRequestJournal(damaged, partial));
                expect_prefix(partial, r,
                              "flip at " + std::to_string(at));
            }
        }
    }

    // An unknown record key is a format change, not noise to skip:
    // the valid prefix ends before it.
    serve::RequestJournal rejected;
    const std::string header = content.substr(0, header_end);
    ASSERT_TRUE(serve::decodeRequestJournal(
        header + serve::encodeJournalLine("futurekey", "x") +
            serve::encodeJournalLine("point", "late"),
        rejected));
    EXPECT_TRUE(rejected.points.empty());

    // Directory scan: a v1 journal is dropped (removed, with a
    // warning naming its token) and a malformed v2 one is skipped
    // with a warning — never trusted and never fatal.
    std::string v1_token = serve::makeResumeToken(43);
    std::ofstream(serve::journalPath(dir.path, v1_token))
        << "gemstone-journal v1\nrequest 43\ntoken " << v1_token
        << "\nstatus running\nspec 00\n#end\n";
    std::string bad_token = serve::makeResumeToken(44);
    std::ofstream(serve::journalPath(dir.path, bad_token))
        << "gemstone-journal v2\nrequest 44\ngarbage\n";
    std::vector<std::string> warnings;
    Result<std::vector<serve::RequestJournal>> loaded =
        serve::loadJournalDir(dir.path, warnings);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    ASSERT_EQ(loaded.value().size(), 1u);
    expect_prefix(loaded.value()[0], 3, "loaded");
    ASSERT_EQ(warnings.size(), 2u);
    EXPECT_NE(std::find_if(warnings.begin(), warnings.end(),
                           [&](const std::string &w) {
                               return w.find("v1") != std::string::npos &&
                                   w.find(v1_token) != std::string::npos;
                           }),
              warnings.end());
    EXPECT_FALSE(std::filesystem::exists(
        serve::journalPath(dir.path, v1_token)));
    EXPECT_TRUE(std::filesystem::exists(
        serve::journalPath(dir.path, bad_token)));

    // Retire removes the journal and its checkpoint artifacts.
    ASSERT_TRUE(
        serve::removeRequestJournal(dir.path, journal.token).ok());
    EXPECT_FALSE(std::filesystem::exists(
        serve::journalPath(dir.path, journal.token)));
}

TEST(ServeDurableTest, DisconnectDetachesAndAttachReplaysBytes)
{
    serve::CampaignSpec spec = longSpec(11);
    std::string expected = referenceCsv(spec);
    ASSERT_FALSE(expected.empty());

    DaemonFixture daemon;
    daemon.start();

    // Submit durable, take the first two streamed points, hang up.
    RawConn first;
    first.connectUnix(daemon.socketPath);
    ASSERT_TRUE(first.send(exec::FrameType::SubmitCampaign,
                           serve::encodeCampaignSpec(spec)));
    exec::Frame frame;
    ASSERT_TRUE(first.readUntil(exec::FrameType::Accepted, frame));
    serve::Accepted accepted;
    ASSERT_TRUE(serve::decodeAccepted(frame.payload, accepted));
    ASSERT_FALSE(accepted.token.empty());
    std::vector<std::string> streamed;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(
            first.readUntil(exec::FrameType::PointResult, frame));
        streamed.push_back(frame.payload);
    }
    first.close();

    // The request kept running detached — not cancelled.
    RawConn second;
    second.connectUnix(daemon.socketPath);
    ASSERT_TRUE(second.send(
        exec::FrameType::Attach,
        serve::encodeAttachRequest({accepted.token})));
    ASSERT_TRUE(second.readUntil(exec::FrameType::Resumed, frame));
    serve::ResumeInfo info;
    ASSERT_TRUE(serve::decodeResumeInfo(frame.payload, info));
    EXPECT_EQ(info.requestId, accepted.requestId);
    EXPECT_EQ(info.token, accepted.token);

    // Replay prefix is byte-identical to the original stream, and
    // the stream then continues (or replays through) to the Summary.
    std::vector<std::string> replayed;
    serve::Summary summary;
    for (;;) {
        ASSERT_TRUE(second.read(frame));
        if (frame.type == exec::FrameType::PointResult) {
            replayed.push_back(frame.payload);
            continue;
        }
        if (frame.type == exec::FrameType::Summary) {
            ASSERT_TRUE(serve::decodeSummary(frame.payload, summary));
            break;
        }
        ASSERT_EQ(frame.type, exec::FrameType::Progress);
    }
    second.close();

    ASSERT_GE(replayed.size(), streamed.size());
    EXPECT_GE(replayed.size(),
              static_cast<std::size_t>(info.replayPoints));
    for (std::size_t i = 0; i < streamed.size(); ++i)
        EXPECT_EQ(replayed[i], streamed[i]) << "replayed point " << i;

    EXPECT_EQ(summary.requestId, accepted.requestId);
    EXPECT_EQ(summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_EQ(summary.datasetCsv, expected);

    serve::DaemonStats stats = daemon.server->statsSnapshot();
    EXPECT_EQ(stats.requestsCancelled, 0u);
    EXPECT_EQ(stats.requestsReattached, 1u);
    daemon.stop();
}

TEST(ServeDurableTest, UnknownTokenIsRejectedNotFatal)
{
    DaemonFixture daemon;
    daemon.start();

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    std::string bogus = "gst1-" + std::string(32, 'f');
    ASSERT_TRUE(client.attach(bogus, result).ok());
    EXPECT_FALSE(result.accepted);
    EXPECT_EQ(result.rejection.reason,
              serve::RejectReason::UnknownToken);

    // The daemon survived and still serves the same connection's
    // follow-up submit.
    serve::Client::SubmitResult ok_result;
    ASSERT_TRUE(client.submit(smallSpec(5), ok_result).ok());
    ASSERT_TRUE(ok_result.accepted);
    EXPECT_EQ(ok_result.summary.outcome, serve::RequestOutcome::Ok);
    daemon.stop();
}

TEST(ServeDurableTest, IdempotentResubmitCoalescesOntoOneRequest)
{
    serve::CampaignSpec spec = longSpec(23);
    std::string expected = referenceCsv(spec);
    std::string spec_bytes = serve::encodeCampaignSpec(spec);

    DaemonFixture daemon;
    daemon.config.maxActive = 1;
    daemon.start();

    RawConn first;
    first.connectUnix(daemon.socketPath);
    ASSERT_TRUE(first.send(exec::FrameType::SubmitCampaign,
                           spec_bytes));
    exec::Frame frame;
    ASSERT_TRUE(first.readUntil(exec::FrameType::Accepted, frame));
    serve::Accepted original;
    ASSERT_TRUE(serve::decodeAccepted(frame.payload, original));

    // Byte-identical durable re-submit from another connection lands
    // on the same request — same id, same token — and the stream
    // re-binds there (latest wins).
    RawConn second;
    second.connectUnix(daemon.socketPath);
    ASSERT_TRUE(second.send(exec::FrameType::SubmitCampaign,
                            spec_bytes));
    ASSERT_TRUE(second.readUntil(exec::FrameType::Accepted, frame));
    serve::Accepted coalesced;
    ASSERT_TRUE(serve::decodeAccepted(frame.payload, coalesced));
    EXPECT_EQ(coalesced.requestId, original.requestId);
    EXPECT_EQ(coalesced.token, original.token);
    first.close();

    ASSERT_TRUE(second.readUntil(exec::FrameType::Summary, frame));
    serve::Summary summary;
    ASSERT_TRUE(serve::decodeSummary(frame.payload, summary));
    EXPECT_EQ(summary.requestId, original.requestId);
    EXPECT_EQ(summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_EQ(summary.datasetCsv, expected);
    second.close();

    // One campaign ran; the coalesced submit was not a second one.
    // (The Summary frame can reach the client a beat before the loop
    // processes the finish event, so poll rather than assert once.)
    EXPECT_TRUE(eventually([&] {
        return daemon.server->statsSnapshot().requestsServed == 1;
    }));
    daemon.stop();
}

TEST(ServeDurableTest, FinishedRequestSurvivesRestartForLateAttach)
{
    serve::CampaignSpec spec = smallSpec(31);
    std::string expected = referenceCsv(spec);
    ScratchDir journal_dir;
    std::string token;

    {
        DaemonFixture daemon;
        daemon.config.journalDir = journal_dir.path;
        daemon.start();

        // Submit durable and vanish before a single reply frame.
        RawConn conn;
        conn.connectUnix(daemon.socketPath);
        ASSERT_TRUE(conn.send(exec::FrameType::SubmitCampaign,
                              serve::encodeCampaignSpec(spec)));
        exec::Frame frame;
        ASSERT_TRUE(conn.readUntil(exec::FrameType::Accepted, frame));
        serve::Accepted accepted;
        ASSERT_TRUE(serve::decodeAccepted(frame.payload, accepted));
        token = accepted.token;
        conn.close();

        // The detached campaign finishes and settles its journal.
        ASSERT_TRUE(eventually([&] {
            return daemon.server->statsSnapshot().requestsServed == 1;
        }));
        daemon.stop();
    }
    // The daemon is gone; the finished journal is the survivor.
    EXPECT_TRUE(std::filesystem::exists(
        serve::journalPath(journal_dir.path, token)));

    DaemonFixture restarted;
    restarted.config.journalDir = journal_dir.path;
    restarted.start();

    serve::Client client;
    ASSERT_TRUE(client.connectUnix(restarted.socketPath).ok());
    int points = 0;
    serve::Client::Callbacks callbacks;
    callbacks.onPoint = [&](const serve::PointUpdate &) { ++points; };
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.attach(token, result, callbacks).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_EQ(result.summary.datasetCsv, expected);
    EXPECT_EQ(points,
              static_cast<int>(result.summary.measuredPoints));
    EXPECT_EQ(restarted.server->statsSnapshot().requestsReattached,
              1u);

    // Delivery retires the journal artifacts.
    EXPECT_TRUE(eventually([&] {
        return !std::filesystem::exists(
            serve::journalPath(journal_dir.path, token));
    }));
    restarted.stop();
}

TEST(ServeDurableTest, UnfinishedJournalIsReadmittedAtBoot)
{
    serve::CampaignSpec spec = smallSpec(37);
    std::string expected = referenceCsv(spec);
    ScratchDir journal_dir;

    // A journal exactly as a killed daemon leaves one: admitted,
    // running, no settled points yet.
    serve::RequestJournal journal;
    journal.requestId = 7;
    journal.token = serve::makeResumeToken(7);
    journal.specBytes = serve::encodeCampaignSpec(spec);
    {
        AppendFile file;
        ASSERT_TRUE(serve::createRequestJournal(journal_dir.path,
                                                journal, file)
                        .ok());
    }

    // A sibling journal left by a protocol v3 daemon: its spec no
    // longer decodes, so boot drops it with a warning instead of
    // re-admitting it (or reloading it forever).
    serve::RequestJournal stale = journal;
    stale.requestId = 8;
    stale.token = serve::makeResumeToken(8);
    exec::WireWriter v3_header;
    v3_header.u32(3);
    stale.specBytes = v3_header.take() + journal.specBytes.substr(4) +
                      std::string(1, '\1');
    {
        AppendFile file;
        ASSERT_TRUE(serve::createRequestJournal(journal_dir.path,
                                                stale, file)
                        .ok());
    }
    // And one left by a daemon that still wrote v1 journals: dropped
    // with a warning, and the daemon boots regardless.
    const std::string v1_token = serve::makeResumeToken(9);
    std::ofstream(serve::journalPath(journal_dir.path, v1_token))
        << "gemstone-journal v1\nrequest 9\ntoken " << v1_token
        << "\nstatus running\nspec "
        << serve::hexEncode(journal.specBytes) << "\n#end\n";

    DaemonFixture daemon;
    daemon.config.journalDir = journal_dir.path;
    daemon.start();
    EXPECT_EQ(daemon.server->statsSnapshot().requestsRecovered, 1u);
    EXPECT_FALSE(std::filesystem::exists(
        serve::journalPath(journal_dir.path, stale.token)));
    EXPECT_FALSE(std::filesystem::exists(
        serve::journalPath(journal_dir.path, v1_token)));

    // The recovered campaign runs with no client at all; a late
    // attach under the original token gets the full stream.
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::SubmitResult result;
    ASSERT_TRUE(client.attach(journal.token, result).ok());
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.requestId, journal.requestId);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_EQ(result.summary.datasetCsv, expected);
    daemon.stop();
}

TEST(ServeDurableTest, RetentionSweepRetiresUnclaimedResults)
{
    DaemonFixture daemon;
    daemon.config.retainFinishedSeconds = 0.0;
    daemon.config.heartbeatSeconds = 0.02;
    daemon.start();

    RawConn conn;
    conn.connectUnix(daemon.socketPath);
    ASSERT_TRUE(conn.send(exec::FrameType::SubmitCampaign,
                          serve::encodeCampaignSpec(smallSpec(41))));
    exec::Frame frame;
    ASSERT_TRUE(conn.readUntil(exec::FrameType::Accepted, frame));
    serve::Accepted accepted;
    ASSERT_TRUE(serve::decodeAccepted(frame.payload, accepted));
    conn.close();

    ASSERT_TRUE(eventually([&] {
        return daemon.server->statsSnapshot().requestsServed == 1;
    }));

    // With zero retention the unclaimed result is swept on the next
    // tick; the token then attaches to nothing.
    EXPECT_TRUE(eventually([&] {
        serve::Client client;
        if (!client.connectUnix(daemon.socketPath).ok())
            return false;
        serve::Client::SubmitResult result;
        if (!client.attach(accepted.token, result).ok())
            return false;
        return !result.accepted &&
               result.rejection.reason ==
                   serve::RejectReason::UnknownToken;
    }));
    daemon.stop();
}

TEST(ServeDurableTest, QueuedRequestsHeartbeatWhileWaiting)
{
    DaemonFixture daemon;
    daemon.config.maxActive = 1;
    daemon.config.heartbeatSeconds = 0.02;
    daemon.start();

    // Occupy the only slot with a long non-durable campaign (so a
    // later hangup frees the slot by cancelling it)...
    serve::CampaignSpec blocker = longSpec(43);
    blocker.durable = false;
    RawConn busy;
    busy.connectUnix(daemon.socketPath);
    ASSERT_TRUE(busy.send(exec::FrameType::SubmitCampaign,
                          serve::encodeCampaignSpec(blocker)));
    exec::Frame frame;
    ASSERT_TRUE(busy.readUntil(exec::FrameType::Accepted, frame));

    // ...so this one queues. The daemon must heartbeat it while it
    // waits — sustained silence is how the self-healing client
    // detects a dead daemon, so waiting must not look like death.
    std::atomic<int> queued_beats{0};
    serve::Client client;
    ASSERT_TRUE(client.connectUnix(daemon.socketPath).ok());
    serve::Client::Callbacks callbacks;
    callbacks.onProgress = [&](const serve::ProgressUpdate &update) {
        if (update.total == 0 && update.completed == 0)
            ++queued_beats;
    };
    serve::Client::SubmitResult result;
    std::thread waiter([&] {
        client.submit(smallSpec(44), result, callbacks);
    });
    EXPECT_TRUE(eventually([&] { return queued_beats.load() >= 2; }));
    busy.close();  // cancels the blocker, freeing the slot
    waiter.join();
    ASSERT_TRUE(result.accepted);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    daemon.stop();
}

TEST(ServeDurableTest, QueryTimesOutAgainstSilentServer)
{
    // A listener that accepts and never replies: the client's I/O
    // timeout must turn that into DeadlineExceeded, not a hang.
    std::string path = freshSocketPath();
    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(listener,
                     reinterpret_cast<struct sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 4), 0);

    serve::Client client;
    client.setIoTimeout(0.2);
    ASSERT_TRUE(client.connectUnix(path).ok());
    serve::DaemonStats stats;
    Status status = client.queryStats(stats);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::DeadlineExceeded);

    ::close(listener);
    ::unlink(path.c_str());
}

TEST(ServeDurableTest, ClientSelfHealsAcrossEndpointOutage)
{
    serve::CampaignSpec spec = smallSpec(53);
    std::string expected = referenceCsv(spec);

    // Phase 1: the client dials a daemon-shaped black hole — it
    // accepts the connection and then says nothing, like a daemon
    // wedged right before being SIGKILLed.
    std::string path = freshSocketPath();
    int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    struct sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::bind(listener,
                     reinterpret_cast<struct sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 4), 0);

    serve::Client client;
    serve::Client::ReconnectPolicy policy;
    policy.maxAttempts = 8;
    policy.backoffBaseSeconds = 0.05;
    policy.backoffCapSeconds = 0.2;
    policy.heartbeatTimeoutSeconds = 0.3;
    client.setReconnectPolicy(policy);
    ASSERT_TRUE(client.connectUnix(path).ok());

    serve::Client::SubmitResult result;
    Status submit_status = Status::okStatus();
    std::thread streamer([&] {
        submit_status = client.submit(spec, result);
    });

    // Phase 2: while the client is waiting out the heartbeat
    // timeout, the black hole dies and a real daemon boots on the
    // same path. The client must notice the silence, back off,
    // redial and land the request — all without help.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ::close(listener);
    ::unlink(path.c_str());

    DaemonFixture daemon;
    daemon.config.socketPath = path;
    daemon.socketPath = path;
    daemon.start();

    streamer.join();
    ASSERT_TRUE(submit_status.ok()) << submit_status.toString();
    ASSERT_TRUE(result.accepted);
    EXPECT_GE(result.reconnects, 1u);
    EXPECT_EQ(result.summary.outcome, serve::RequestOutcome::Ok);
    EXPECT_EQ(result.summary.datasetCsv, expected);
    daemon.stop();
}

} // namespace
