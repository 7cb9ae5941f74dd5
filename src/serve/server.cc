/**
 * @file
 * The gemstoned event loop.
 */

#include "serve/server.hh"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>

#include "isa/predecode.hh"
#include "serve/journal.hh"
#include "serve/service.hh"
#include "util/logging.hh"

namespace gemstone::serve {

namespace {

/** Best-effort close that survives EINTR. */
void
closeFd(int &fd)
{
    if (fd >= 0) {
        while (::close(fd) < 0 && errno == EINTR) {
        }
        fd = -1;
    }
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 &&
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

std::string
connPrefix(std::uint64_t conn_id)
{
    return "[conn " + std::to_string(conn_id) + "]";
}

std::string
requestPrefix(std::uint64_t conn_id, std::uint64_t request_id)
{
    if (conn_id == 0)
        return "[detached req " + std::to_string(request_id) + "]";
    return "[conn " + std::to_string(conn_id) + " req " +
        std::to_string(request_id) + "]";
}

} // namespace

Server::Server(Config config)
    : serverConfig(std::move(config)),
      sharedStore(std::make_shared<exec::ResultStore>(
          serverConfig.storeCapacity))
{
    if (!serverConfig.sharedTierPath.empty()) {
        Status attached =
            sharedStore->attachSharedTier(serverConfig.sharedTierPath);
        if (!attached.ok()) {
            warn("gemstoned: cannot attach shared tier ",
                 serverConfig.sharedTierPath, ": ",
                 attached.toString(), "; serving memory-only");
        }
    }
}

Server::~Server()
{
    // Abnormal teardown (a test tearing down a still-running server):
    // cancel everything and wait, then release the sockets.
    for (Running &request : running) {
        request.cancel.requestCancel();
        if (request.thread.joinable())
            request.thread.join();
    }
    running.clear();
    for (auto &[id, conn] : connections)
        closeFd(conn.fd);
    connections.clear();
    closeFd(unixFd);
    closeFd(tcpFd);
    closeFd(wakePipe[0]);
    closeFd(wakePipe[1]);
    if (!serverConfig.socketPath.empty())
        ::unlink(serverConfig.socketPath.c_str());
}

Status
Server::bindUnix()
{
    struct sockaddr_un addr;
    if (serverConfig.socketPath.size() >= sizeof(addr.sun_path)) {
        return Status(StatusCode::IoError,
                      "socket path too long: " +
                          serverConfig.socketPath);
    }
    unixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unixFd < 0) {
        return Status(StatusCode::IoError,
                      std::string("socket: ") + std::strerror(errno));
    }
    // A previous daemon that crashed leaves a stale socket inode
    // behind; binding over it needs the unlink first. A *live*
    // daemon also loses its inode this way — running two daemons on
    // one path is operator error the filesystem cannot referee.
    struct stat st;
    if (::lstat(serverConfig.socketPath.c_str(), &st) == 0 &&
        S_ISSOCK(st.st_mode)) {
        ::unlink(serverConfig.socketPath.c_str());
    }
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, serverConfig.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(unixFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(unixFd, 64) < 0 || !setNonBlocking(unixFd)) {
        Status status(StatusCode::IoError,
                      "bind " + serverConfig.socketPath + ": " +
                          std::strerror(errno));
        closeFd(unixFd);
        return status;
    }
    return Status::okStatus();
}

Status
Server::bindTcp()
{
    tcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcpFd < 0) {
        return Status(StatusCode::IoError,
                      std::string("socket: ") + std::strerror(errno));
    }
    int one = 1;
    ::setsockopt(tcpFd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(serverConfig.tcpPort));
    if (::bind(tcpFd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(tcpFd, 64) < 0 || !setNonBlocking(tcpFd)) {
        Status status(StatusCode::IoError,
                      "bind 127.0.0.1:" +
                          std::to_string(serverConfig.tcpPort) + ": " +
                          std::strerror(errno));
        closeFd(tcpFd);
        return status;
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(tcpFd,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      &len) == 0) {
        tcpPortBound = ntohs(addr.sin_port);
    }
    return Status::okStatus();
}

Status
Server::start()
{
    if (serverConfig.socketPath.empty() && serverConfig.tcpPort < 0) {
        return Status(StatusCode::Internal,
                      "gemstoned needs a socket path or a TCP port");
    }
    if (::pipe(wakePipe) < 0 || !setNonBlocking(wakePipe[0]) ||
        !setNonBlocking(wakePipe[1])) {
        return Status(StatusCode::IoError,
                      std::string("pipe: ") + std::strerror(errno));
    }
    if (!serverConfig.socketPath.empty()) {
        Status status = bindUnix();
        if (!status.ok())
            return status;
    }
    if (serverConfig.tcpPort >= 0) {
        Status status = bindTcp();
        if (!status.ok())
            return status;
    }
    Status recovered = recoverJournals();
    if (!recovered.ok())
        return recovered;
    lastHeartbeat = std::chrono::steady_clock::now();
    started = true;
    return Status::okStatus();
}

Status
Server::recoverJournals()
{
    if (serverConfig.journalDir.empty())
        return Status::okStatus();
    std::error_code ec;
    std::filesystem::create_directories(serverConfig.journalDir, ec);
    if (ec) {
        return Status(StatusCode::IoError,
                      "cannot create journal dir " +
                          serverConfig.journalDir + ": " +
                          ec.message());
    }
    std::vector<std::string> warnings;
    Result<std::vector<RequestJournal>> loaded =
        loadJournalDir(serverConfig.journalDir, warnings);
    if (!loaded.ok())
        return loaded.status();
    for (const std::string &warning : warnings)
        warn("gemstoned: ", warning);
    for (RequestJournal &journal : loaded.takeValue()) {
        if (tokenIndex.count(journal.token) ||
            requests.count(journal.requestId)) {
            warn("gemstoned: journal for request ", journal.requestId,
                 " duplicates an already-loaded one; skipped");
            continue;
        }
        RequestRecord record;
        record.requestId = journal.requestId;
        record.token = std::move(journal.token);
        record.specBytes = std::move(journal.specBytes);
        record.durable = true;
        record.recovered = true;
        record.pointPayloads = std::move(journal.points);
        nextRequestId = std::max(nextRequestId,
                                 journal.requestId + 1);
        if (journal.finished) {
            // Already settled: retain for a late Attach; the
            // retention clock restarts at boot.
            record.phase = RequestPhase::Finished;
            record.summaryPayload = std::move(journal.summary);
            record.finishedAt = std::chrono::steady_clock::now();
            inform("gemstoned: retaining finished request ",
                   record.requestId, " for attach");
        } else {
            CampaignSpec spec;
            if (!decodeCampaignSpec(record.specBytes, spec)) {
                // A journal from an incompatible protocol revision;
                // drop it so it does not reload forever.
                warn("gemstoned: journal for request ",
                     record.requestId,
                     " holds an undecodable spec; dropping");
                removeRequestJournal(serverConfig.journalDir,
                                     record.token);
                continue;
            }
            // Re-create the journal from its valid prefix: a torn
            // tail would hide every line appended after it.
            openJournal(record);
            Pending pending;
            pending.requestId = record.requestId;
            pending.spec = std::move(spec);
            detachedPending.push_back(std::move(pending));
            {
                std::lock_guard<std::mutex> lock(statsMutex);
                ++counters.requestsRecovered;
            }
            inform("gemstoned: recovered in-flight request ",
                   record.requestId,
                   " from its journal; campaign will resume (",
                   record.pointPayloads.size(), " points settled)");
        }
        tokenIndex[record.token] = record.requestId;
        requests.emplace(record.requestId, std::move(record));
    }
    return Status::okStatus();
}

std::size_t
Server::queuedTotal() const
{
    std::size_t total = 0;
    for (const auto &[id, conn] : connections)
        total += conn.pending.size();
    return total + detachedPending.size();
}

Server::RequestRecord *
Server::findRecord(std::uint64_t request_id)
{
    auto it = requests.find(request_id);
    return it == requests.end() ? nullptr : &it->second;
}

Server::Running *
Server::findRunning(std::uint64_t request_id)
{
    for (Running &request : running) {
        if (request.requestId == request_id)
            return &request;
    }
    return nullptr;
}

void
Server::openJournal(RequestRecord &record)
{
    if (!record.durable || serverConfig.journalDir.empty())
        return;
    RequestJournal journal;
    journal.requestId = record.requestId;
    journal.token = record.token;
    journal.specBytes = record.specBytes;
    journal.points = record.pointPayloads;
    Status created = createRequestJournal(serverConfig.journalDir,
                                          journal, record.journal);
    if (!created.ok()) {
        // Durability degrades; serving continues. The client still
        // gets its stream — it just cannot survive a daemon crash.
        warn("gemstoned: cannot journal request ", record.requestId,
             ": ", created.toString());
    }
}

void
Server::retireRequest(std::uint64_t request_id)
{
    auto it = requests.find(request_id);
    if (it == requests.end())
        return;
    if (it->second.durable && !serverConfig.journalDir.empty()) {
        Status removed = removeRequestJournal(serverConfig.journalDir,
                                              it->second.token);
        if (!removed.ok()) {
            warn("gemstoned: retiring request ", request_id, ": ",
                 removed.toString());
        }
    }
    tokenIndex.erase(it->second.token);
    requests.erase(it);
}

DaemonStats
Server::statsSnapshot() const
{
    DaemonStats snapshot;
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        snapshot = counters;
    }
    exec::ResultStore::Stats store_stats = sharedStore->stats();
    snapshot.storeSize = sharedStore->size();
    snapshot.storeCapacity = sharedStore->capacity();
    snapshot.storeHits = store_stats.hits;
    snapshot.storeMisses = store_stats.misses;
    snapshot.storeInsertions = store_stats.insertions;
    snapshot.storeEvictions = store_stats.evictions;
    snapshot.storeSharedHits = store_stats.sharedHits;
    isa::PredecodeCacheStats predecode = isa::predecodeCacheStats();
    snapshot.predecodeHits = predecode.hits;
    snapshot.predecodeMisses = predecode.misses;
    snapshot.predecodeInserts = predecode.inserts;
    return snapshot;
}

void
Server::postEvent(OutEvent event)
{
    {
        std::lock_guard<std::mutex> lock(eventMutex);
        events.push_back(std::move(event));
    }
    // A full pipe already guarantees a pending wakeup; EAGAIN is
    // success here, and any other failure only delays the event
    // until the next poll timeout.
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wakePipe[1], &byte, 1);
}

void
Server::enqueueFrame(Connection &conn, exec::FrameType type,
                     const std::string &payload)
{
    conn.outbuf += exec::encodeFrame(type, payload);
}

void
Server::acceptPending(int listen_fd)
{
    for (;;) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;  // EAGAIN or a transient accept error
        }
        if (!setNonBlocking(fd)) {
            closeFd(fd);
            continue;
        }
        Connection conn;
        conn.fd = fd;
        conn.id = nextConnId++;
        connections.emplace(conn.id, std::move(conn));
        {
            std::lock_guard<std::mutex> lock(statsMutex);
            ++counters.connectionsTotal;
            counters.connectionsOpen = connections.size();
        }
        inform("gemstoned: ", connPrefix(connections.rbegin()->first),
               " connected");
    }
}

void
Server::handleSubmit(Connection &conn, const std::string &payload)
{
    auto reject = [&](RejectReason reason, const std::string &message) {
        Rejection rejection;
        rejection.reason = reason;
        rejection.message = message;
        enqueueFrame(conn, exec::FrameType::Rejected,
                     encodeRejection(rejection));
        std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.requestsRejected;
    };

    if (draining) {
        reject(RejectReason::Draining,
               "daemon is draining; resubmit elsewhere");
        return;
    }
    CampaignSpec spec;
    if (!decodeCampaignSpec(payload, spec)) {
        reject(RejectReason::BadRequest, "undecodable campaign spec");
        return;
    }
    std::string invalid = validateCampaignSpec(spec);
    if (!invalid.empty()) {
        reject(RejectReason::BadRequest, invalid);
        return;
    }

    // Idempotent durable re-submit: a client that lost its resume
    // token retries with the same spec bytes; identical durable
    // specs coalesce onto the existing request instead of running
    // the campaign twice.
    if (spec.durable) {
        for (auto &[id, record] : requests) {
            if (!record.durable || record.specBytes != payload)
                continue;
            Accepted accepted;
            accepted.requestId = record.requestId;
            accepted.token = record.token;
            enqueueFrame(conn, exec::FrameType::Accepted,
                         encodeAccepted(accepted));
            inform("gemstoned: ",
                   requestPrefix(conn.id, record.requestId),
                   " re-submit coalesced onto existing request");
            bindRequest(record, conn);
            return;
        }
    }

    if (running.size() >= serverConfig.maxActive &&
        queuedTotal() >= serverConfig.queueDepth) {
        reject(RejectReason::QueueFull,
               "admission queue full (" +
                   std::to_string(serverConfig.queueDepth) +
                   " waiting); retry later");
        return;
    }

    Pending pending;
    pending.requestId = nextRequestId++;

    RequestRecord record;
    record.requestId = pending.requestId;
    do {
        record.token = makeResumeToken(record.requestId);
    } while (tokenIndex.count(record.token) != 0);
    record.specBytes = payload;
    record.durable = spec.durable;
    record.connId = conn.id;

    Accepted accepted;
    accepted.requestId = record.requestId;
    accepted.token = record.token;
    enqueueFrame(conn, exec::FrameType::Accepted,
                 encodeAccepted(accepted));
    // Journal before the campaign starts: from here on a daemon
    // crash re-admits the request instead of losing it.
    openJournal(record);
    tokenIndex[record.token] = record.requestId;
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.requestsAccepted;
    }
    inform("gemstoned: ",
           requestPrefix(conn.id, pending.requestId), " accepted ",
           spec.durable ? "durable " : "",
           hwsim::clusterTag(spec.cluster), " campaign",
           spec.tag.empty() ? "" : " '" + spec.tag + "'");
    requests.emplace(record.requestId, std::move(record));
    pending.spec = std::move(spec);
    conn.pending.push_back(std::move(pending));
    schedule();
}

void
Server::bindRequest(RequestRecord &record, Connection &conn)
{
    if (record.connId != 0 && record.connId != conn.id) {
        // Latest wins: a half-open previous connection may not have
        // died visibly yet; the reconnecting client is the live one.
        inform("gemstoned: ",
               requestPrefix(conn.id, record.requestId),
               " re-bound (was conn ", record.connId, ")");
    }
    record.connId = conn.id;

    ResumeInfo info;
    info.requestId = record.requestId;
    info.token = record.token;
    info.finished = record.phase == RequestPhase::Finished;
    info.replayPoints =
        static_cast<std::uint32_t>(record.pointPayloads.size());
    enqueueFrame(conn, exec::FrameType::Resumed,
                 encodeResumeInfo(info));
    // Byte-exact replay: these are the very payloads the original
    // stream carried (journal-backed for durable requests), so a
    // re-attached stream is indistinguishable from an uninterrupted
    // one.
    for (const std::string &payload : record.pointPayloads)
        enqueueFrame(conn, exec::FrameType::PointResult, payload);
    if (record.phase == RequestPhase::Finished) {
        enqueueFrame(conn, exec::FrameType::Summary,
                     record.summaryPayload);
        conn.retireOnFlush.push_back(record.requestId);
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.requestsReattached;
    }
}

void
Server::handleAttach(Connection &conn, const std::string &payload)
{
    AttachRequest request;
    if (!decodeAttachRequest(payload, request)) {
        enqueueFrame(conn, exec::FrameType::ProtocolError,
                     "undecodable attach");
        conn.closeAfterFlush = true;
        return;
    }
    auto it = tokenIndex.find(request.token);
    if (it == tokenIndex.end()) {
        // Never issued, or already retired (summary delivered and
        // artifacts swept). The client's move is an idempotent
        // re-submit of the same spec.
        Rejection rejection;
        rejection.reason = RejectReason::UnknownToken;
        rejection.message =
            "unknown or retired resume token; re-submit the spec";
        enqueueFrame(conn, exec::FrameType::Rejected,
                     encodeRejection(rejection));
        std::lock_guard<std::mutex> lock(statsMutex);
        ++counters.requestsRejected;
        return;
    }
    RequestRecord *record = findRecord(it->second);
    inform("gemstoned: ", requestPrefix(conn.id, record->requestId),
           " attach: replaying ", record->pointPayloads.size(),
           " settled points",
           record->phase == RequestPhase::Finished
               ? " and the summary" : "");
    bindRequest(*record, conn);
}

void
Server::handleCancel(Connection &conn, const std::string &payload)
{
    exec::WireReader reader(payload);
    std::uint64_t request_id = reader.u64();
    if (!reader.done()) {
        enqueueFrame(conn, exec::FrameType::ProtocolError,
                     "undecodable cancel");
        conn.closeAfterFlush = true;
        return;
    }
    // Cancel is explicit and overrides durability — but only the
    // bound connection may cancel (a detached request is cancelled
    // by attaching first).
    RequestRecord *record = findRecord(request_id);
    if (record != nullptr && record->connId == conn.id &&
        record->phase == RequestPhase::Active) {
        // Cooperative cancel; the request thread will deliver the
        // cancelled summary.
        Running *request = findRunning(request_id);
        if (request != nullptr) {
            request->cancel.requestCancel();
            return;
        }
    }
    // Still queued: settle it immediately.
    for (auto it = conn.pending.begin(); it != conn.pending.end();
         ++it) {
        if (it->requestId == request_id) {
            conn.pending.erase(it);
            Summary summary;
            summary.requestId = request_id;
            summary.outcome = RequestOutcome::Cancelled;
            enqueueFrame(conn, exec::FrameType::Summary,
                         encodeSummary(summary));
            retireRequest(request_id);
            std::lock_guard<std::mutex> lock(statsMutex);
            ++counters.requestsCancelled;
            return;
        }
    }
    // Unknown id: already finished (or never ours) — ignore.
}

void
Server::handleFrame(Connection &conn, const exec::Frame &frame)
{
    switch (frame.type) {
      case exec::FrameType::SubmitCampaign:
        handleSubmit(conn, frame.payload);
        return;
      case exec::FrameType::CancelRequest:
        handleCancel(conn, frame.payload);
        return;
      case exec::FrameType::Attach:
        // Allowed even while draining: the request was admitted
        // before the drain and its client deserves its results.
        handleAttach(conn, frame.payload);
        return;
      case exec::FrameType::QueryStatus: {
        std::string text = detail::concatToString(
            "gemstoned: ", running.size(), " active, ",
            queuedTotal(), " queued, ", connections.size(),
            " connections", draining ? ", draining" : "");
        exec::WireWriter writer;
        writer.str(text);
        enqueueFrame(conn, exec::FrameType::StatusReport,
                     writer.take());
        return;
      }
      case exec::FrameType::QueryStats:
        enqueueFrame(conn, exec::FrameType::StatsReport,
                     encodeDaemonStats(statsSnapshot()));
        return;
      default:
        // Anything else is not a client->daemon request. The stream
        // is suspect from here on: answer and hang up.
        warn("gemstoned: ", connPrefix(conn.id),
             " sent unexpected frame type ",
             static_cast<int>(frame.type), "; closing");
        enqueueFrame(conn, exec::FrameType::ProtocolError,
                     "unexpected frame type");
        conn.closeAfterFlush = true;
        return;
    }
}

void
Server::handleReadable(Connection &conn)
{
    char buffer[16384];
    for (;;) {
        ssize_t n = ::read(conn.fd, buffer, sizeof(buffer));
        if (n > 0) {
            conn.decoder.feed(buffer, static_cast<std::size_t>(n));
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // EOF or a hard error: the client is gone.
        closeConnection(conn.id);
        return;
    }
    exec::Frame frame;
    while (!conn.closeAfterFlush && conn.decoder.next(frame))
        handleFrame(conn, frame);
    if (conn.decoder.corrupt() && !conn.closeAfterFlush) {
        warn("gemstoned: ", connPrefix(conn.id),
             " sent a corrupt stream; closing");
        enqueueFrame(conn, exec::FrameType::ProtocolError,
                     "corrupt frame stream");
        conn.closeAfterFlush = true;
    }
}

void
Server::flushWritable(Connection &conn)
{
    while (conn.outPos < conn.outbuf.size()) {
        ssize_t n = ::write(conn.fd, conn.outbuf.data() + conn.outPos,
                            conn.outbuf.size() - conn.outPos);
        if (n > 0) {
            conn.outPos += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        closeConnection(conn.id);  // EPIPE etc.
        return;
    }
    conn.outbuf.clear();
    conn.outPos = 0;
    if (!conn.retireOnFlush.empty()) {
        // The final Summary reached the kernel: the request is
        // delivered, its journal artifacts can go.
        std::vector<std::uint64_t> retired;
        retired.swap(conn.retireOnFlush);
        for (std::uint64_t request_id : retired)
            retireRequest(request_id);
    }
    if (conn.closeAfterFlush)
        closeConnection(conn.id);
}

void
Server::closeConnection(std::uint64_t conn_id)
{
    auto it = connections.find(conn_id);
    if (it == connections.end())
        return;
    // This connection's work: durable requests detach — they keep
    // running (or their queue slot) and wait for an Attach; every
    // other request is cancelled exactly as before. Other clients
    // are untouched either way.
    std::size_t cancelled = 0;
    for (Pending &pending : it->second.pending) {
        RequestRecord *record = findRecord(pending.requestId);
        if (record != nullptr && record->durable) {
            record->connId = 0;
            detachedPending.push_back(std::move(pending));
        } else {
            ++cancelled;
            retireRequest(pending.requestId);
        }
    }
    it->second.pending.clear();
    std::vector<std::uint64_t> orphaned;
    for (auto &[id, record] : requests) {
        if (record.connId != conn_id)
            continue;
        record.connId = 0;
        if (record.durable) {
            if (record.phase == RequestPhase::Active) {
                inform("gemstoned: ", requestPrefix(0, id),
                       " detached by disconnect; attach with its "
                       "token to resume the stream");
            }
            continue;
        }
        if (record.phase == RequestPhase::Active) {
            Running *request = findRunning(id);
            if (request != nullptr)
                request->cancel.requestCancel();
        } else if (record.phase == RequestPhase::Finished) {
            orphaned.push_back(id);
        }
    }
    for (std::uint64_t id : orphaned)
        retireRequest(id);
    closeFd(it->second.fd);
    connections.erase(it);
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        counters.connectionsOpen = connections.size();
        counters.requestsCancelled += cancelled;
        counters.requestsQueued = queuedTotal();
    }
    inform("gemstoned: ", connPrefix(conn_id), " closed");
    schedule();
}

void
Server::schedule()
{
    while (running.size() < serverConfig.maxActive) {
        // Detached work first: requests recovered at boot or
        // orphaned by a durable client's disconnect have no
        // connection to queue on and have already waited longest.
        if (!detachedPending.empty()) {
            Pending pending = std::move(detachedPending.front());
            detachedPending.pop_front();
            startRequest(std::move(pending));
            continue;
        }
        // Round-robin: the connection after the last one served gets
        // the slot, so a client pipelining many requests shares with
        // late arrivals instead of starving them.
        Connection *next = nullptr;
        auto it = connections.upper_bound(rrCursor);
        for (std::size_t step = 0; step < connections.size();
             ++step, ++it) {
            if (it == connections.end())
                it = connections.begin();
            if (!it->second.pending.empty()) {
                next = &it->second;
                break;
            }
        }
        if (next == nullptr)
            break;
        rrCursor = next->id;
        Pending pending = std::move(next->pending.front());
        next->pending.pop_front();
        startRequest(std::move(pending));
    }
    std::lock_guard<std::mutex> lock(statsMutex);
    counters.requestsActive = running.size();
    counters.requestsQueued = queuedTotal();
}

void
Server::startRequest(Pending pending)
{
    RequestRecord *record = findRecord(pending.requestId);
    std::uint64_t conn_id = record != nullptr ? record->connId : 0;
    if (record != nullptr)
        record->phase = RequestPhase::Active;

    Running request;
    request.requestId = pending.requestId;
    request.deadline = pending.spec.deadlineSeconds > 0.0
        ? Deadline::after(pending.spec.deadlineSeconds)
        : Deadline();
    request.deadlineExpired = std::make_shared<std::atomic<bool>>(false);
    request.completed =
        std::make_shared<std::atomic<std::uint32_t>>(0);
    request.total = std::make_shared<std::atomic<std::uint32_t>>(0);

    // Durable requests checkpoint next to their journal so a
    // restarted daemon resumes the campaign; a recovered request
    // additionally skips re-streaming the points its journal already
    // holds (their original bytes replay instead — re-emitting would
    // duplicate them with a different status tag).
    RunOptions options;
    std::shared_ptr<const std::set<std::uint32_t>> replayed;
    if (record != nullptr && record->durable &&
        !serverConfig.journalDir.empty()) {
        options.checkpointPath = journalCheckpointPath(
            serverConfig.journalDir, record->token);
        if (record->recovered && !record->pointPayloads.empty()) {
            auto skip = std::make_shared<std::set<std::uint32_t>>();
            for (const std::string &payload : record->pointPayloads) {
                PointUpdate update;
                if (decodePointUpdate(payload, update))
                    skip->insert(update.index);
            }
            replayed = skip;
        }
    }

    CampaignSpec spec = std::move(pending.spec);
    std::uint64_t request_id = pending.requestId;
    CancellationToken token = request.cancel;
    auto deadline_expired = request.deadlineExpired;
    auto completed = request.completed;
    auto total = request.total;
    std::shared_ptr<exec::ResultStore> store = sharedStore;

    request.thread = std::thread([this, spec = std::move(spec),
                                  conn_id, request_id, token,
                                  deadline_expired, completed,
                                  total, store, replayed,
                                  options = std::move(options)] {
        LogContext context(requestPrefix(conn_id, request_id));
        auto sink = [this, conn_id, request_id, completed, total,
                     replayed](
                        const core::CampaignPoint &point,
                        std::size_t index, std::size_t point_count) {
            total->store(static_cast<std::uint32_t>(point_count),
                         std::memory_order_relaxed);
            completed->fetch_add(1, std::memory_order_relaxed);
            if (replayed &&
                replayed->count(static_cast<std::uint32_t>(index))) {
                // Settled and journaled before the restart; its
                // original frame replays from the journal.
                return;
            }
            PointUpdate update;
            update.requestId = request_id;
            update.index = static_cast<std::uint32_t>(index);
            update.total = static_cast<std::uint32_t>(point_count);
            update.workload = point.workload;
            update.freqMhz = point.freqMhz;
            update.statusTag = core::pointStatusTag(point.status);
            update.execSeconds = point.execSeconds;
            update.powerWatts = point.powerWatts;
            OutEvent event;
            event.connId = conn_id;
            event.requestId = request_id;
            event.type = exec::FrameType::PointResult;
            event.payload = encodePointUpdate(update);
            postEvent(std::move(event));
        };

        CampaignOutcome outcome =
            runCampaign(spec, store, sink, token, options);
        if (outcome.outcome == RequestOutcome::Cancelled &&
            deadline_expired->load(std::memory_order_relaxed)) {
            // The loop cancelled us because the request's own
            // deadline expired; report that, not a client cancel.
            outcome.outcome = RequestOutcome::Deadline;
        }

        Summary summary;
        summary.requestId = request_id;
        summary.outcome = outcome.outcome;
        summary.measuredPoints = outcome.measuredPoints;
        summary.resumedPoints = outcome.resumedPoints;
        summary.excludedPoints = outcome.excludedPoints;
        summary.cancelledPoints = outcome.cancelledPoints;
        summary.datasetCsv = std::move(outcome.datasetCsv);
        summary.warnings = std::move(outcome.warnings);
        summary.error = std::move(outcome.error);

        OutEvent reply;
        reply.connId = conn_id;
        reply.requestId = request_id;
        reply.type = exec::FrameType::Summary;
        reply.payload = encodeSummary(summary);
        postEvent(std::move(reply));

        OutEvent finished;
        finished.kind = OutEvent::Kind::Finished;
        finished.connId = conn_id;
        finished.requestId = request_id;
        finished.outcome = summary.outcome;
        postEvent(std::move(finished));
    });

    running.push_back(std::move(request));
}

void
Server::finishRequest(const OutEvent &event)
{
    auto it = std::find_if(running.begin(), running.end(),
                           [&](const Running &request) {
                               return request.requestId ==
                                   event.requestId;
                           });
    if (it == running.end())
        return;
    if (it->thread.joinable())
        it->thread.join();
    running.erase(it);
    RequestRecord *record = findRecord(event.requestId);
    std::uint64_t bound_conn = event.connId;
    if (record != nullptr) {
        record->phase = RequestPhase::Finished;
        record->outcome = event.outcome;
        record->finishedAt = std::chrono::steady_clock::now();
        bound_conn = record->connId;
        if (!record->durable && record->connId == 0) {
            // Nobody left to stream to and nothing to retain.
            retireRequest(event.requestId);
            record = nullptr;
        }
    }
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        switch (event.outcome) {
          case RequestOutcome::Ok:
            ++counters.requestsServed;
            break;
          case RequestOutcome::Cancelled:
          case RequestOutcome::Deadline:
            ++counters.requestsCancelled;
            break;
          case RequestOutcome::Error:
            ++counters.requestsFailed;
            break;
        }
    }
    inform("gemstoned: ",
           requestPrefix(bound_conn, event.requestId), " finished (",
           requestOutcomeTag(event.outcome), ")");
    schedule();
}

void
Server::drainEvents()
{
    char sink[256];
    while (::read(wakePipe[0], sink, sizeof(sink)) > 0) {
    }
    std::vector<OutEvent> batch;
    {
        std::lock_guard<std::mutex> lock(eventMutex);
        batch.swap(events);
    }
    // A settled point (or the summary) must reach the replay buffer
    // and the journal whether or not a client is attached — the whole
    // durability contract. Group commit: append the batch's lines,
    // fdatasync each touched journal once, then route the frames.
    auto warn_if_failed = [](const RequestRecord &record,
                             const Status &status) {
        if (!status.ok()) {
            warn("gemstoned: cannot journal request ",
                 record.requestId, ": ", status.toString());
        }
    };
    std::set<RequestRecord *> touched;
    for (const OutEvent &event : batch) {
        RequestRecord *record = findRecord(event.requestId);
        if (event.kind != OutEvent::Kind::Frame || record == nullptr)
            continue;
        const char *key = nullptr;
        if (event.type == exec::FrameType::PointResult) {
            record->pointPayloads.push_back(event.payload);
            key = "point";
        } else if (event.type == exec::FrameType::Summary) {
            record->summaryPayload = event.payload;
            key = "summary";
        }
        if (key == nullptr || !record->journal.isOpen())
            continue;
        warn_if_failed(*record, record->journal.append(
                                    encodeJournalLine(key, event.payload)));
        touched.insert(record);
    }
    for (RequestRecord *record : touched) {
        if (record->journal.isOpen())
            warn_if_failed(*record, record->journal.sync());
        if (!record->summaryPayload.empty())
            record->journal.close();  // nothing follows the summary
    }
    for (OutEvent &event : batch) {
        if (event.kind == OutEvent::Kind::Finished) {
            finishRequest(event);
            continue;
        }
        RequestRecord *record = findRecord(event.requestId);
        std::uint64_t target =
            record != nullptr ? record->connId : event.connId;
        auto it = connections.find(target);
        if (it == connections.end())
            continue;  // stream detached (durable) or died with conn
        enqueueFrame(it->second, event.type, event.payload);
        if (event.type == exec::FrameType::Summary &&
            record != nullptr) {
            it->second.retireOnFlush.push_back(event.requestId);
        }
    }
}

void
Server::tickHeartbeats()
{
    auto now = std::chrono::steady_clock::now();
    double elapsed =
        std::chrono::duration<double>(now - lastHeartbeat).count();
    if (elapsed < serverConfig.heartbeatSeconds)
        return;
    lastHeartbeat = now;
    for (const Running &request : running) {
        RequestRecord *record = findRecord(request.requestId);
        if (record == nullptr || record->connId == 0)
            continue;
        auto it = connections.find(record->connId);
        if (it == connections.end())
            continue;
        ProgressUpdate update;
        update.requestId = request.requestId;
        update.completed =
            request.completed->load(std::memory_order_relaxed);
        update.total = request.total->load(std::memory_order_relaxed);
        enqueueFrame(it->second, exec::FrameType::Progress,
                     encodeProgress(update));
    }
    // Queued requests heartbeat too (completed == total == 0): a
    // client with a heartbeat timeout must not declare a healthy
    // daemon dead just because every slot is busy.
    for (auto &[id, conn] : connections) {
        for (const Pending &pending : conn.pending) {
            ProgressUpdate update;
            update.requestId = pending.requestId;
            enqueueFrame(conn, exec::FrameType::Progress,
                         encodeProgress(update));
        }
    }
    tickRetention();
}

void
Server::tickRetention()
{
    auto now = std::chrono::steady_clock::now();
    std::vector<std::uint64_t> expired;
    for (const auto &[id, record] : requests) {
        if (record.phase != RequestPhase::Finished ||
            record.connId != 0) {
            continue;
        }
        double age =
            std::chrono::duration<double>(now - record.finishedAt)
                .count();
        if (!record.durable ||
            age >= serverConfig.retainFinishedSeconds) {
            expired.push_back(id);
        }
    }
    for (std::uint64_t id : expired) {
        inform("gemstoned: ", requestPrefix(0, id),
               " retention expired; retiring unclaimed results");
        retireRequest(id);
    }
}

void
Server::tickDeadlines()
{
    for (Running &request : running) {
        if (request.deadline.limited() && request.deadline.expired() &&
            !request.deadlineExpired->load(
                std::memory_order_relaxed)) {
            request.deadlineExpired->store(true,
                                           std::memory_order_relaxed);
            request.cancel.requestCancel();
            RequestRecord *record = findRecord(request.requestId);
            warn("gemstoned: ",
                 requestPrefix(record != nullptr ? record->connId : 0,
                               request.requestId),
                 " exceeded its deadline; cancelling");
        }
    }
}

void
Server::enterDrain()
{
    draining = true;
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        counters.draining = true;
    }
    // Stop accepting: close the listening sockets now so the
    // operator can immediately rebind a replacement daemon, and
    // remove the socket inode so no client connects into the void.
    closeFd(unixFd);
    closeFd(tcpFd);
    if (!serverConfig.socketPath.empty())
        ::unlink(serverConfig.socketPath.c_str());
    inform("gemstoned: draining — ", running.size(), " active and ",
           queuedTotal(), " queued requests will finish");
}

bool
Server::drainComplete() const
{
    if (!running.empty() || !detachedPending.empty())
        return false;
    for (const auto &[id, conn] : connections) {
        if (!conn.pending.empty() || conn.outPos < conn.outbuf.size())
            return false;
    }
    return true;
}

Status
Server::run()
{
    if (!started) {
        return Status(StatusCode::Internal,
                      "Server::run() before start()");
    }
    // Requests recovered from journals at boot are waiting in
    // detachedPending with no connection activity to kick the
    // scheduler — hand them slots before the first poll.
    schedule();
    for (;;) {
        if (!draining && serverConfig.drain.cancelled())
            enterDrain();
        if (draining && drainComplete())
            break;

        std::vector<struct pollfd> fds;
        std::vector<std::uint64_t> owner;  // conn id per pollfd, 0 = not a conn
        auto add = [&](int fd, short events, std::uint64_t conn_id) {
            struct pollfd p;
            p.fd = fd;
            p.events = events;
            p.revents = 0;
            fds.push_back(p);
            owner.push_back(conn_id);
        };
        add(wakePipe[0], POLLIN, 0);
        if (!draining) {
            if (unixFd >= 0)
                add(unixFd, POLLIN, 0);
            if (tcpFd >= 0)
                add(tcpFd, POLLIN, 0);
        }
        for (auto &[id, conn] : connections) {
            short events = POLLIN;
            if (conn.outPos < conn.outbuf.size())
                events |= POLLOUT;
            add(conn.fd, events, id);
        }

        int timeout_ms = std::clamp(
            static_cast<int>(serverConfig.heartbeatSeconds * 500.0),
            10, 200);
        int ready = ::poll(fds.data(),
                           static_cast<nfds_t>(fds.size()),
                           timeout_ms);
        if (ready < 0 && errno != EINTR) {
            return Status(StatusCode::IoError,
                          std::string("poll: ") +
                              std::strerror(errno));
        }

        drainEvents();
        tickDeadlines();
        tickHeartbeats();

        if (ready <= 0)
            continue;
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (fds[i].fd == wakePipe[0]) {
                continue;  // already drained above
            }
            if (owner[i] == 0) {
                acceptPending(fds[i].fd);
                continue;
            }
            auto it = connections.find(owner[i]);
            if (it == connections.end())
                continue;  // closed earlier this iteration
            if (fds[i].revents & (POLLERR | POLLNVAL)) {
                closeConnection(owner[i]);
                continue;
            }
            if (fds[i].revents & (POLLIN | POLLHUP)) {
                handleReadable(it->second);
                it = connections.find(owner[i]);
                if (it == connections.end())
                    continue;
            }
            if (fds[i].revents & POLLOUT)
                flushWritable(it->second);
        }
        // Frames queued by this iteration's reads are flushed on the
        // next poll round (the fd will report writable).
    }

    // Graceful exit: every admitted request finished and was
    // flushed. Close what is left and report the tally.
    for (auto &[id, conn] : connections)
        closeFd(conn.fd);
    connections.clear();
    {
        std::lock_guard<std::mutex> lock(statsMutex);
        counters.connectionsOpen = 0;
    }
    DaemonStats stats = statsSnapshot();
    inform("gemstoned: drained — served ", stats.requestsServed,
           ", cancelled ", stats.requestsCancelled, ", failed ",
           stats.requestsFailed, ", rejected ",
           stats.requestsRejected, "; store ", stats.storeSize, "/",
           stats.storeCapacity, " entries (", stats.storeHits,
           " hits, ", stats.storeMisses, " misses, ",
           stats.storeEvictions, " evictions)");
    return Status::okStatus();
}

} // namespace gemstone::serve
