/**
 * @file
 * gemstoned: the event-driven campaign service daemon.
 *
 * One poll()-driven thread owns every socket: it accepts concurrent
 * client connections on a Unix-domain socket and/or loopback TCP,
 * parses length-prefixed frames (exec/wireproto.hh) with the same
 * decoder the process pool uses on untrusted input, and multiplexes
 * admitted campaign requests onto request threads that run the
 * existing execution stack (TaskGraph/ThreadPool inside the campaign
 * engine). Request threads never touch a socket — they post encoded
 * frames to the loop over a mutex-guarded event queue and wake it
 * through a self-pipe, so every byte written to a client is written
 * by the loop thread.
 *
 * Serving policy:
 *  - admission control: at most Config::maxActive requests run at
 *    once and at most Config::queueDepth more may wait; a submit
 *    beyond that is answered with Rejected(queue_full) immediately
 *    instead of being absorbed into an unbounded backlog;
 *  - fairness: the wait queue is per-connection and slots are handed
 *    out round-robin across connections, so one client pipelining
 *    many campaigns cannot starve another's single request;
 *  - shared cache: every request runs against one ResultStore (LRU
 *    capacity Config::storeCapacity, optionally backed by the
 *    flock-guarded shared CSV tier), so a repeated spec is served
 *    from memoised measurements without re-simulation;
 *  - cancellation: each request owns a CancellationToken; a client
 *    disconnect or CancelRequest cancels exactly that work at its
 *    next cooperative poll site, and a per-request deadline is
 *    enforced by the loop cancelling the token when it expires;
 *  - durability: a request submitted with CampaignSpec::durable set
 *    is *detached* — not cancelled — when its client disconnects.
 *    Every request gets an opaque resume token in Accepted; Attach
 *    re-binds a new connection to the request and replays its
 *    settled PointResult frames byte-identically before the live
 *    stream continues. Durable requests are journaled (serve/journal)
 *    through util/atomicfile, so a SIGKILLed-and-restarted daemon
 *    re-admits them and resumes their campaigns from per-request
 *    checkpoints; finished unbound durable requests are retained
 *    for Config::retainFinishedSeconds awaiting a late Attach;
 *  - drain: when Config::drain fires (SIGTERM via util/signals) the
 *    daemon stops accepting, finishes everything already admitted
 *    (detached durable work included), flushes the streams and
 *    returns from run() — exit 0.
 *
 * DESIGN.md §15 documents the protocol; §16 the durability layer.
 */

#ifndef GEMSTONE_SERVE_SERVER_HH
#define GEMSTONE_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/resultstore.hh"
#include "exec/wireproto.hh"
#include "serve/protocol.hh"
#include "util/atomicfile.hh"
#include "util/cancellation.hh"
#include "util/status.hh"

namespace gemstone::serve {

class Server
{
  public:
    struct Config
    {
        /** Unix-domain socket path; empty disables. */
        std::string socketPath;
        /** Loopback TCP port; -1 disables, 0 binds an ephemeral
         *  port (see boundTcpPort()). */
        int tcpPort = -1;
        /** Campaigns running concurrently. */
        unsigned maxActive = 2;
        /** Admitted requests allowed to wait for a slot (across all
         *  connections); 0 means a request is only admitted when a
         *  slot is immediately free. */
        unsigned queueDepth = 8;
        /** In-memory LRU bound of the shared result store. */
        std::size_t storeCapacity = 65536;
        /** Optional flock-guarded shared CSV tier (exec/sharedtier). */
        std::string sharedTierPath;
        /** Progress heartbeat period for running requests. */
        double heartbeatSeconds = 1.0;
        /** Directory for durable-request journals and their campaign
         *  checkpoints; empty disables crash-restart persistence
         *  (detach/Attach replay still works in memory). */
        std::string journalDir;
        /** How long a finished durable request with no bound
         *  connection is retained for a late Attach before its
         *  journal artifacts are swept. */
        double retainFinishedSeconds = 3600.0;
        /** Drain trigger; route SIGTERM here (util/signals.hh). */
        CancellationToken drain;
    };

    explicit Server(Config config);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind and listen on the configured sockets. */
    Status start();

    /**
     * The blocking event loop. Returns Ok after a graceful drain
     * (Config::drain fired and every admitted request finished and
     * was flushed); an error Status only on an unrecoverable loop
     * failure. Call start() first.
     */
    Status run();

    /** Programmatic drain (same path as the signal). */
    void requestDrain() { serverConfig.drain.requestCancel(); }

    /** Actual TCP port (ephemeral binds), or -1. */
    int boundTcpPort() const { return tcpPortBound; }

    /** The shared result store every request runs against. */
    const std::shared_ptr<exec::ResultStore> &store() const
    {
        return sharedStore;
    }

    /** Thread-safe counters snapshot (also served over the wire). */
    DaemonStats statsSnapshot() const;

  private:
    struct Pending
    {
        std::uint64_t requestId = 0;
        CampaignSpec spec;
    };

    struct Connection
    {
        int fd = -1;
        std::uint64_t id = 0;
        exec::FrameDecoder decoder;
        std::string outbuf;
        std::size_t outPos = 0;
        std::deque<Pending> pending;
        /** Flush the outbuf, then close (protocol error path). */
        bool closeAfterFlush = false;
        /** Requests whose final Summary sits in the outbuf; their
         *  journal artifacts are retired once it drains to the fd. */
        std::vector<std::uint64_t> retireOnFlush;
    };

    struct Running
    {
        std::uint64_t requestId = 0;
        CancellationToken cancel;
        Deadline deadline;
        /** Set by the loop before a deadline cancel, read by the
         *  request thread to tag the summary. */
        std::shared_ptr<std::atomic<bool>> deadlineExpired;
        std::shared_ptr<std::atomic<std::uint32_t>> completed;
        std::shared_ptr<std::atomic<std::uint32_t>> total;
        std::thread thread;
    };

    enum class RequestPhase
    {
        Queued,
        Active,
        Finished,
    };

    /**
     * Loop-thread registry entry for every admitted request: the
     * resume-token binding, the settled frames retained for Attach
     * replay, and the durable state mirrored to the journal. The
     * connection binding lives here — Running deliberately has no
     * conn id — so re-binding a reconnecting client is one field
     * write, not a hunt through per-connection state.
     */
    struct RequestRecord
    {
        std::uint64_t requestId = 0;
        /** Resume token issued in Accepted (Attach key). */
        std::string token;
        /** Exact encoded spec bytes as received — the idempotency
         *  key for durable re-submits and the journaled spec. */
        std::string specBytes;
        bool durable = false;
        /** Re-admitted from a journal at boot (its campaign resumes
         *  from the request checkpoint; already-journaled points are
         *  not re-streamed). */
        bool recovered = false;
        RequestPhase phase = RequestPhase::Queued;
        /** Bound connection; 0 while detached. */
        std::uint64_t connId = 0;
        /** Settled PointResult payloads in stream order — the
         *  byte-exact Attach replay source. */
        std::vector<std::string> pointPayloads;
        /** Final Summary payload once settled. */
        std::string summaryPayload;
        /** An unfinished durable request's journal, open for
         *  appends until its summary is synced or an IO error. */
        AppendFile journal;
        RequestOutcome outcome = RequestOutcome::Ok;
        std::chrono::steady_clock::time_point finishedAt{};
    };

    /** Request thread -> loop message. */
    struct OutEvent
    {
        enum class Kind { Frame, Finished };
        Kind kind = Kind::Frame;
        std::uint64_t connId = 0;
        std::uint64_t requestId = 0;
        exec::FrameType type = exec::FrameType::ProtocolError;
        std::string payload;
        RequestOutcome outcome = RequestOutcome::Ok;
    };

    Status bindUnix();
    Status bindTcp();
    void acceptPending(int listen_fd);
    void handleReadable(Connection &conn);
    void handleFrame(Connection &conn, const exec::Frame &frame);
    void handleSubmit(Connection &conn, const std::string &payload);
    void handleCancel(Connection &conn, const std::string &payload);
    void handleAttach(Connection &conn, const std::string &payload);
    void flushWritable(Connection &conn);
    void closeConnection(std::uint64_t conn_id);
    void enqueueFrame(Connection &conn, exec::FrameType type,
                      const std::string &payload);
    /** Hand free slots to queued requests: recovered/detached work
     *  first, then round-robin by connection. */
    void schedule();
    void startRequest(Pending pending);
    void finishRequest(const OutEvent &event);
    void drainEvents();
    void tickHeartbeats();
    void tickRetention();
    void tickDeadlines();
    void enterDrain();
    bool drainComplete() const;

    RequestRecord *findRecord(std::uint64_t request_id);
    Running *findRunning(std::uint64_t request_id);
    /** Re-bind @p record's stream to @p conn: Resumed header, then
     *  the byte-exact replay of every settled PointResult, then the
     *  Summary when the request already finished. */
    void bindRequest(RequestRecord &record, Connection &conn);
    /** Create a durable record's journal holding its settled state
     *  (atomic create, see serve/journal); no-op for non-durable
     *  records or without Config::journalDir. */
    void openJournal(RequestRecord &record);
    /** Forget a request: token unbound, journal artifacts removed. */
    void retireRequest(std::uint64_t request_id);
    /** Boot-time scan of Config::journalDir: finished journals are
     *  retained for Attach, unfinished ones re-admitted. */
    Status recoverJournals();

    /** Request-thread side: post an event and wake the loop. */
    void postEvent(OutEvent event);

    std::size_t queuedTotal() const;

    Config serverConfig;
    std::shared_ptr<exec::ResultStore> sharedStore;

    int unixFd = -1;
    int tcpFd = -1;
    int tcpPortBound = -1;
    int wakePipe[2] = {-1, -1};
    bool draining = false;
    bool started = false;

    std::uint64_t nextConnId = 1;
    std::uint64_t nextRequestId = 1;
    std::map<std::uint64_t, Connection> connections;
    std::vector<Running> running;
    /** Every admitted request, by id (loop thread only). */
    std::map<std::uint64_t, RequestRecord> requests;
    /** Resume token -> request id. */
    std::map<std::string, std::uint64_t> tokenIndex;
    /** Queued requests with no bound connection: recovered at boot
     *  or detached by a durable client's disconnect. Served before
     *  any per-connection queue. */
    std::deque<Pending> detachedPending;
    /** Round-robin cursor: the conn id served last. */
    std::uint64_t rrCursor = 0;

    std::chrono::steady_clock::time_point lastHeartbeat;

    mutable std::mutex eventMutex;
    std::vector<OutEvent> events;

    mutable std::mutex statsMutex;
    DaemonStats counters;
};

} // namespace gemstone::serve

#endif // GEMSTONE_SERVE_SERVER_HH
