/**
 * @file
 * Wire-level message layer of the gemstoned campaign service.
 *
 * The daemon and its clients speak the repo's length-prefixed framing
 * (exec/wireproto.hh) over a Unix-domain or loopback TCP socket. This
 * header defines the payloads riding inside those frames: a campaign
 * specification going up, and streamed point results, progress
 * heartbeats, summaries and counters coming back. Every decode
 * returns false on a malformed or truncated payload — daemon input is
 * untrusted, so a bad payload is a protocol error, never a crash.
 *
 * DESIGN.md §15 is the normative protocol description (message
 * sequences, admission control, error codes, drain semantics).
 */

#ifndef GEMSTONE_SERVE_PROTOCOL_HH
#define GEMSTONE_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hwsim/platform.hh"

namespace gemstone::serve {

/** Protocol revision; bumped on any incompatible payload change.
 *  v2: CampaignSpec::durable, resume tokens in Accepted,
 *  Attach/Resumed frames.
 *  v3: CampaignSpec OPP-grid flag (batched base runs), predecode-cache
 *  counters in DaemonStats.
 *  v4: the OPP-grid flag byte removed with the batched engine. */
inline constexpr std::uint32_t kProtocolVersion = 4;

/** Why a submit or attach was refused. */
enum class RejectReason : std::uint8_t
{
    QueueFull = 1,    //!< admission control: try again later
    Draining = 2,     //!< daemon is shutting down gracefully
    BadRequest = 3,   //!< unparseable or invalid campaign spec
    UnknownToken = 4, //!< Attach named a token the daemon never
                      //!< issued (or already retired) — re-submit
};

std::string rejectReasonTag(RejectReason reason);

/** How a request ended (Summary::outcome). */
enum class RequestOutcome : std::uint8_t
{
    Ok = 0,        //!< campaign completed
    Cancelled = 1, //!< client cancel or disconnect stopped it
    Deadline = 2,  //!< the per-request deadline expired
    Error = 3,     //!< the campaign threw; see Summary::error
};

std::string requestOutcomeTag(RequestOutcome outcome);

/**
 * One campaign request. The spec is deliberately the same surface the
 * one-shot CLI exposes (`gemstone_tool campaign`), so a daemon-served
 * campaign and a one-shot run are byte-identical by construction:
 * both feed serve::runnerConfigFor/campaignConfigFor (service.hh).
 */
struct CampaignSpec
{
    hwsim::CpuCluster cluster = hwsim::CpuCluster::BigA15;
    int g5Version = 1;
    unsigned repeats = 5;
    std::uint64_t seed = 0x0d401dULL;
    double boardVariation = 0.0;
    unsigned quorum = 3;
    unsigned maxAttempts = 8;
    /** Worker threads inside the campaign (TaskGraph/ThreadPool). */
    unsigned jobs = 1;
    /** Truncate the campaign after this many points (0 = all). */
    std::uint32_t maxPoints = 0;
    /** Per-request wall-clock budget, seconds (0 = unlimited). */
    double deadlineSeconds = 0.0;
    /** DVFS points; empty means the cluster's paper defaults. */
    std::vector<double> freqsMhz;
    /** Free-form label echoed in daemon logs. */
    std::string tag;
    /**
     * Durable request: the daemon detaches (instead of cancelling) on
     * client disconnect, journals the request so a restarted daemon
     * re-admits it, and retains settled frames for Attach replay.
     * Identical durable specs coalesce onto one request (idempotent
     * re-submit).
     */
    bool durable = false;
};

std::string encodeCampaignSpec(const CampaignSpec &spec);
bool decodeCampaignSpec(const std::string &payload, CampaignSpec &out);

/** Accepted payload: the request id plus its opaque resume token. */
struct Accepted
{
    std::uint64_t requestId = 0;
    /** "gst1-" + 32 hex chars; the Attach key. Empty never issued. */
    std::string token;
};

std::string encodeAccepted(const Accepted &accepted);
bool decodeAccepted(const std::string &payload, Accepted &out);

/** Attach payload: re-bind this connection to a live/retained
 *  request by its resume token. */
struct AttachRequest
{
    std::string token;
};

std::string encodeAttachRequest(const AttachRequest &request);
bool decodeAttachRequest(const std::string &payload,
                         AttachRequest &out);

/**
 * Resumed payload: the daemon found the token and re-bound the
 * stream. Exactly @c replayPoints settled PointResult frames follow
 * (byte-identical to the originals), then — when @c finished — the
 * request's Summary; otherwise the live stream continues.
 */
struct ResumeInfo
{
    std::uint64_t requestId = 0;
    std::string token;
    bool finished = false;
    std::uint32_t replayPoints = 0;
};

std::string encodeResumeInfo(const ResumeInfo &info);
bool decodeResumeInfo(const std::string &payload, ResumeInfo &out);

/** One streamed per-point result. */
struct PointUpdate
{
    std::uint64_t requestId = 0;
    std::uint32_t index = 0;  //!< position in campaign order
    std::uint32_t total = 0;  //!< points in the campaign
    std::string workload;
    double freqMhz = 0.0;
    std::string statusTag;  //!< pointStatusTag() of the point
    double execSeconds = 0.0;
    double powerWatts = 0.0;
};

std::string encodePointUpdate(const PointUpdate &update);
bool decodePointUpdate(const std::string &payload, PointUpdate &out);

/** Periodic progress heartbeat for one running request. */
struct ProgressUpdate
{
    std::uint64_t requestId = 0;
    std::uint32_t completed = 0;
    std::uint32_t total = 0;  //!< 0 while the point count is unknown
};

std::string encodeProgress(const ProgressUpdate &update);
bool decodeProgress(const std::string &payload, ProgressUpdate &out);

/** Final reply to one submit. */
struct Summary
{
    std::uint64_t requestId = 0;
    RequestOutcome outcome = RequestOutcome::Ok;
    std::uint32_t measuredPoints = 0;
    std::uint32_t resumedPoints = 0;
    std::uint32_t excludedPoints = 0;
    std::uint32_t cancelledPoints = 0;
    /** Collated dataset, ValidationDataset::toCsv() bytes — the
     *  byte-comparison surface against a one-shot run. */
    std::string datasetCsv;
    std::vector<std::string> warnings;
    std::string error;  //!< outcome == Error only
};

std::string encodeSummary(const Summary &summary);
bool decodeSummary(const std::string &payload, Summary &out);

/** Daemon + shared-store counters (StatsReport payload). */
struct DaemonStats
{
    std::uint64_t connectionsTotal = 0;
    std::uint64_t connectionsOpen = 0;
    std::uint64_t requestsAccepted = 0;
    std::uint64_t requestsRejected = 0;
    std::uint64_t requestsServed = 0;
    std::uint64_t requestsCancelled = 0;
    std::uint64_t requestsFailed = 0;
    std::uint64_t requestsActive = 0;
    std::uint64_t requestsQueued = 0;
    /** In-flight requests re-admitted from the journal at boot. */
    std::uint64_t requestsRecovered = 0;
    /** Successful Attach re-binds (reconnects served by replay). */
    std::uint64_t requestsReattached = 0;
    bool draining = false;
    /** Shared ResultStore counters (exec/resultstore.hh). */
    std::uint64_t storeSize = 0;
    std::uint64_t storeCapacity = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t storeInsertions = 0;
    std::uint64_t storeEvictions = 0;
    std::uint64_t storeSharedHits = 0;
    /** Content-addressed predecode cache (isa/predecode.hh). */
    std::uint64_t predecodeHits = 0;
    std::uint64_t predecodeMisses = 0;
    std::uint64_t predecodeInserts = 0;
};

std::string encodeDaemonStats(const DaemonStats &stats);
bool decodeDaemonStats(const std::string &payload, DaemonStats &out);

/** Rejected payload. */
struct Rejection
{
    std::uint64_t requestId = 0;  //!< 0 when no id was assigned
    RejectReason reason = RejectReason::BadRequest;
    std::string message;
};

std::string encodeRejection(const Rejection &rejection);
bool decodeRejection(const std::string &payload, Rejection &out);

/** Bounds enforced on decoded specs (hostile-input guards). */
inline constexpr std::size_t kMaxSpecFreqs = 64;
inline constexpr std::size_t kMaxSpecTag = 256;
/** Longest resume token a peer may send (ours are 37 chars). */
inline constexpr std::size_t kMaxTokenLength = 128;

/**
 * Validate a decoded spec against the campaign engine's own
 * invariants (quorum > 0, attempts >= quorum, bounded lists...).
 * Returns "" when valid, else a human-readable reason.
 */
std::string validateCampaignSpec(const CampaignSpec &spec);

} // namespace gemstone::serve

#endif // GEMSTONE_SERVE_PROTOCOL_HH
