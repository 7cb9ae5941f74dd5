/**
 * @file
 * Resilient measurement campaigns.
 *
 * ExperimentRunner does one naive pass per (workload, frequency)
 * point; a single hung run, stuck sensor or thermal episode lands
 * straight in the collated dataset. CampaignEngine wraps the runner
 * with the recovery policy a real lab flow needs:
 *
 *  - transient run failures (hwsim::RunError) are retried with
 *    bounded exponential backoff and deterministic, seed-derived
 *    jitter (the wait is ledgered, not slept);
 *  - each point collects a quorum of repeats and rejects outliers by
 *    the MAD criterion (mlstat/robust.hh) before collating a median
 *    representative;
 *  - a point that never converges is flagged and excluded from the
 *    dataset with a structured warning instead of poisoning it;
 *  - completed points are checkpointed to CSV as they finish, so a
 *    killed campaign resumes without rerunning finished work.
 *
 * The checkpoint stores the complete collated per-point record —
 * scalars (timing, power, temperature), the surviving repeat
 * timings and the PMC map — rendered with round-trip-exact doubles,
 * so a resumed campaign collates a dataset byte-identical to the
 * uninterrupted one. The file is created atomically, then each point
 * appends one row in place and fdatasyncs it; on load, a torn final
 * row is quarantined to a `.corrupt` sidecar and resume continues
 * from the last good row. Fault decisions are pure functions of
 * (point, attempt) — see hwsim/faults.hh — so a resumed campaign
 * observes exactly the faults the uninterrupted one would have.
 *
 * Cancellation and deadlines: a cancelled CampaignConfig::cancel
 * token stops the campaign at the next point boundary (in-flight
 * points abort at their cooperative poll sites); finished points are
 * already checkpointed, unfinished ones are marked Cancelled and
 * left for the resume. A per-attempt deadline turns a hung
 * measurement into a structured deadline_exceeded failure feeding
 * the same retry/backoff machinery as an injected fault.
 *
 * Campaigns run on the execution engine (src/exec/): every point is
 * a task pipeline (characterise-HW → run-g5 → collate/checkpoint) on
 * a TaskGraph, executed serially for jobs == 1 or on a work-stealing
 * pool otherwise, with byte-identical results either way — see
 * CampaignConfig::jobs.
 */

#ifndef GEMSTONE_GEMSTONE_CAMPAIGN_HH
#define GEMSTONE_GEMSTONE_CAMPAIGN_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "gemstone/dataset.hh"
#include "gemstone/runner.hh"
#include "util/cancellation.hh"
#include "util/status.hh"

namespace gemstone::core {

struct CampaignPoint;

/** Campaign resilience policy. */
struct CampaignConfig
{
    /** Non-outlier repeats required before a point converges. */
    unsigned quorum = 3;

    /** Attempt budget per point (successful or failed alike). */
    unsigned maxAttempts = 8;

    /** Robust-z cut for MAD outlier rejection across the quorum. */
    double madThreshold = 3.5;

    /** Exponential backoff after a failed run: base * factor^n,
     *  capped, with deterministic seed-derived jitter. The waits are
     *  accumulated in a ledger rather than actually slept. */
    double backoffBaseSeconds = 0.25;
    double backoffFactor = 2.0;
    double backoffCapSeconds = 8.0;
    std::uint64_t backoffJitterSeed = 0x0ff7e57ULL;

    /** Checkpoint CSV path; empty disables checkpointing. */
    std::string checkpointPath;

    /** Load an existing checkpoint before measuring. */
    bool resume = true;

    /** Stop after this many points (0 = no limit). Used by tests to
     *  emulate a campaign killed midway. */
    std::size_t maxPoints = 0;

    /**
     * Worker threads measuring points concurrently. 1 reproduces the
     * historical serial execution exactly; any other value produces
     * byte-identical campaign results (points are gathered in
     * campaign order, retry attempts are explicit per point, and
     * fault plans are pure functions of point identity). Only the
     * checkpoint file's row order varies with thread count, and
     * resume keys rows by point, not position.
     */
    unsigned jobs = 1;

    /**
     * Cooperative cancellation (e.g. from a SIGINT/SIGTERM handler,
     * see util/signals.hh). Once cancelled, no new point starts,
     * in-flight points abort at their poll sites, the checkpoint
     * keeps every finished point, and runValidation returns a
     * partial result with CampaignResult::cancelled set.
     */
    CancellationToken cancel;

    /**
     * Wall-clock budget for one measurement attempt; 0 = unlimited.
     * An attempt that overruns is absorbed as a deadline_exceeded
     * failure: it consumes an attempt, accrues backoff and feeds the
     * same quorum accounting as an injected run fault.
     */
    double attemptDeadlineSeconds = 0.0;

    /** Per-point progress sink type: the settled point, its index in
     *  campaign order and the campaign's point count. */
    using PointSink = std::function<void(
        const CampaignPoint &point, std::size_t index,
        std::size_t total)>;

    /**
     * Invoked once per point as its pipeline settles (measured or
     * restored from the checkpoint; cancelled points are skipped —
     * they are gathered only in the final result). Called from
     * whichever worker thread finishes the point, so the sink must be
     * thread-safe; points arrive in completion order, not campaign
     * order — consumers needing campaign order key on the index.
     * This is what lets a long-lived server (src/serve/) stream
     * incremental results while the campaign is still running.
     */
    PointSink pointSink;

    /**
     * The naive lab flow for comparison: accept the first returned
     * measurement per point, rerun crashes blindly, reject nothing.
     */
    static CampaignConfig naive();
};

/** Outcome of one campaign point. */
enum class PointStatus
{
    Clean,      //!< converged with no retries or rejections
    Recovered,  //!< converged after retries/outlier rejections
    Degraded,   //!< attempt budget exhausted below quorum: excluded
    Failed,     //!< no usable measurement at all: excluded
    Resumed,    //!< restored from the checkpoint, not re-measured
    Cancelled,  //!< abandoned by cancellation: left for the resume
};

/** Checkpoint/report tag, e.g. "recovered". */
std::string pointStatusTag(PointStatus status);

/** Tag -> status; false when the tag is unknown. */
bool parsePointStatus(const std::string &tag, PointStatus &status);

/** Per-point campaign accounting. */
struct CampaignPoint
{
    std::string workload;
    hwsim::CpuCluster cluster = hwsim::CpuCluster::BigA15;
    double freqMhz = 0.0;
    PointStatus status = PointStatus::Clean;
    unsigned attempts = 0;      //!< measurement attempts spent
    unsigned failures = 0;      //!< RunErrors/deadlines absorbed
    unsigned deadlineFailures = 0;  //!< failures that were deadlines
    unsigned rejected = 0;      //!< quorum samples rejected as outliers
    double backoffSeconds = 0.0;  //!< ledgered retry wait
    double execSeconds = 0.0;
    double powerWatts = 0.0;
    double temperatureC = 0.0;
    double voltage = 0.0;
    bool throttled = false;
    /** Surviving per-repeat timings of the collated measurement. */
    std::vector<double> repeatSeconds;
    /** Collated PMC medians (event id -> count). */
    std::map<int, double> pmc;
    /** Last structured failure absorbed while measuring (Ok if none). */
    StatusCode lastError = StatusCode::Ok;

    /** True when the point contributes to the collated dataset. */
    bool converged() const;
};

/** A finished (or interrupted) campaign. */
struct CampaignResult
{
    /** Collated dataset over the converged points only. */
    ValidationDataset dataset;

    /** Every processed point, in campaign order. */
    std::vector<CampaignPoint> points;

    unsigned measuredPoints = 0;   //!< points measured this run
    unsigned resumedPoints = 0;    //!< points restored from checkpoint
    unsigned excludedPoints = 0;   //!< degraded + failed points
    unsigned cancelledPoints = 0;  //!< abandoned by cancellation
    unsigned totalAttempts = 0;
    unsigned totalFailures = 0;
    unsigned totalDeadlineFailures = 0;  //!< deadline_exceeded retries
    unsigned totalRejected = 0;
    double backoffSeconds = 0.0;

    /** Structured warnings for excluded or checkpoint problems. */
    std::vector<std::string> warnings;

    /** False when maxPoints or cancellation stopped the campaign. */
    bool complete = true;

    /** True when the campaign was stopped by its cancellation token. */
    bool cancelled = false;
};

/**
 * Drives resilient validation campaigns on top of an
 * ExperimentRunner. Fault injection, if wanted, is armed on the
 * runner's platform (platform().injectFaults()); the engine itself
 * is oblivious to whether failures are injected or real.
 */
class CampaignEngine
{
  public:
    explicit CampaignEngine(ExperimentRunner &runner,
                            const CampaignConfig &config = {});

    /** Campaign across the paper's DVFS points of a cluster. */
    CampaignResult runValidation(hwsim::CpuCluster cluster);

    /** Campaign limited to chosen frequencies. */
    CampaignResult runValidation(hwsim::CpuCluster cluster,
                                 const std::vector<double> &freqs_mhz);

    const CampaignConfig &config() const { return campaignConfig; }

  private:
    struct CheckpointRow;

    /**
     * Measure one point to convergence (hardware side only; the g5
     * run is a separate task). Fills @p point and, when converged,
     * the hw side of @p record; structured warnings go to
     * @p warnings. Safe to call concurrently for distinct points.
     */
    void measurePoint(const workload::Workload &work,
                      hwsim::CpuCluster cluster, double freq_mhz,
                      CampaignPoint &point, ValidationRecord &record,
                      std::vector<std::string> &warnings);

    /** Ledgered wait before retry number @p failure_index. */
    double backoffDelay(const std::string &point_key,
                        unsigned failure_index) const;

    /**
     * Load checkpointed points for a cluster after quarantining any
     * torn tail; returns rows keyed by "workload@freq". Parse
     * problems become result warnings. @p retained receives the raw
     * cells of every valid row of *any* cluster, so the rewriting
     * checkpoint writer can preserve them across saves.
     */
    std::vector<CheckpointRow> loadCheckpoint(
        hwsim::CpuCluster cluster, CampaignResult &result,
        std::vector<std::vector<std::string>> &retained) const;

    ExperimentRunner &experimentRunner;
    CampaignConfig campaignConfig;
};

} // namespace gemstone::core

#endif // GEMSTONE_GEMSTONE_CAMPAIGN_HH
