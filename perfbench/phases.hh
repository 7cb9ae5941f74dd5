/**
 * @file
 * The benchmark's three phases: cold regeneration, warm iteration and
 * the daemon mix.
 */

#ifndef GEMSTONE_PERFBENCH_PHASES_HH
#define GEMSTONE_PERFBENCH_PHASES_HH

#include <thread>

#include "bench.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace perfbench {

// ---------------------------------------------------------------------
// cold_reproduce
// ---------------------------------------------------------------------

struct ColdSample
{
    double wallSeconds = 0.0;
    /** Process CPU time over the pass (all threads). */
    double cpuSeconds = 0.0;
    std::uint64_t predecodeHits = 0;
    std::uint64_t predecodeMisses = 0;
    bool ok = false;
};

/** One cold pass: fresh runners, no store, jobs = plan.jobs. */
ColdSample coldPass(const Plan &plan, DigestBook &book,
                    Accuracy &accuracy);

/**
 * The traced stage-by-stage pass at jobs=1: every measureHw/runG5
 * call (each base-run-carrying call preceded by the same uarch run
 * timed alone), then the store replay and the analyses. Fills the
 * uarch/hwsim/g5 per-layer metrics; false on a mismatch.
 */
bool stagedColdPass(const Plan &plan, Tracer &tracer, Metrics &metrics,
                    DigestBook &book);

// ---------------------------------------------------------------------
// warm_iterate
// ---------------------------------------------------------------------

/** Fill a fresh store with the five campaigns (set-up work);
 *  nullptr when a campaign failed. */
std::shared_ptr<gemstone::exec::ResultStore> fillWarmStore(
    const Plan &plan);

struct WarmSample
{
    double wallSeconds = 0.0;
    gemstone::exec::ResultStore::Stats storeDelta;
    bool ok = false;
};

/** One warm pass: fresh runners replaying from @p store, analyses. */
WarmSample warmPass(const Plan &plan,
                    const std::shared_ptr<gemstone::exec::ResultStore> &store,
                    DigestBook &book, Tracer *tracer);

/**
 * Traced warm passes alternating with untraced ones: fills the
 * gemstone/powmon/exec-store/trace per-layer metrics.
 */
bool tracedWarmPasses(const Plan &plan,
                      const std::shared_ptr<gemstone::exec::ResultStore> &store,
                      Tracer &tracer, Metrics &metrics, DigestBook &book);

// ---------------------------------------------------------------------
// serve_mix
// ---------------------------------------------------------------------

/** The spec a planned request submits. */
gemstone::serve::CampaignSpec specFor(const Plan &plan,
                                      const RequestPlan &request);

/** An in-process gemstoned on a Unix socket, default settings. */
class Daemon
{
  public:
    /** Boot in @p dir (socket and journal live there). */
    explicit Daemon(const std::string &dir);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Submit every prewarm spec once, concurrently. */
    bool prewarm(const Plan &plan);

    const std::string &socketPath() const { return socket; }
    gemstone::serve::Server &server() { return *daemon; }
    /** Summary bytes the prewarm submits were served. */
    const std::vector<std::string> &prewarmCsv() const
    {
        return prewarmBytes;
    }

  private:
    std::string directory;
    std::string socket;
    std::unique_ptr<gemstone::serve::Server> daemon;
    std::thread loop;
    std::vector<std::string> prewarmBytes;
};

/** One finished request of the mix, timed at the client. */
struct RequestSample
{
    RequestPlan::Kind kind = RequestPlan::Kind::Repeat;
    std::size_t client = 0;
    std::size_t index = 0;
    bool ok = false;
    double totalMs = 0.0;
    double acceptMs = 0.0;      //!< submit -> Accepted
    double firstPointMs = 0.0;  //!< submit -> first PointResult
    double streamMs = 0.0;      //!< first PointResult -> Summary
    std::string datasetCsv;
};

struct ServeOutcome
{
    std::vector<RequestSample> requests;
    double wallSeconds = 0.0;
    gemstone::serve::DaemonStats before;
    gemstone::serve::DaemonStats after;
};

/**
 * Drive the closed-loop mix: one thread per planned client, each
 * sending slice @p round of @p rounds of its request list.
 */
ServeOutcome runServeMix(const Plan &plan, Daemon &daemon, Tracer *tracer,
                         std::size_t round = 0, std::size_t rounds = 1);

/**
 * Check served bytes against in-process serve::runCampaign bytes for
 * the same spec: fresh specs are recomputed in-process, the fixed
 * prewarm specs through their committed digests of the in-process
 * bytes. Marks mismatching requests as failed; false on any mismatch.
 */
bool checkServe(const Plan &plan, const Daemon &daemon,
                ServeOutcome &outcome, DigestBook &book);

} // namespace perfbench

#endif // GEMSTONE_PERFBENCH_PHASES_HH
