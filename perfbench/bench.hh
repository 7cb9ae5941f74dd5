/**
 * @file
 * Shared declarations of the repository benchmark (gs_perfbench).
 *
 * run.py generates a plan from the workload seed and
 * hands it to this program; the program only executes the plan, times
 * the calls into each layer's public API, checks every output against
 * committed digests and prints one JSON result line. See README.md.
 */

#ifndef GEMSTONE_PERFBENCH_BENCH_HH
#define GEMSTONE_PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/resultstore.hh"
#include "gemstone/analysis.hh"
#include "gemstone/dataset.hh"
#include "gemstone/powereval.hh"
#include "mlstat/descriptive.hh"
#include "powmon/builder.hh"
#include "powmon/model.hh"
#include "trace.hh"

namespace perfbench {

/** One campaign of a pass, by plan id (e.g. "val-a15-v1"). */
struct CampaignId
{
    std::string id;
    bool validation = true;  //!< false: power characterisation
    gemstone::hwsim::CpuCluster cluster =
        gemstone::hwsim::CpuCluster::BigA15;
    int g5Version = 1;
};

/** Parse a plan campaign id; false when unknown. */
bool parseCampaignId(const std::string &text, CampaignId &out);

/** One daemon request of the serve mix. */
struct RequestPlan
{
    enum class Kind { Repeat, Fresh, Durable };
    Kind kind = Kind::Repeat;
    /** Repeat/Durable: index into Plan::prewarm. */
    std::size_t prewarmIndex = 0;
    /** Fresh: the spec fields that differ from the defaults. */
    gemstone::hwsim::CpuCluster cluster =
        gemstone::hwsim::CpuCluster::LittleA7;
    int g5Version = 1;
    std::uint64_t seed = 0;
    std::uint32_t maxPoints = 0;
    std::vector<double> freqsMhz;
};

const char *requestKindName(RequestPlan::Kind kind);

/** Everything run.py generated for one run. */
struct Plan
{
    unsigned jobs = 1;
    bool trace = false;
    unsigned setups = 1;
    unsigned coldPasses = 1;
    unsigned warmPasses = 1;
    std::vector<CampaignId> coldOrder;
    std::vector<CampaignId> warmOrder;
    /** Specs prewarmed into the daemon during set-up. */
    std::vector<RequestPlan> prewarm;
    /** Closed-loop request lists, one per client connection. */
    std::vector<std::vector<RequestPlan>> clients;
    /** Workload names for the traced uarch stage, in run order. */
    std::vector<std::string> stageWorkloads;
    std::string digestsPath;
    std::string tempDir;
    std::string traceOut;
    bool writeDigests = false;
};

/** Parse the plan file; fatal() on malformed input. */
Plan loadPlan(const std::string &path);

// ---------------------------------------------------------------------
// Output checking
// ---------------------------------------------------------------------

/** FNV-1a 64-bit digest of a byte string, as 16 hex digits. */
std::string digestOf(const std::string &bytes);

/**
 * Digest ledger: every checked output is recorded under a stable key
 * and compared with the committed digest file. A key seen twice in a
 * run must digest identically both times.
 */
class DigestBook
{
  public:
    explicit DigestBook(const std::string &path, bool write_mode);

    /** Record one output; returns false on a mismatch. */
    bool check(const std::string &key, const std::string &bytes);

    /** Compare two byte strings that must be identical. */
    bool same(const std::string &what, const std::string &a,
              const std::string &b);

    std::uint64_t checked() const { return checkedCount; }
    std::uint64_t mismatches() const { return mismatchCount; }

    /** Write every recorded digest (maintenance mode). */
    bool save() const;

  private:
    std::string filePath;
    bool writeMode = false;
    std::map<std::string, std::string> expected;
    std::map<std::string, std::string> seen;
    std::uint64_t checkedCount = 0;
    std::uint64_t mismatchCount = 0;
};

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/** Outputs of the five campaigns of one pass. */
struct CampaignData
{
    std::map<std::string, gemstone::core::ValidationDataset> validation;
    /** ValidationDataset::toCsv() of each validation campaign. */
    std::map<std::string, std::string> csv;
    std::map<std::string, std::vector<gemstone::powmon::PowerObservation>>
        power;
};

/** Outputs of the analysis set of one pass. */
struct AnalysisResults
{
    gemstone::core::WorkloadClustering bigClusters;
    gemstone::core::WorkloadClustering littleClusters;
    gemstone::core::CorrelationAnalysis pmcCorrelation;
    gemstone::core::CorrelationAnalysis g5Correlation;
    gemstone::core::ErrorRegression pmcRegression;
    gemstone::core::ErrorRegression g5Regression;
    std::vector<gemstone::core::EventComparisonRow> comparison;
    gemstone::powmon::SelectionResult bigSelection;
    gemstone::powmon::SelectionResult littleSelection;
    gemstone::powmon::PowerModel bigModel;
    gemstone::powmon::PowerModel littleModel;
    gemstone::core::PowerEnergyEvaluation bigEnergy;
    gemstone::core::PowerEnergyEvaluation littleEnergy;
    gemstone::core::DvfsScaling littleScaling;
};

/** Headline accuracy figures of a pass (deterministic). */
struct Accuracy
{
    double execMapePct = 0.0;
    double energyMapePct = 0.0;
};

/**
 * Run the five campaigns in plan order on fresh runners (one per g5
 * version) sharing @p store (nullptr: no store), at @p jobs, and
 * render each validation dataset's CSV.
 */
CampaignData runCampaigns(const std::vector<CampaignId> &order,
                          const std::shared_ptr<
                              gemstone::exec::ResultStore> &store,
                          unsigned jobs, Tracer *tracer);

/** Run the analysis set over one pass's data. */
AnalysisResults runAnalyses(const CampaignData &data, unsigned jobs,
                            Tracer *tracer);

/**
 * Check one pass's campaign and analysis outputs against the digest
 * book and extract its accuracy figures. False on any mismatch.
 */
bool checkPass(const CampaignData &data, const AnalysisResults &results,
               DigestBook &book, Accuracy &accuracy);

// ---------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------

double nowSeconds();
double processCpuSeconds();
double peakRssMb();

using gemstone::mlstat::median;
/** Nearest-rank percentile, p in [0, 100]. */
double percentile(std::vector<double> values, double p);

/**
 * The highest percentile of a fixed ladder (50, 75, 90, 95, 99, 99.9)
 * that still has at least ten samples beyond it, and its value.
 */
struct Tail
{
    double percentile = 50.0;
    double value = 0.0;
    std::size_t samples = 0;
};
Tail tailOf(const std::vector<double> &values);

/** Ordered metric sink: name -> (value, unit). */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;
};

} // namespace perfbench

#endif // GEMSTONE_PERFBENCH_BENCH_HH
