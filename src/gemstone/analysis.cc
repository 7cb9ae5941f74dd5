/**
 * @file
 * Section IV analyses implementation.
 */

#include "gemstone/analysis.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "exec/parallel.hh"
#include "hwsim/pmu.hh"
#include "mlstat/correlation.hh"
#include "mlstat/descriptive.hh"
#include "powmon/eventspec.hh"
#include "util/logging.hh"

namespace gemstone::core {

namespace {

/** Records at a frequency, fatal when empty. */
std::vector<const ValidationRecord *>
recordsAt(const ValidationDataset &dataset, double freq_mhz)
{
    auto records = dataset.atFrequency(freq_mhz);
    fatal_if(records.empty(), "no records at ", freq_mhz, " MHz");
    return records;
}

} // namespace

std::size_t
WorkloadClustering::clusterOf(const std::string &workload) const
{
    for (const ClusteredWorkload &w : workloads) {
        if (w.name == workload)
            return w.cluster;
    }
    return 0;
}

WorkloadClustering
clusterWorkloads(const ValidationDataset &dataset, double freq_mhz,
                 std::size_t cluster_count, unsigned jobs)
{
    auto records = recordsAt(dataset, freq_mhz);

    // Feature matrix: HW PMC counts normalised per thousand
    // instructions and log-compressed, so no single high-magnitude
    // event dominates the distance metric. This mirrors standard
    // workload-characterisation practice and yields the paper's
    // cluster structure (a few multi-workload clusters, extreme
    // workloads in singletons).
    std::vector<int> ids = hwsim::PmuEventTable::allIds();
    std::vector<std::vector<double>> features;
    features.reserve(records.size());
    for (const ValidationRecord *r : records) {
        double insts = std::max(1.0, r->hw.pmcValue(0x08));
        std::vector<double> row;
        row.reserve(ids.size());
        for (int id : ids) {
            double per_kilo_inst =
                r->hw.pmcValue(id) / insts * 1000.0;
            row.push_back(std::log1p(per_kilo_inst));
        }
        features.push_back(std::move(row));
    }

    WorkloadClustering out;
    out.freqMhz = freq_mhz;
    out.hca = mlstat::agglomerate(
        mlstat::euclideanDistances(features, true, jobs),
        mlstat::Linkage::Average);

    std::vector<std::size_t> labels =
        out.hca.cutToClusters(cluster_count);
    std::vector<std::size_t> order = out.hca.leafOrder();

    for (std::size_t leaf : order) {
        ClusteredWorkload entry;
        entry.name = records[leaf]->work->name;
        entry.cluster = labels[leaf];
        entry.mpe = records[leaf]->execMpe();
        out.clusterSizes[entry.cluster] += 1;
        out.workloads.push_back(std::move(entry));
    }

    // Per-cluster mean MPE.
    std::map<std::size_t, std::vector<double>> by_cluster;
    for (const ClusteredWorkload &w : out.workloads)
        by_cluster[w.cluster].push_back(w.mpe);
    for (const auto &[label, mpes] : by_cluster)
        out.clusterMeanMpe[label] = mlstat::mean(mpes);
    return out;
}

std::vector<const EventCorrelation *>
CorrelationAnalysis::inCluster(std::size_t cluster) const
{
    std::vector<const EventCorrelation *> out;
    for (const EventCorrelation &e : events) {
        if (e.cluster == cluster)
            out.push_back(&e);
    }
    return out;
}

std::vector<std::pair<std::size_t, double>>
CorrelationAnalysis::clustersByMeanCorrelation() const
{
    std::map<std::size_t, std::vector<double>> grouped;
    for (const EventCorrelation &e : events)
        grouped[e.cluster].push_back(e.correlation);
    std::vector<std::pair<std::size_t, double>> out;
    for (const auto &[label, values] : grouped)
        out.emplace_back(label, mlstat::mean(values));
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) {
                  return a.second < b.second;
              });
    return out;
}

namespace {

/**
 * Shared machinery for both correlation analyses: given named series
 * (one per event) and the MPE vector, compute correlations, drop
 * degenerate series, cluster, and package.
 */
CorrelationAnalysis
correlateSeries(std::vector<std::string> names,
                std::vector<std::vector<double>> series,
                const std::vector<double> &mpe, double freq_mhz,
                double min_abs_correlation,
                std::size_t event_cluster_count,
                unsigned jobs)
{
    // Screen every series in parallel (stddev and the MPE
    // correlation are independent per series, index-addressed), then
    // filter serially in index order so the kept set and its order
    // match the historical serial loop exactly.
    std::vector<double> screened_r(series.size(), 0.0);
    std::vector<std::uint8_t> keep(series.size(), 0);
    exec::parallelFor(jobs, series.size(), [&](std::size_t i) {
        if (mlstat::stddev(series[i]) < 1e-12)
            return;
        double r = mlstat::pearson(series[i], mpe);
        if (std::fabs(r) < min_abs_correlation)
            return;
        screened_r[i] = r;
        keep[i] = 1;
    });

    std::vector<std::string> kept_names;
    std::vector<std::vector<double>> kept;
    std::vector<double> correlations;
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (!keep[i])
            continue;
        kept_names.push_back(std::move(names[i]));
        kept.push_back(std::move(series[i]));
        correlations.push_back(screened_r[i]);
    }

    CorrelationAnalysis out;
    out.freqMhz = freq_mhz;
    if (kept.empty())
        return out;

    mlstat::HcaResult hca = mlstat::agglomerate(
        mlstat::correlationDistances(kept, jobs),
        mlstat::Linkage::Average);
    std::vector<std::size_t> labels = hca.cutToClusters(
        std::min(event_cluster_count, kept.size()));

    for (std::size_t i = 0; i < kept.size(); ++i) {
        EventCorrelation e;
        e.name = kept_names[i];
        e.correlation = correlations[i];
        e.cluster = labels[i];
        out.events.push_back(std::move(e));
    }
    std::sort(out.events.begin(), out.events.end(),
              [](const EventCorrelation &a, const EventCorrelation &b) {
                  return a.correlation < b.correlation;
              });
    return out;
}

} // namespace

CorrelationAnalysis
correlatePmcEvents(const ValidationDataset &dataset, double freq_mhz,
                   std::size_t event_cluster_count, unsigned jobs)
{
    auto records = recordsAt(dataset, freq_mhz);

    std::vector<double> mpe;
    for (const ValidationRecord *r : records)
        mpe.push_back(r->execMpe());

    std::vector<std::string> names;
    std::vector<std::vector<double>> series;
    for (int id : hwsim::PmuEventTable::allIds()) {
        std::vector<double> rates;
        rates.reserve(records.size());
        for (const ValidationRecord *r : records)
            rates.push_back(r->hw.pmcRate(id));
        names.push_back(hwsim::pmcIdString(id));
        series.push_back(std::move(rates));
    }

    return correlateSeries(std::move(names), std::move(series), mpe,
                           freq_mhz, 0.0, event_cluster_count, jobs);
}

CorrelationAnalysis
correlateG5Events(const ValidationDataset &dataset, double freq_mhz,
                  double min_abs_correlation,
                  std::size_t event_cluster_count, unsigned jobs)
{
    auto records = recordsAt(dataset, freq_mhz);

    std::vector<double> mpe;
    for (const ValidationRecord *r : records)
        mpe.push_back(r->execMpe());

    // All g5 statistics, normalised per thousand committed
    // instructions so that a workload whose simulated *time* is
    // inflated by the model error does not wash out its event
    // signature. Statistics that are already ratios (rates, IPC,
    // percentages) are taken as-is.
    auto is_ratio_stat = [](const std::string &name) {
        return name.find("rate") != std::string::npos ||
            name.find("ipc") != std::string::npos ||
            name.find("cpi") != std::string::npos ||
            name.find("Pct") != std::string::npos ||
            name.find("::mean") != std::string::npos ||
            name.find("bw_") != std::string::npos;
    };

    const g5::StatSchema &schema = g5::StatSchema::instance();
    const std::vector<std::string> &stat_names = schema.names();
    const std::size_t insts_stat =
        schema.indexOf("system.cpu.committedInsts");
    std::vector<std::string> names;
    std::vector<std::vector<double>> series;
    for (std::size_t stat = 0;
         stat < records.front()->g5.stats.size(); ++stat) {
        const std::string &name = stat_names[stat];
        bool ratio = is_ratio_stat(name);
        std::vector<double> rates;
        rates.reserve(records.size());
        for (const ValidationRecord *r : records) {
            double v = r->g5.valueAt(stat);
            if (!ratio) {
                double insts = std::max(1.0, r->g5.valueAt(insts_stat));
                v = v / insts * 1000.0;
            }
            rates.push_back(v);
        }
        names.push_back(name);
        series.push_back(std::move(rates));
    }

    return correlateSeries(std::move(names), std::move(series), mpe,
                           freq_mhz, min_abs_correlation,
                           event_cluster_count, jobs);
}

namespace {

ErrorRegression
regressError(const std::vector<const ValidationRecord *> &records,
             std::vector<mlstat::Candidate> candidates,
             std::size_t max_terms, unsigned jobs)
{
    // Response: the execution-time difference in milliseconds (the
    // scale keeps coefficients in a numerically friendly range).
    std::vector<double> response;
    response.reserve(records.size());
    for (const ValidationRecord *r : records) {
        response.push_back(
            (r->hw.execSeconds - r->g5.simSeconds) * 1e3);
    }

    mlstat::StepwiseConfig config;
    config.maxTerms = max_terms;
    config.pValueStop = 0.05;
    config.jobs = jobs;
    mlstat::StepwiseResult stepwise =
        mlstat::stepwiseForward(candidates, response, config);

    ErrorRegression out;
    out.selectedNames = stepwise.names;
    out.r2 = stepwise.fit.r2;
    out.adjustedR2 = stepwise.fit.adjustedR2;
    out.stepwise = std::move(stepwise);
    return out;
}

} // namespace

ErrorRegression
regressErrorOnPmcs(const ValidationDataset &dataset, double freq_mhz,
                   std::size_t max_terms, unsigned jobs)
{
    auto records = recordsAt(dataset, freq_mhz);

    std::vector<mlstat::Candidate> candidates;
    for (int id : hwsim::PmuEventTable::allIds()) {
        mlstat::Candidate total;
        total.name = hwsim::pmcIdString(id) + " total";
        mlstat::Candidate rate;
        rate.name = hwsim::pmcIdString(id) + " rate";
        for (const ValidationRecord *r : records) {
            total.values.push_back(r->hw.pmcValue(id));
            rate.values.push_back(r->hw.pmcRate(id));
        }
        candidates.push_back(std::move(total));
        candidates.push_back(std::move(rate));
    }
    return regressError(records, std::move(candidates), max_terms,
                        jobs);
}

ErrorRegression
regressErrorOnG5Stats(const ValidationDataset &dataset,
                      double freq_mhz, std::size_t max_terms,
                      unsigned jobs)
{
    auto records = recordsAt(dataset, freq_mhz);

    const std::vector<std::string> &stat_names =
        g5::StatSchema::instance().names();
    std::vector<mlstat::Candidate> candidates;
    for (std::size_t stat = 0;
         stat < records.front()->g5.stats.size(); ++stat) {
        const std::string &name = stat_names[stat];
        mlstat::Candidate total;
        total.name = name;
        mlstat::Candidate rate;
        rate.name = name + " (rate)";
        for (const ValidationRecord *r : records) {
            total.values.push_back(r->g5.valueAt(stat));
            rate.values.push_back(r->g5.rate(name));
        }
        candidates.push_back(std::move(total));
        candidates.push_back(std::move(rate));
    }
    return regressError(records, std::move(candidates), max_terms,
                        jobs);
}

std::vector<EventComparisonRow>
compareEvents(const ValidationDataset &dataset, double freq_mhz,
              const WorkloadClustering &clustering,
              std::size_t exclude_cluster)
{
    auto records = recordsAt(dataset, freq_mhz);

    // The Fig. 6 event set: matched events with known equivalents.
    struct Entry
    {
        int id;
        const char *label;
    };
    static const Entry entries[] = {
        {0x08, "INST_RETIRED"},   {0x02, "L1I_TLB_REFILL"},
        {0x05, "L1D_TLB_REFILL"}, {0x12, "BR_PRED"},
        {0x10, "BR_MIS_PRED"},    {0x11, "CPU_CYCLES"},
        {0x14, "L1I_CACHE"},      {0x43, "L1D_CACHE_REFILL_WR"},
        {0x15, "L1D_CACHE_WB"},   {0x1B, "INST_SPEC"},
        {0x04, "L1D_CACHE"},      {0x16, "L2D_CACHE"},
    };

    std::vector<EventComparisonRow> rows;
    for (const Entry &entry : entries) {
        powmon::EventSpec spec =
            powmon::EventSpecTable::forPmc(entry.id);
        EventComparisonRow row;
        row.key = hwsim::pmcIdString(entry.id);
        row.label = entry.label;

        std::map<std::size_t, std::vector<double>> cluster_ratios;
        std::vector<double> kept_ratios;
        std::vector<double> hw_rates;
        std::vector<double> g5_rates;
        std::vector<double> hw_totals;
        std::vector<double> g5_totals;

        for (const ValidationRecord *r : records) {
            double hw_count = spec.hwCount(r->hw);
            double g5_count = spec.g5Count(r->g5);
            std::size_t cluster =
                clustering.clusterOf(r->work->name);

            if (hw_count > 0.0) {
                double ratio = g5_count / hw_count;
                cluster_ratios[cluster].push_back(ratio);
                if (cluster != exclude_cluster)
                    kept_ratios.push_back(ratio);

                hw_totals.push_back(hw_count);
                g5_totals.push_back(g5_count);
                double hw_rate = hw_count / r->hw.execSeconds;
                double g5_rate = g5_count /
                    std::max(1e-12, r->g5.simSeconds);
                hw_rates.push_back(hw_rate);
                g5_rates.push_back(g5_rate);
            }
        }

        row.meanRatio = mlstat::mean(kept_ratios);
        for (const auto &[label, ratios] : cluster_ratios)
            row.clusterRatio[label] = mlstat::mean(ratios);
        if (!hw_totals.empty()) {
            row.totalMape =
                mlstat::meanAbsPercentError(hw_totals, g5_totals);
            row.totalMpe =
                mlstat::meanPercentError(hw_totals, g5_totals);
            row.rateMape =
                mlstat::meanAbsPercentError(hw_rates, g5_rates);
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

BpAccuracySummary
summariseBpAccuracy(const ValidationDataset &dataset, double freq_mhz)
{
    auto records = recordsAt(dataset, freq_mhz);

    BpAccuracySummary out;
    std::vector<double> hw_acc;
    std::vector<double> g5_acc;
    for (const ValidationRecord *r : records) {
        double hw_branches = std::max(1.0, r->hw.pmcValue(0x12));
        double hw = 1.0 - r->hw.pmcValue(0x10) / hw_branches;
        double g5_branches = std::max(
            1.0, r->g5.value("system.cpu.branchPred.lookups"));
        double g5 = 1.0 -
            r->g5.value("system.cpu.commit.branchMispredicts") /
                g5_branches;
        hw_acc.push_back(hw);
        g5_acc.push_back(g5);
        if (g5 < out.g5Worst) {
            out.g5Worst = g5;
            out.g5WorstWorkload = r->work->name;
            out.g5WorstHwAccuracy = hw;
            out.g5WorstMpe = r->execMpe();
        }
        out.hwBest = std::max(out.hwBest, hw);
    }
    out.hwMean = mlstat::mean(hw_acc);
    out.g5Mean = mlstat::mean(g5_acc);
    return out;
}

} // namespace gemstone::core
