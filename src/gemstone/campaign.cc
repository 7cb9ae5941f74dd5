/**
 * @file
 * CampaignEngine implementation.
 */

#include "gemstone/campaign.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>

#include "exec/taskgraph.hh"
#include "exec/threadpool.hh"
#include "hwsim/faults.hh"
#include "mlstat/descriptive.hh"
#include "mlstat/robust.hh"
#include "util/atomicfile.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gemstone::core {

namespace {

/**
 * Checkpoint column order (also the file's compatibility contract).
 * Version 2: the collated repeat timings, the PMC medians and the
 * last structured error ride along, and every double is rendered
 * round-trip-exact, so a resumed campaign reconstructs the full
 * collated record bit-identically.
 */
const std::vector<std::string> kCheckpointColumns = {
    "workload",      "cluster",   "freq_mhz", "status",
    "attempts",      "failures",  "rejected", "backoff_s",
    "exec_seconds",  "power_watts", "temperature_c", "voltage",
    "throttled",     "repeats",   "pmc",      "error"};

std::string
pointKey(const std::string &workload, double freq_mhz)
{
    return workload + "@" + formatDouble(freq_mhz, 3);
}

/** One checkpoint row, in kCheckpointColumns order. */
std::vector<std::string>
encodeCheckpointRow(const CampaignPoint &point)
{
    std::vector<std::string> repeats;
    repeats.reserve(point.repeatSeconds.size());
    for (double seconds : point.repeatSeconds)
        repeats.push_back(formatExactDouble(seconds));
    std::vector<std::string> pmc;
    pmc.reserve(point.pmc.size());
    for (const auto &[id, count] : point.pmc) {
        pmc.push_back(std::to_string(id) + ":" +
                      formatExactDouble(count));
    }
    return {point.workload,
            hwsim::clusterTag(point.cluster),
            formatDouble(point.freqMhz, 3),
            pointStatusTag(point.status),
            std::to_string(point.attempts),
            std::to_string(point.failures),
            std::to_string(point.rejected),
            formatExactDouble(point.backoffSeconds),
            formatExactDouble(point.execSeconds),
            formatExactDouble(point.powerWatts),
            formatExactDouble(point.temperatureC),
            formatExactDouble(point.voltage),
            point.throttled ? "1" : "0",
            join(repeats, ";"),
            join(pmc, ";"),
            statusCodeTag(point.lastError)};
}

/**
 * The single serialised writer behind every checkpoint save: the
 * campaign's collate tasks finish on different worker threads, and
 * interleaved raw writes would corrupt the CSV. The first append
 * creates the file atomically with the header, the rows retained
 * from the loaded checkpoint (all clusters; rejected rows are
 * compacted away) and the new row. Every later append writes one
 * line in place and fdatasyncs it — a whole-file rewrite per point
 * made a checkpointed campaign on a warm result store about six times
 * slower than an unchecked one. A kill mid-append can only tear the
 * final row, which loadCheckpoint() quarantines, so every on-disk
 * state is a valid resume point.
 */
class CheckpointWriter
{
  public:
    CheckpointWriter(std::string path,
                     const std::vector<std::vector<std::string>> &seed)
        : checkpointPath(std::move(path))
    {
        document = CsvWriter::formatRow(kCheckpointColumns);
        for (const std::vector<std::string> &row : seed)
            document += CsvWriter::formatRow(row);
    }

    void
    append(const CampaignPoint &point)
    {
        if (checkpointPath.empty())
            return;
        const std::string row =
            CsvWriter::formatRow(encodeCheckpointRow(point));
        std::lock_guard<std::mutex> lock(writeMutex);
        document += row;
        Status status;
        if (!file.isOpen()) {
            status = file.create(checkpointPath, document);
        } else {
            status = file.append(row);
            if (status.ok())
                status = file.sync();
        }
        if (!status.ok()) {
            warnLimited("campaign-checkpoint-io", 3,
                        "cannot save campaign checkpoint: ",
                        status.toString());
        }
    }

  private:
    std::string checkpointPath;
    /** Every row so far: re-created whole after an IO error. */
    std::string document;
    AppendFile file;
    std::mutex writeMutex;
};

} // namespace

CampaignConfig
CampaignConfig::naive()
{
    CampaignConfig config;
    config.quorum = 1;
    config.maxAttempts = 8;       // rerun crashes blindly...
    config.madThreshold = 1e300;  // ...but never question a result
    return config;
}

std::string
pointStatusTag(PointStatus status)
{
    switch (status) {
      case PointStatus::Clean:
        return "clean";
      case PointStatus::Recovered:
        return "recovered";
      case PointStatus::Degraded:
        return "degraded";
      case PointStatus::Failed:
        return "failed";
      case PointStatus::Resumed:
        return "resumed";
      case PointStatus::Cancelled:
        return "cancelled";
    }
    return "?";
}

bool
parsePointStatus(const std::string &tag, PointStatus &status)
{
    for (PointStatus candidate :
         {PointStatus::Clean, PointStatus::Recovered,
          PointStatus::Degraded, PointStatus::Failed,
          PointStatus::Resumed, PointStatus::Cancelled}) {
        if (pointStatusTag(candidate) == tag) {
            status = candidate;
            return true;
        }
    }
    return false;
}

bool
CampaignPoint::converged() const
{
    return status == PointStatus::Clean ||
        status == PointStatus::Recovered ||
        status == PointStatus::Resumed;
}

struct CampaignEngine::CheckpointRow
{
    CampaignPoint point;
};

CampaignEngine::CampaignEngine(ExperimentRunner &runner,
                               const CampaignConfig &config)
    : experimentRunner(runner), campaignConfig(config)
{
    fatal_if(config.quorum == 0, "campaign quorum must be positive");
    fatal_if(config.maxAttempts < config.quorum,
             "attempt budget (", config.maxAttempts,
             ") below quorum (", config.quorum, ")");
    fatal_if(config.backoffFactor < 1.0,
             "backoff factor must be >= 1");
}

double
CampaignEngine::backoffDelay(const std::string &point_key,
                             unsigned failure_index) const
{
    double delay = campaignConfig.backoffBaseSeconds *
        std::pow(campaignConfig.backoffFactor,
                 static_cast<double>(failure_index));
    delay = std::min(delay, campaignConfig.backoffCapSeconds);
    // Deterministic jitter: same point, same failure, same wait —
    // independent of campaign order, like the fault plans.
    Rng jitter(campaignConfig.backoffJitterSeed ^
               hashString(point_key));
    Rng draw = jitter.fork(failure_index);
    return delay * (1.0 + 0.25 * draw.uniform());
}

namespace {

/** Parse "id:count;id:count" (round-trip-exact counts). */
bool
parsePmcField(const std::string &text, std::map<int, double> &pmc)
{
    pmc.clear();
    if (text.empty())
        return true;
    for (const std::string &item : split(text, ';')) {
        std::size_t colon = item.find(':');
        if (colon == std::string::npos)
            return false;
        try {
            std::size_t consumed = 0;
            int id = std::stoi(item.substr(0, colon));
            double count = std::stod(item.substr(colon + 1),
                                     &consumed);
            if (consumed != item.size() - colon - 1 ||
                !std::isfinite(count)) {
                return false;
            }
            pmc[id] = count;
        } catch (const std::exception &) {
            return false;
        }
    }
    return true;
}

/** Parse ";"-joined repeat timings. */
bool
parseRepeatsField(const std::string &text, std::vector<double> &out)
{
    out.clear();
    if (text.empty())
        return true;
    for (const std::string &item : split(text, ';')) {
        try {
            std::size_t consumed = 0;
            double value = std::stod(item, &consumed);
            if (consumed != item.size() || !std::isfinite(value))
                return false;
            out.push_back(value);
        } catch (const std::exception &) {
            return false;
        }
    }
    return true;
}

} // namespace

std::vector<CampaignEngine::CheckpointRow>
CampaignEngine::loadCheckpoint(
    hwsim::CpuCluster cluster, CampaignResult &result,
    std::vector<std::vector<std::string>> &retained) const
{
    std::vector<CheckpointRow> rows;
    if (campaignConfig.checkpointPath.empty() ||
        !campaignConfig.resume ||
        !std::filesystem::exists(campaignConfig.checkpointPath)) {
        return rows;
    }

    // Quarantine a torn tail (a crash mid-append, or a
    // truncation at an arbitrary byte offset) before parsing, so the
    // rows before it are recovered instead of condemned.
    Result<TailRecovery> recovery =
        recoverCsvTail(campaignConfig.checkpointPath);
    if (!recovery.ok()) {
        result.warnings.push_back("checkpoint: " +
                                  recovery.status().toString());
        warnLimited("campaign-checkpoint-recover", 3, "checkpoint ",
                    campaignConfig.checkpointPath, ": ",
                    recovery.status().toString());
    } else if (recovery.value().recovered) {
        std::string message = detail::concatToString(
            "checkpoint: quarantined ",
            recovery.value().quarantinedBytes,
            " bytes of torn tail to ", recovery.value().corruptPath);
        result.warnings.push_back(message);
        warnLimited("campaign-checkpoint-recover", 3, message);
    }
    std::error_code size_ec;
    if (std::filesystem::file_size(campaignConfig.checkpointPath,
                                   size_ec) == 0 && !size_ec) {
        // Nothing survived the quarantine: a fresh campaign.
        return rows;
    }

    CsvReader reader =
        CsvReader::parseFile(campaignConfig.checkpointPath);
    reader.requireColumns(kCheckpointColumns);
    if (reader.columnIndex("workload") == CsvReader::npos ||
        reader.columnIndex("repeats") == CsvReader::npos) {
        // Header is unusable (or a pre-v2 file without the exact
        // repeat/pmc columns); warn and rerun everything.
        for (const std::string &error : reader.errorStrings()) {
            result.warnings.push_back("checkpoint: " + error);
            warn("checkpoint ", campaignConfig.checkpointPath, ": ",
                 error);
        }
        return rows;
    }
    if (reader.hasTruncatedTail()) {
        result.warnings.push_back(
            "checkpoint: dropped a truncated final row");
    }

    std::string tag = hwsim::clusterTag(cluster);
    for (std::size_t i = 0; i < reader.rowCount(); ++i) {
        std::size_t errors_before = reader.errors().size();

        CampaignPoint point;
        point.workload = reader.cell(i, "workload");
        point.freqMhz = reader.numericCell(i, "freq_mhz");
        PointStatus recorded;
        if (!parsePointStatus(reader.cell(i, "status"), recorded)) {
            result.warnings.push_back(
                "checkpoint: unknown status '" +
                reader.cell(i, "status") + "' for " + point.workload);
            continue;
        }
        point.status = recorded;
        point.attempts = static_cast<unsigned>(
            reader.numericCell(i, "attempts"));
        point.failures = static_cast<unsigned>(
            reader.numericCell(i, "failures"));
        point.rejected = static_cast<unsigned>(
            reader.numericCell(i, "rejected"));
        point.backoffSeconds = reader.numericCell(i, "backoff_s");
        point.execSeconds = reader.numericCell(i, "exec_seconds");
        point.powerWatts = reader.numericCell(i, "power_watts");
        point.temperatureC = reader.numericCell(i, "temperature_c");
        point.voltage = reader.numericCell(i, "voltage");
        point.throttled = reader.cell(i, "throttled") == "1";
        if (!parseRepeatsField(reader.cell(i, "repeats"),
                               point.repeatSeconds) ||
            !parsePmcField(reader.cell(i, "pmc"), point.pmc)) {
            result.warnings.push_back(
                "checkpoint: corrupt repeats/pmc field for " +
                point.workload + "; re-measuring");
            continue;
        }
        if (!parseStatusCode(reader.cell(i, "error"),
                             point.lastError)) {
            result.warnings.push_back(
                "checkpoint: unknown error tag '" +
                reader.cell(i, "error") + "' for " + point.workload);
            continue;
        }

        if (reader.errors().size() != errors_before) {
            // Invalid numerics: report and re-measure the point.
            for (std::size_t e = errors_before;
                 e < reader.errors().size(); ++e) {
                result.warnings.push_back(
                    "checkpoint: " + reader.errorStrings()[e]);
            }
            continue;
        }
        // The row is valid: the writer's create must carry it
        // forward whatever its cluster. Re-gather the cells in
        // canonical column order (the file's header may be
        // reordered).
        std::vector<std::string> canonical;
        canonical.reserve(kCheckpointColumns.size());
        for (const std::string &column : kCheckpointColumns)
            canonical.push_back(reader.cell(i, column));
        retained.push_back(std::move(canonical));
        if (reader.cell(i, "cluster") != tag)
            continue;
        point.cluster = cluster;
        rows.push_back({point});
    }
    for (const std::string &error : reader.errorStrings()) {
        // Structural problems (bad arity etc.) not already surfaced.
        std::string message = "checkpoint: " + error;
        if (std::find(result.warnings.begin(), result.warnings.end(),
                      message) == result.warnings.end()) {
            result.warnings.push_back(message);
            warn("checkpoint ", campaignConfig.checkpointPath, ": ",
                 error);
        }
    }
    return rows;
}

void
CampaignEngine::measurePoint(const workload::Workload &work,
                             hwsim::CpuCluster cluster,
                             double freq_mhz, CampaignPoint &point,
                             ValidationRecord &record,
                             std::vector<std::string> &warnings)
{
    const std::string key = pointKey(work.name, freq_mhz);

    std::vector<hwsim::HwMeasurement> accepted;
    std::vector<bool> rejected_mask;
    std::size_t surviving = 0;

    auto recompute = [&]() {
        std::vector<double> times;
        times.reserve(accepted.size());
        for (const hwsim::HwMeasurement &m : accepted)
            times.push_back(m.execSeconds);
        // Timing is the convergence criterion; power outliers are
        // rejected alongside on the same samples.
        std::vector<double> powers;
        powers.reserve(accepted.size());
        for (const hwsim::HwMeasurement &m : accepted)
            powers.push_back(m.powerWatts);
        std::vector<bool> time_mask = mlstat::madOutlierMask(
            times, campaignConfig.madThreshold);
        std::vector<bool> power_mask = mlstat::madOutlierMask(
            powers, campaignConfig.madThreshold);
        rejected_mask.assign(accepted.size(), false);
        surviving = 0;
        for (std::size_t i = 0; i < accepted.size(); ++i) {
            rejected_mask[i] = time_mask[i] || power_mask[i];
            if (!rejected_mask[i])
                ++surviving;
        }
    };

    while (surviving < campaignConfig.quorum &&
           point.attempts < campaignConfig.maxAttempts) {
        ++point.attempts;
        try {
            // The attempt index is explicit (not the platform's
            // shared per-point counter), so concurrent points — and
            // resumed campaigns — see exactly the fault plans and
            // noise streams the serial flow would.
            //
            // The scope arms the per-attempt deadline and the
            // campaign's token at the platform's poll sites. A
            // CancelledError is *not* absorbed here: it unwinds to
            // the task graph, which marks the point cancelled.
            Deadline attempt_deadline =
                campaignConfig.attemptDeadlineSeconds > 0.0
                    ? Deadline::after(
                          campaignConfig.attemptDeadlineSeconds)
                    : Deadline();
            CoopScope scope(campaignConfig.cancel, attempt_deadline,
                            "campaign attempt");
            accepted.push_back(experimentRunner.measureHw(
                work, cluster, freq_mhz, point.attempts - 1));
            recompute();
        } catch (const hwsim::RunError &error) {
            ++point.failures;
            point.lastError = StatusCode::FaultInjected;
            point.backoffSeconds +=
                backoffDelay(key, point.failures - 1);
            warnLimited("campaign-retry", 5, "retrying ", key,
                        " after ", error.kind(), " (backoff ledger ",
                        formatDouble(point.backoffSeconds, 2), " s)");
        } catch (const DeadlineError &) {
            // A hung attempt is structurally no different from a
            // crashed one: absorb it into the same retry/backoff
            // accounting, tagged deadline_exceeded.
            ++point.failures;
            ++point.deadlineFailures;
            point.lastError = StatusCode::DeadlineExceeded;
            point.backoffSeconds +=
                backoffDelay(key, point.failures - 1);
            warnLimited("campaign-deadline", 5, "retrying ", key,
                        " after deadline_exceeded (attempt budget ",
                        formatDouble(
                            campaignConfig.attemptDeadlineSeconds, 3),
                        " s)");
        }
    }

    point.rejected = static_cast<unsigned>(accepted.size()) -
        static_cast<unsigned>(surviving);

    if (surviving == 0) {
        point.status = PointStatus::Failed;
        std::string message = detail::concatToString(
            "campaign: ", key, " on ", hwsim::clusterTag(cluster),
            " produced no usable measurement in ", point.attempts,
            " attempts (", point.failures,
            " run failures); excluded from collation");
        warnings.push_back(message);
        warnLimited("campaign-failed-point", 5, message);
        return;
    }

    if (surviving < campaignConfig.quorum) {
        point.status = PointStatus::Degraded;
        std::string message = detail::concatToString(
            "campaign: ", key, " on ", hwsim::clusterTag(cluster),
            " converged only ", surviving, "/",
            campaignConfig.quorum, " repeats in ", point.attempts,
            " attempts; excluded from collation");
        warnings.push_back(message);
        warnLimited("campaign-degraded-point", 5, message);
        // The scalars below are still filled in so the checkpoint
        // records what was seen, but the dataset skips the point.
    } else {
        point.status = (point.failures == 0 && point.rejected == 0)
            ? PointStatus::Clean
            : PointStatus::Recovered;
    }

    // Median-collate the surviving repeats into one representative
    // measurement.
    std::vector<const hwsim::HwMeasurement *> kept;
    for (std::size_t i = 0; i < accepted.size(); ++i) {
        if (!rejected_mask[i])
            kept.push_back(&accepted[i]);
    }
    auto median_of = [&kept](auto &&field) {
        std::vector<double> values;
        values.reserve(kept.size());
        for (const hwsim::HwMeasurement *m : kept)
            values.push_back(field(*m));
        return mlstat::median(std::move(values));
    };

    hwsim::HwMeasurement collated = *kept.front();
    collated.execSeconds = median_of(
        [](const hwsim::HwMeasurement &m) { return m.execSeconds; });
    collated.powerWatts = median_of(
        [](const hwsim::HwMeasurement &m) { return m.powerWatts; });
    collated.temperatureC = median_of([](
        const hwsim::HwMeasurement &m) { return m.temperatureC; });
    // The surviving per-repeat medians become the repeat record.
    collated.repeatSeconds.clear();
    for (const hwsim::HwMeasurement *m : kept)
        collated.repeatSeconds.push_back(m->execSeconds);
    // A genuine thermal limit throttles every surviving repeat; an
    // injected episode is the minority and was rejected or outvoted.
    std::size_t throttled_count = 0;
    for (const hwsim::HwMeasurement *m : kept)
        throttled_count += m->throttled ? 1 : 0;
    collated.throttled = throttled_count * 2 > kept.size();
    // PMC counts: median per event over the repeats that captured it
    // (multiplex-loss faults leave holes in individual repeats).
    collated.pmc.clear();
    std::map<int, std::vector<double>> per_event;
    for (const hwsim::HwMeasurement *m : kept) {
        for (const auto &[id, count] : m->pmc)
            per_event[id].push_back(count);
    }
    for (auto &[id, counts] : per_event)
        collated.pmc[id] = mlstat::median(std::move(counts));

    point.execSeconds = collated.execSeconds;
    point.powerWatts = collated.powerWatts;
    point.temperatureC = collated.temperatureC;
    point.voltage = collated.voltage;
    point.throttled = collated.throttled;
    // The checkpoint carries the full collated record (repeats and
    // PMC medians), so a resume rebuilds it bit-identically.
    point.repeatSeconds = collated.repeatSeconds;
    point.pmc = collated.pmc;

    record.work = &work;
    record.cluster = cluster;
    record.freqMhz = freq_mhz;
    record.hw = std::move(collated);
    // The g5 side of the record is a separate task (runG5), which
    // overlaps with other points' hardware characterisation.
}

CampaignResult
CampaignEngine::runValidation(hwsim::CpuCluster cluster)
{
    return runValidation(cluster,
                         ExperimentRunner::frequenciesFor(cluster));
}

CampaignResult
CampaignEngine::runValidation(hwsim::CpuCluster cluster,
                              const std::vector<double> &freqs_mhz)
{
    CampaignResult result;
    result.dataset.cluster = cluster;
    result.dataset.g5Version = experimentRunner.config().g5Version;
    result.dataset.freqsMhz = freqs_mhz;

    // Index the checkpoint by point key. Valid rows of any cluster
    // are retained verbatim so the writer's create preserves them.
    std::vector<std::vector<std::string>> retained;
    std::map<std::string, CampaignPoint> finished;
    for (const CheckpointRow &row :
         loadCheckpoint(cluster, result, retained)) {
        finished[pointKey(row.point.workload, row.point.freqMhz)] =
            row.point;
    }

    // Enumerate the campaign's points in canonical order, truncated
    // at maxPoints (an emulated kill). Everything downstream indexes
    // into this list, so the collated output order never depends on
    // which worker finished first.
    struct PointTask
    {
        const workload::Workload *work = nullptr;
        double freq = 0.0;
        const CampaignPoint *resumed = nullptr;  //!< checkpoint hit
    };
    std::vector<PointTask> tasks;
    bool truncated = false;
    for (const workload::Workload *work :
         workload::Suite::validationSet()) {
        for (double freq : freqs_mhz) {
            if (campaignConfig.maxPoints != 0 &&
                tasks.size() >= campaignConfig.maxPoints) {
                truncated = true;
                break;
            }
            PointTask task;
            task.work = work;
            task.freq = freq;
            auto it = finished.find(pointKey(work->name, freq));
            if (it != finished.end())
                task.resumed = &it->second;
            tasks.push_back(task);
        }
        if (truncated)
            break;
    }

    const std::size_t count = tasks.size();
    std::vector<CampaignPoint> points(count);
    std::vector<ValidationRecord> records(count);
    std::vector<std::vector<std::string>> pointWarnings(count);
    /** Final pipeline node per point; settles the point's fate. */
    std::vector<exec::TaskGraph::NodeId> finalNode(count);
    CheckpointWriter checkpoint(campaignConfig.checkpointPath,
                                retained);

    // One pipeline per point: characterise-HW → run-g5 →
    // collate/checkpoint. Node ids ascend in campaign order, so
    // runSerial() reproduces the historical execution order exactly
    // and run() rethrows deterministically on failure.
    exec::TaskGraph graph;

    // The first measured point of each workload computes its two
    // 1.0 GHz base runs (hardware shape and g5 twin); the hw and g5
    // nodes of the workload's later points depend on it, so they
    // retime filled slots instead of blocking pool threads on the
    // once-flags. The once-flags stay the correctness guard: the
    // edge only orders the work (DESIGN.md §10).
    std::vector<exec::TaskGraph::NodeId> hw_base, g5_base;

    for (std::size_t i = 0; i < count; ++i) {
        const PointTask &task = tasks[i];
        const std::string label = pointKey(task.work->name, task.freq);
        if (i > 0 && tasks[i - 1].work != task.work) {
            hw_base.clear();
            g5_base.clear();
        }
        if (task.resumed != nullptr) {
            // Restored from the checkpoint: never re-measured; only
            // a converged point needs its g5 twin re-simulated.
            finalNode[i] = graph.add(
                "resume:" + label,
                [this, &task, &points, &records, cluster, i, count] {
                    CampaignPoint point = *task.resumed;
                    bool was_converged = point.converged();
                    point.status = PointStatus::Resumed;
                    if (!was_converged) {
                        // A recorded failure stays excluded; keep
                        // its original tag in the report.
                        point.status = task.resumed->status;
                    } else {
                        ValidationRecord &record = records[i];
                        record.work = task.work;
                        record.cluster = cluster;
                        record.freqMhz = task.freq;
                        record.hw.workload = task.work->name;
                        record.hw.cluster = cluster;
                        record.hw.freqMhz = task.freq;
                        record.hw.voltage = point.voltage;
                        record.hw.execSeconds = point.execSeconds;
                        // The v2 checkpoint carries the surviving
                        // repeats and the PMC medians bit-exactly;
                        // the rebuilt record matches what the
                        // uninterrupted campaign collated.
                        record.hw.repeatSeconds = point.repeatSeconds;
                        if (record.hw.repeatSeconds.empty()) {
                            record.hw.repeatSeconds = {
                                point.execSeconds};
                        }
                        record.hw.pmc = point.pmc;
                        record.hw.powerWatts = point.powerWatts;
                        record.hw.temperatureC = point.temperatureC;
                        record.hw.throttled = point.throttled;
                        record.g5 = experimentRunner.runG5(
                            *task.work, cluster, task.freq);
                    }
                    points[i] = std::move(point);
                    if (campaignConfig.pointSink)
                        campaignConfig.pointSink(points[i], i, count);
                });
            continue;
        }
        exec::TaskGraph::NodeId hw_node = graph.add(
            "hw:" + label,
            [this, &task, &points, &records, &pointWarnings, cluster,
             i] {
                CampaignPoint &point = points[i];
                point.workload = task.work->name;
                point.cluster = cluster;
                point.freqMhz = task.freq;
                measurePoint(*task.work, cluster, task.freq, point,
                             records[i], pointWarnings[i]);
            },
            hw_base);
        exec::TaskGraph::NodeId g5_node = graph.add(
            "g5:" + label, [this, &task, &records, cluster, i] {
                // Unconditional: a non-converged point's record is
                // discarded at collation, so simulating it is
                // output-invisible (and the result is memoised for
                // the eventual successful rerun).
                records[i].g5 = experimentRunner.runG5(
                    *task.work, cluster, task.freq);
            },
            g5_base);
        if (hw_base.empty()) {
            hw_base = {hw_node};
            g5_base = {g5_node};
        }
        finalNode[i] = graph.add(
            "collate:" + label,
            [this, &points, &checkpoint, i, count] {
                checkpoint.append(points[i]);
                if (campaignConfig.pointSink)
                    campaignConfig.pointSink(points[i], i, count);
            },
            {hw_node, g5_node});
    }

    try {
        if (campaignConfig.jobs <= 1) {
            graph.runSerial(campaignConfig.cancel);
        } else {
            exec::ThreadPool pool(campaignConfig.jobs);
            pool.setCancellationToken(campaignConfig.cancel);
            graph.run(pool, campaignConfig.cancel);
        }
    } catch (const CancelledError &) {
        // The graph settled (every in-flight node drained) before
        // throwing: finished points are checkpointed, abandoned ones
        // are gathered below as Cancelled. Genuine node errors take
        // precedence over this and propagate to the caller.
        result.cancelled = true;
        result.complete = false;
    }

    // Gather in campaign order: every aggregate below is independent
    // of completion order and thread count.
    for (std::size_t i = 0; i < count; ++i) {
        CampaignPoint &point = points[i];
        for (std::string &warning : pointWarnings[i])
            result.warnings.push_back(std::move(warning));
        if (!graph.succeeded(finalNode[i])) {
            // Only reachable on a cancelled run: the point's
            // pipeline was abandoned somewhere before its final
            // node, so its checkpoint row was never written and the
            // resume will take it from the top.
            point.workload = tasks[i].work->name;
            point.cluster = cluster;
            point.freqMhz = tasks[i].freq;
            point.status = PointStatus::Cancelled;
            point.lastError = StatusCode::Cancelled;
            ++result.cancelledPoints;
            result.points.push_back(std::move(point));
            continue;
        }
        if (tasks[i].resumed != nullptr) {
            if (!point.converged())
                ++result.excludedPoints;
            else
                result.dataset.records.push_back(
                    std::move(records[i]));
            ++result.resumedPoints;
        } else {
            ++result.measuredPoints;
            result.totalAttempts += point.attempts;
            result.totalFailures += point.failures;
            result.totalDeadlineFailures += point.deadlineFailures;
            result.totalRejected += point.rejected;
            result.backoffSeconds += point.backoffSeconds;
            if (point.converged())
                result.dataset.records.push_back(
                    std::move(records[i]));
            else
                ++result.excludedPoints;
        }
        result.points.push_back(std::move(point));
    }

    if (truncated) {
        result.complete = false;
        inform("campaign stopped after ", result.points.size(),
               " points (maxPoints)");
    }
    if (result.cancelled) {
        inform("campaign cancelled: ", result.cancelledPoints,
               " of ", count, " points left for the resume");
    }
    return result;
}

} // namespace gemstone::core
