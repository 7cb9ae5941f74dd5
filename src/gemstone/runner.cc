/**
 * @file
 * ExperimentRunner implementation.
 *
 * The experiment loops run on the point graph (gemstone/pointgraph.hh):
 * each (workload, frequency) point becomes one hw node (plus a g5
 * node for validation) and the results are gathered by point index,
 * so the collated dataset is bit-identical at any thread count.
 * jobs == 1 runs the same graph inline through runSerial().
 */

#include "gemstone/runner.hh"

#include <algorithm>
#include <charconv>
#include <functional>
#include <iterator>
#include <mutex>
#include <string>
#include <unordered_map>

#include "gemstone/pointgraph.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::core {

namespace {

using exec::ResultStore;

/** The hw record's leading scalar fields, in record order. */
const char *const kHwScalars[] = {"voltage", "exec_seconds",
                                  "power_watts", "temperature_c",
                                  "throttled"};
constexpr std::size_t kHwScalarCount = std::size(kHwScalars);

/**
 * Names of an hw record: the scalars, one repeat_<i> per timing
 * observation, one pmc_<id> per captured PMC (PMC-loss faults drop
 * some), then gt_<field> for the whole ground-truth event record.
 */
ResultStore::FieldNames
hwRecordNames(std::size_t repeats, const std::vector<int> &pmc_ids)
{
    ResultStore::FieldNames names(std::begin(kHwScalars),
                                  std::end(kHwScalars));
    for (std::size_t i = 0; i < repeats; ++i)
        names.push_back("repeat_" + std::to_string(i));
    for (int id : pmc_ids)
        names.push_back("pmc_" + std::to_string(id));
    for (const char *field : uarch::EventCounts::fieldNames())
        names.push_back(std::string("gt_") + field);
    return names;
}

/** Where an hw record layout keeps its repeats and PMCs. */
struct HwLayout
{
    /** False when the names are not a layout this build writes. */
    bool valid = false;
    std::size_t repeats = 0;
    /** Ids of the pmc_ fields, ascending, after the repeats. */
    std::vector<int> pmcIds;
};

HwLayout
parseHwLayout(const ResultStore::FieldNames &names)
{
    HwLayout layout;
    std::size_t i = kHwScalarCount;
    while (i < names.size() &&
           names[i] == "repeat_" + std::to_string(layout.repeats)) {
        ++layout.repeats;
        ++i;
    }
    for (; i < names.size() && names[i].rfind("pmc_", 0) == 0; ++i) {
        int id = 0;
        const char *begin = names[i].data() + 4;
        const char *end = names[i].data() + names[i].size();
        auto [stop, error] = std::from_chars(begin, end, id);
        if (error != std::errc() || stop != end)
            return layout;
        layout.pmcIds.push_back(id);
    }
    // Valid only as this build writes it: ids strictly ascending (a
    // std::map's order) and every name in place.
    layout.valid =
        std::adjacent_find(layout.pmcIds.begin(), layout.pmcIds.end(),
                           std::greater_equal<int>()) ==
            layout.pmcIds.end() &&
        hwRecordNames(layout.repeats, layout.pmcIds) == names;
    return layout;
}

/**
 * The layout of an interned hw name list, parsed once per list.
 * References stay valid: map nodes never move.
 */
const HwLayout &
hwLayoutOf(const ResultStore::FieldNames *names)
{
    static std::mutex layoutsMutex;
    static std::unordered_map<const ResultStore::FieldNames *, HwLayout>
        layouts;
    std::lock_guard<std::mutex> lock(layoutsMutex);
    auto [it, fresh] = layouts.try_emplace(names);
    if (fresh)
        it->second = parseHwLayout(*names);
    return it->second;
}

/**
 * Flatten a hardware measurement for the result store. The identity
 * fields (workload, cluster, frequency) live in the key.
 */
ResultStore::Record
encodeHwMeasurement(const hwsim::HwMeasurement &m)
{
    std::vector<int> pmc_ids;
    for (const auto &[id, count] : m.pmc)
        pmc_ids.push_back(id);
    ResultStore::Record record;
    record.names = ResultStore::intern(
        hwRecordNames(m.repeatSeconds.size(), pmc_ids));
    std::vector<double> &v = record.values;
    v = {m.voltage, m.execSeconds, m.powerWatts, m.temperatureC,
         m.throttled ? 1.0 : 0.0};
    v.insert(v.end(), m.repeatSeconds.begin(), m.repeatSeconds.end());
    for (const auto &[id, count] : m.pmc)
        v.push_back(count);
    v.resize(v.size() + uarch::EventCounts::kFieldCount);
    m.groundTruth.writeFields(v.data() + v.size() -
                              uarch::EventCounts::kFieldCount);
    return record;
}

bool
decodeHwMeasurement(const ResultStore::Record &record,
                    const std::string &workload,
                    hwsim::CpuCluster cluster, double freq_mhz,
                    hwsim::HwMeasurement &m)
{
    const HwLayout &layout = hwLayoutOf(record.names);
    if (!layout.valid)
        return false;
    const double *v = record.values.data();
    m.workload = workload;
    m.cluster = cluster;
    m.freqMhz = freq_mhz;
    m.voltage = v[0];
    m.execSeconds = v[1];
    m.powerWatts = v[2];
    m.temperatureC = v[3];
    m.throttled = v[4] != 0.0;
    v += kHwScalarCount;
    m.repeatSeconds.assign(v, v + layout.repeats);
    v += layout.repeats;
    for (int id : layout.pmcIds)
        m.pmc.emplace_hint(m.pmc.end(), id, *v++);
    m.groundTruth.readFields(v);
    return true;
}

/**
 * The one g5 record layout: sim_seconds, stat:<name> for every
 * StatSchema stat, raw:<field> for the whole raw event record.
 */
const ResultStore::FieldNames *
g5RecordNames()
{
    static const ResultStore::FieldNames *const names = [] {
        ResultStore::FieldNames list{"sim_seconds"};
        for (const std::string &name : g5::StatSchema::instance().names())
            list.push_back("stat:" + name);
        for (const char *field : uarch::EventCounts::fieldNames())
            list.push_back(std::string("raw:") + field);
        return ResultStore::intern(std::move(list));
    }();
    return names;
}

ResultStore::Record
encodeG5Stats(const g5::G5Stats &stats)
{
    ResultStore::Record record;
    record.names = g5RecordNames();
    std::vector<double> &v = record.values;
    v.reserve(record.names->size());
    v.push_back(stats.simSeconds);
    v.insert(v.end(), stats.stats.begin(), stats.stats.end());
    v.resize(record.names->size());
    stats.raw.writeFields(v.data() + v.size() -
                          uarch::EventCounts::kFieldCount);
    return record;
}

bool
decodeG5Stats(const ResultStore::Record &record,
              const std::string &workload, g5::G5Model model,
              int version, double freq_mhz, g5::G5Stats &stats)
{
    if (record.names != g5RecordNames())
        return false;
    const double *v = record.values.data();
    stats.workload = workload;
    stats.model = model;
    stats.version = version;
    stats.freqMhz = freq_mhz;
    stats.simSeconds = v[0];
    stats.stats.assign(v + 1, v + 1 + g5::StatSchema::instance().size());
    stats.raw.readFields(v + 1 + stats.stats.size());
    return true;
}

/** The run-wide deadline of one experiment entry point. */
Deadline
runDeadlineFor(const RunnerConfig &config)
{
    return config.runDeadlineSeconds > 0.0
        ? Deadline::after(config.runDeadlineSeconds)
        : Deadline();
}

} // namespace

ExperimentRunner::ExperimentRunner(const RunnerConfig &config)
    : runnerConfig(config),
      board(std::make_unique<hwsim::OdroidXu3Platform>(
          config.seed, config.boardVariation)),
      sim(std::make_unique<g5::G5Simulation>(config.g5Version))
{
}

const std::vector<double> &
ExperimentRunner::frequenciesFor(hwsim::CpuCluster cluster)
{
    // Section III: 200/600/1000/1400 MHz on the A7 and
    // 600/1000/1400/1800 MHz on the A15 (2 GHz throttles).
    static const std::vector<double> little = {200.0, 600.0, 1000.0,
                                               1400.0};
    static const std::vector<double> big = {600.0, 1000.0, 1400.0,
                                            1800.0};
    return cluster == hwsim::CpuCluster::LittleA7 ? little : big;
}

g5::G5Model
ExperimentRunner::modelFor(hwsim::CpuCluster cluster)
{
    return cluster == hwsim::CpuCluster::LittleA7
        ? g5::G5Model::Ex5Little
        : g5::G5Model::Ex5Big;
}

void
ExperimentRunner::attachResultStore(
    std::shared_ptr<exec::ResultStore> new_store)
{
    store = std::move(new_store);
}

std::string
ExperimentRunner::hwKey(const workload::Workload &work,
                        hwsim::CpuCluster cluster, double freq_mhz,
                        unsigned attempt) const
{
    // Every input the measurement depends on is part of the address;
    // anything less would alias results across configurations.
    return detail::concatToString(
        "hw|seed=", runnerConfig.seed,
        "|var=", formatDouble(runnerConfig.boardVariation, 9),
        "|faults=", board->faults().config().signature(),
        "|repeats=", runnerConfig.repeats, "|", work.name, "|",
        hwsim::clusterTag(cluster), "|", formatDouble(freq_mhz, 3),
        "|a", attempt);
}

std::string
ExperimentRunner::g5Key(const workload::Workload &work,
                        hwsim::CpuCluster cluster,
                        double freq_mhz) const
{
    return detail::concatToString(
        "g5|v", runnerConfig.g5Version, "|",
        g5::modelTag(modelFor(cluster)), "|", work.name, "|",
        formatDouble(freq_mhz, 3));
}

hwsim::HwMeasurement
ExperimentRunner::measureHw(const workload::Workload &work,
                            hwsim::CpuCluster cluster,
                            double freq_mhz, unsigned attempt)
{
    // Make the runner's token visible to the platform's poll points
    // even when measureHw is called outside the experiment loops
    // (the campaign layer adds its own deadline scopes on top).
    CoopScope scope(runnerConfig.cancel, Deadline(), "measureHw");
    if (!store) {
        return board->measureAttempt(work, cluster, freq_mhz, attempt,
                                     runnerConfig.repeats);
    }
    std::string key = hwKey(work, cluster, freq_mhz, attempt);
    ResultStore::Record record;
    if (store->lookup(key, record)) {
        hwsim::HwMeasurement m;
        if (decodeHwMeasurement(record, work.name, cluster, freq_mhz,
                                m)) {
            return m;
        }
        warnLimited("resultstore-decode", 3,
                    "undecodable store entry for ", key,
                    "; re-measuring");
    }
    // A RunError propagates before the insert, so failures are never
    // cached and a warm store replays them deterministically.
    hwsim::HwMeasurement m = board->measureAttempt(
        work, cluster, freq_mhz, attempt, runnerConfig.repeats);
    store->insert(key, encodeHwMeasurement(m));
    return m;
}

g5::G5Stats
ExperimentRunner::runG5(const workload::Workload &work,
                        hwsim::CpuCluster cluster, double freq_mhz)
{
    CoopScope scope(runnerConfig.cancel, Deadline(), "runG5");
    g5::G5Model model = modelFor(cluster);
    if (!store)
        return sim->run(work, model, freq_mhz);
    std::string key = g5Key(work, cluster, freq_mhz);
    ResultStore::Record record;
    if (store->lookup(key, record)) {
        g5::G5Stats stats;
        if (decodeG5Stats(record, work.name, model,
                          runnerConfig.g5Version, freq_mhz, stats)) {
            return stats;
        }
        warnLimited("resultstore-decode", 3,
                    "undecodable store entry for ", key,
                    "; re-simulating");
    }
    g5::G5Stats stats = sim->run(work, model, freq_mhz);
    store->insert(key, encodeG5Stats(stats));
    return stats;
}

ValidationDataset
ExperimentRunner::runValidation(hwsim::CpuCluster cluster)
{
    return runValidation(cluster, frequenciesFor(cluster));
}

ValidationDataset
ExperimentRunner::runValidation(hwsim::CpuCluster cluster,
                                const std::vector<double> &freqs_mhz)
{
    ValidationDataset dataset;
    dataset.cluster = cluster;
    dataset.g5Version = runnerConfig.g5Version;
    dataset.freqsMhz = freqs_mhz;

    const Deadline deadline = runDeadlineFor(runnerConfig);
    const PointPlan plan(workload::Suite::validationSet(), freqs_mhz);
    // Records are gathered by point index: the dataset order never
    // depends on completion order. Declared before the graph so the
    // storage outlives any in-flight node.
    std::vector<ValidationRecord> records(plan.points.size());
    PointBodies bodies;
    bodies.hw = [this, &plan, &records, cluster, deadline](std::size_t i) {
        CoopScope scope(runnerConfig.cancel, deadline, "validation");
        const PlannedPoint &point = plan.points[i];
        records[i].work = point.work;
        records[i].cluster = cluster;
        records[i].freqMhz = point.freqMhz;
        records[i].hw = measureHw(*point.work, cluster, point.freqMhz, 0);
    };
    bodies.g5 = [this, &plan, &records, cluster, deadline](std::size_t i) {
        CoopScope scope(runnerConfig.cancel, deadline, "validation");
        const PlannedPoint &point = plan.points[i];
        records[i].g5 = runG5(*point.work, cluster, point.freqMhz);
    };
    exec::TaskGraph graph;
    addPointGraph(graph, plan, bodies);
    runPointGraph(graph, runnerConfig.jobs, runnerConfig.cancel);
    dataset.records = std::move(records);
    return dataset;
}

std::vector<powmon::PowerObservation>
ExperimentRunner::runPowerCharacterisation(hwsim::CpuCluster cluster)
{
    const Deadline deadline = runDeadlineFor(runnerConfig);
    std::vector<const workload::Workload *> works;
    for (const workload::Workload &work : workload::Suite::all())
        works.push_back(&work);
    const PointPlan plan(works, frequenciesFor(cluster));

    std::vector<powmon::PowerObservation> observations(
        plan.points.size());
    PointBodies bodies;
    bodies.hw = [this, &plan, &observations, cluster,
                 deadline](std::size_t i) {
        CoopScope scope(runnerConfig.cancel, deadline, "power");
        const PlannedPoint &point = plan.points[i];
        observations[i].measurement =
            measureHw(*point.work, cluster, point.freqMhz, 0);
    };
    exec::TaskGraph graph;
    addPointGraph(graph, plan, bodies);
    runPointGraph(graph, runnerConfig.jobs, runnerConfig.cancel);
    return observations;
}

} // namespace gemstone::core
