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

#include <map>
#include <string>

#include "gemstone/pointgraph.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::core {

namespace {

/**
 * Flatten a hardware measurement for the result store. The identity
 * fields (workload, cluster, frequency) live in the key; everything
 * else — scalars, per-repeat timings, PMC counts, the ground-truth
 * event record — is encoded as named doubles.
 */
exec::ResultStore::Fields
encodeHwMeasurement(const hwsim::HwMeasurement &m)
{
    exec::ResultStore::Fields fields;
    fields.emplace_back("voltage", m.voltage);
    fields.emplace_back("exec_seconds", m.execSeconds);
    fields.emplace_back("power_watts", m.powerWatts);
    fields.emplace_back("temperature_c", m.temperatureC);
    fields.emplace_back("throttled", m.throttled ? 1.0 : 0.0);
    for (std::size_t i = 0; i < m.repeatSeconds.size(); ++i) {
        fields.emplace_back("repeat_" + std::to_string(i),
                            m.repeatSeconds[i]);
    }
    for (const auto &[id, count] : m.pmc)
        fields.emplace_back("pmc_" + std::to_string(id), count);
    for (const auto &[name, value] : m.groundTruth.toMap())
        fields.emplace_back("gt_" + name, value);
    return fields;
}

bool
decodeHwMeasurement(const exec::ResultStore::Fields &fields,
                    const std::string &workload,
                    hwsim::CpuCluster cluster, double freq_mhz,
                    hwsim::HwMeasurement &m)
{
    m = hwsim::HwMeasurement{};
    m.workload = workload;
    m.cluster = cluster;
    m.freqMhz = freq_mhz;
    std::map<std::string, double> ground_truth;
    for (const auto &[name, value] : fields) {
        if (name == "voltage") {
            m.voltage = value;
        } else if (name == "exec_seconds") {
            m.execSeconds = value;
        } else if (name == "power_watts") {
            m.powerWatts = value;
        } else if (name == "temperature_c") {
            m.temperatureC = value;
        } else if (name == "throttled") {
            m.throttled = value != 0.0;
        } else if (name.rfind("repeat_", 0) == 0) {
            // Encoded in index order; Fields preserves it.
            m.repeatSeconds.push_back(value);
        } else if (name.rfind("pmc_", 0) == 0) {
            m.pmc[std::stoi(name.substr(4))] = value;
        } else if (name.rfind("gt_", 0) == 0) {
            ground_truth[name.substr(3)] = value;
        } else {
            return false;
        }
    }
    m.groundTruth.fromMap(ground_truth);
    return true;
}

exec::ResultStore::Fields
encodeG5Stats(const g5::G5Stats &stats)
{
    exec::ResultStore::Fields fields;
    fields.emplace_back("sim_seconds", stats.simSeconds);
    for (const auto &[name, value] : stats.stats)
        fields.emplace_back("stat:" + name, value);
    for (const auto &[name, value] : stats.raw.toMap())
        fields.emplace_back("raw:" + name, value);
    return fields;
}

bool
decodeG5Stats(const exec::ResultStore::Fields &fields,
              const std::string &workload, g5::G5Model model,
              int version, double freq_mhz, g5::G5Stats &stats)
{
    stats = g5::G5Stats{};
    stats.workload = workload;
    stats.model = model;
    stats.version = version;
    stats.freqMhz = freq_mhz;
    std::map<std::string, double> raw;
    for (const auto &[name, value] : fields) {
        if (name == "sim_seconds") {
            stats.simSeconds = value;
        } else if (name.rfind("stat:", 0) == 0) {
            stats.stats[name.substr(5)] = value;
        } else if (name.rfind("raw:", 0) == 0) {
            raw[name.substr(4)] = value;
        } else {
            return false;
        }
    }
    stats.raw.fromMap(raw);
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
    exec::ResultStore::Fields fields;
    if (store->lookup(key, fields)) {
        hwsim::HwMeasurement m;
        if (decodeHwMeasurement(fields, work.name, cluster, freq_mhz,
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
    exec::ResultStore::Fields fields;
    if (store->lookup(key, fields)) {
        g5::G5Stats stats;
        if (decodeG5Stats(fields, work.name, model,
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
