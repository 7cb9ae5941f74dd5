/**
 * @file
 * The shared persistent result-store tier: publish/absorb exchange
 * between attached stores, old store files opening as a tier, and —
 * the point of
 * the flock discipline — multiple processes hammering one tier file
 * without ever producing a torn, interleaved or duplicated row. Also
 * the runner's typed store records: a committed tier file keeps its
 * format, a warm hit's allocations are counted exactly, and a record
 * this build does not write is recomputed rather than served.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "exec/resultstore.hh"
#include "exec/sharedtier.hh"
#include "gemstone/runner.hh"
#include "serve/service.hh"
#include "util/arena.hh"
#include "util/logging.hh"
#include "workload/workload.hh"

using namespace gemstone;
using exec::ResultStore;

namespace {

/** Unique scratch path, removed on destruction. */
struct ScratchFile
{
    std::string path;
    explicit ScratchFile(const std::string &name)
        : path((std::filesystem::temp_directory_path() /
                name).string())
    {
        std::filesystem::remove(path);
    }
    ~ScratchFile() { std::filesystem::remove(path); }
};

ResultStore::Record
sampleFields(double seed)
{
    return {ResultStore::intern(
                {"exec_seconds", "power_watts", "energy_joules"}),
            {seed * 0.125, seed + 1.0 / 3.0, seed * 1e-3}};
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

/**
 * A tier file recorded with `gemstone_tool campaign --cluster a7
 * --max-points 4 --cache F`: 12 hw and 4 g5 records.
 */
const std::string kTierFixture =
    std::string(GEMSTONE_TEST_DATA_DIR) + "/tier_a7_4points.csv";

/** The campaign that wrote the fixture. */
serve::CampaignSpec
fixtureSpec()
{
    serve::CampaignSpec spec;
    spec.cluster = hwsim::CpuCluster::LittleA7;
    spec.maxPoints = 4;
    return spec;
}

} // namespace

TEST(SharedTier, AttachAbsorbsPreexistingEntries)
{
    ScratchFile file("gs_tier_preexisting.csv");
    {
        ResultStore writer;
        ASSERT_TRUE(writer.attachSharedTier(file.path).ok());
        writer.insert("hw|dhrystone|1000", sampleFields(1.0));
        writer.insert("g5|whets|600", sampleFields(2.0));
    }

    ResultStore reader;
    ASSERT_TRUE(reader.attachSharedTier(file.path).ok());
    ResultStore::Record out;
    ASSERT_TRUE(reader.lookup("hw|dhrystone|1000", out));
    ASSERT_EQ(out.values.size(), 3u);
    EXPECT_EQ((*out.names)[0], "exec_seconds");
    EXPECT_TRUE(bitEqual(out.values[0], 0.125));
    ASSERT_TRUE(reader.lookup("g5|whets|600", out));
    EXPECT_TRUE(bitEqual(out.values[1], 2.0 + 1.0 / 3.0));
    // Absorbed entries are found work, not computed work.
    EXPECT_EQ(reader.stats().insertions, 0u);
}

TEST(SharedTier, LateArrivalsAbsorbOnMiss)
{
    ScratchFile file("gs_tier_late.csv");
    ResultStore a;
    ResultStore b;
    ASSERT_TRUE(a.attachSharedTier(file.path).ok());
    ASSERT_TRUE(b.attachSharedTier(file.path).ok());

    // Published by a *after* b attached: b's in-memory tier is stale
    // until a miss sends it back to the file.
    a.insert("late|key", sampleFields(3.0));
    ResultStore::Record out;
    ASSERT_TRUE(b.lookup("late|key", out));
    EXPECT_EQ(b.stats().sharedHits, 1u);
    EXPECT_EQ(b.stats().hits, 1u);
    ASSERT_EQ(out.values.size(), 3u);
    EXPECT_TRUE(bitEqual(out.values[1], 3.0 + 1.0 / 3.0));

    // A key nobody published is still a plain miss.
    EXPECT_FALSE(b.lookup("never|published", out));
    EXPECT_EQ(b.stats().misses, 1u);
    EXPECT_EQ(b.stats().sharedHits, 1u);
}

TEST(SharedTier, PublishDeduplicatesAcrossStores)
{
    ScratchFile file("gs_tier_dedup.csv");
    ResultStore a;
    ResultStore b;
    ASSERT_TRUE(a.attachSharedTier(file.path).ok());
    ASSERT_TRUE(b.attachSharedTier(file.path).ok());

    a.insert("shared|key", sampleFields(4.0));
    b.insert("shared|key", sampleFields(4.0));  // same computation

    const exec::SharedTierFile::Stats tier_b = b.sharedTier()->stats();
    EXPECT_EQ(tier_b.deduped, 1u);

    // Exactly one group in the file: a fresh attach absorbs one.
    ResultStore fresh;
    ASSERT_TRUE(fresh.attachSharedTier(file.path).ok());
    EXPECT_EQ(fresh.sharedTier()->stats().absorbed, 1u);
}

TEST(SharedTier, OldStoreCsvAttachesAsTier)
{
    // A cache file in the layout the store once saved whole at exit
    // (header, key-grouped rows, integrity marker) still opens as a
    // tier: it serves its entries bit-exactly and takes appends.
    ScratchFile file("gs_tier_compat.csv");
    {
        std::ofstream old(file.path);
        old << "key,field,value\n"
            << "k|one,exec_seconds,0.125\n"
            << "k|one,power_watts,1.3333333333333333\n"
            << "\"k,|three\",lonely,-0\n"
            << "#gemstone:complete\n";
    }

    ResultStore store;
    ASSERT_TRUE(store.attachSharedTier(file.path).ok());
    EXPECT_EQ(store.sharedTier()->stats().absorbed, 2u);
    ResultStore::Record out;
    ASSERT_TRUE(store.lookup("k|one", out));
    ASSERT_EQ(out.values.size(), 2u);
    EXPECT_TRUE(bitEqual(out.values[1], 1.0 + 1.0 / 3.0));
    ASSERT_TRUE(store.lookup("k,|three", out));
    ASSERT_EQ(out.values.size(), 1u);
    EXPECT_EQ((*out.names)[0], "lonely");
    EXPECT_TRUE(bitEqual(out.values[0], -0.0));

    store.insert("k|two", sampleFields(2.0));
    EXPECT_EQ(store.sharedTier()->stats().published, 1u);
    ResultStore reader;
    ASSERT_TRUE(reader.attachSharedTier(file.path).ok());
    EXPECT_EQ(reader.sharedTier()->stats().absorbed, 3u);
    ASSERT_TRUE(reader.lookup("k|two", out));
    EXPECT_TRUE(bitEqual(out.values[2], 2.0 * 1e-3));
}

#if defined(__unix__) || defined(__APPLE__)

TEST(SharedTier, ConcurrentProcessesNeverTearOrDuplicateRows)
{
    // Four processes, each with its own attachment (so each *is* a
    // publisher), hammer one tier file. The flock discipline must
    // keep every key group whole and unique.
    constexpr int kWriters = 4;
    constexpr int kKeysPerWriter = 25;
    constexpr int kSharedKeys = 5;
    ScratchFile file("gs_tier_hammer.csv");

    std::vector<pid_t> children;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: a post-fork attachment gives this process its
            // own lock identity on the tier file.
            ResultStore mine;
            if (!mine.attachSharedTier(file.path).ok())
                ::_exit(1);
            for (int k = 0; k < kKeysPerWriter; ++k) {
                mine.insert("w" + std::to_string(w) + "|k" +
                                std::to_string(k),
                            sampleFields(w * 100.0 + k));
            }
            // Contended keys: every writer computes the same value,
            // exactly one copy may land in the file.
            for (int k = 0; k < kSharedKeys; ++k) {
                mine.insert("common|k" + std::to_string(k),
                            sampleFields(k * 1.0));
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "writer process failed";
    }

    // Structural audit of the raw file: every line is a whole
    // 3-cell row (no test key needs quoting), every key group is
    // contiguous with the full field set, and no key repeats.
    std::ifstream in(file.path);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "key,field,value");
    std::map<std::string, int> rows_per_key;
    std::vector<std::string> key_run_order;
    while (std::getline(in, line)) {
        std::istringstream cells(line);
        std::string key, field, value;
        ASSERT_TRUE(std::getline(cells, key, ','));
        ASSERT_TRUE(std::getline(cells, field, ','));
        ASSERT_TRUE(std::getline(cells, value)) << "torn row: "
                                                << line;
        EXPECT_FALSE(value.empty());
        char *end = nullptr;
        std::strtod(value.c_str(), &end);
        EXPECT_EQ(*end, '\0') << "unparsable value in: " << line;
        if (key_run_order.empty() || key_run_order.back() != key)
            key_run_order.push_back(key);
        ++rows_per_key[key];
    }
    EXPECT_FALSE(in.bad());

    // No key group was split by an interleaved writer...
    std::map<std::string, int> runs;
    for (const std::string &key : key_run_order)
        ++runs[key];
    for (const auto &[key, count] : runs)
        EXPECT_EQ(count, 1) << "key group split: " << key;
    // ...every key landed exactly once with all its fields...
    ASSERT_EQ(rows_per_key.size(),
              std::size_t(kWriters * kKeysPerWriter + kSharedKeys));
    for (const auto &[key, rows] : rows_per_key)
        EXPECT_EQ(rows, 3) << "partial group: " << key;

    // ...and the whole file round-trips through a fresh attach with
    // bit-exact values.
    ResultStore verify;
    ASSERT_TRUE(verify.attachSharedTier(file.path).ok());
    ASSERT_EQ(verify.sharedTier()->stats().absorbed,
              std::size_t(kWriters * kKeysPerWriter + kSharedKeys));
    ResultStore::Record out;
    ASSERT_TRUE(verify.lookup("w2|k7", out));
    ASSERT_EQ(out.values.size(), 3u);
    EXPECT_TRUE(bitEqual(out.values[0], (2 * 100.0 + 7) * 0.125));
    ASSERT_TRUE(verify.lookup("common|k3", out));
    EXPECT_TRUE(bitEqual(out.values[2], 3.0 * 1e-3));
}

#endif // unix

// ---------------------------------------------------------------------
// The runner's store records through a real tier file
// ---------------------------------------------------------------------

TEST(TierFormat, FixtureServesTheColdDatasetWithNoMisses)
{
    serve::CampaignOutcome cold =
        serve::runCampaign(fixtureSpec(), nullptr, {}, {});
    ASSERT_EQ(cold.outcome, serve::RequestOutcome::Ok) << cold.error;

    ScratchFile file("gs_tier_fixture_copy.csv");
    std::filesystem::copy_file(kTierFixture, file.path);
    auto store = std::make_shared<ResultStore>();
    ASSERT_TRUE(store->attachSharedTier(file.path).ok());
    EXPECT_EQ(store->size(), 16u);
    serve::CampaignOutcome warm =
        serve::runCampaign(fixtureSpec(), store, {}, {});
    ASSERT_EQ(warm.outcome, serve::RequestOutcome::Ok) << warm.error;
    EXPECT_EQ(warm.datasetCsv, cold.datasetCsv);
    EXPECT_EQ(store->stats().misses, 0u);
    EXPECT_EQ(store->stats().hits, 16u);
    EXPECT_EQ(store->stats().insertions, 0u);
}

TEST(TierFormat, EmptyTierIsWrittenByteIdenticalToFixture)
{
    ScratchFile file("gs_tier_fixture_fresh.csv");
    auto store = std::make_shared<ResultStore>();
    ASSERT_TRUE(store->attachSharedTier(file.path).ok());
    serve::CampaignOutcome outcome =
        serve::runCampaign(fixtureSpec(), store, {}, {});
    ASSERT_EQ(outcome.outcome, serve::RequestOutcome::Ok)
        << outcome.error;
    const std::string written = readFile(file.path);
    const std::string fixture = readFile(kTierFixture);
    ASSERT_FALSE(fixture.empty()) << "missing " << kTierFixture;
    EXPECT_TRUE(written == fixture)
        << "tier file bytes moved (" << written.size() << " vs "
        << fixture.size() << " bytes)";
}

TEST(StoreRecords, WarmHitAllocationCounts)
{
    if (!mallocTallyActive())
        GTEST_SKIP() << "counting operator new not linked "
                        "(sanitizer build)";

    core::ExperimentRunner runner;
    runner.attachResultStore(std::make_shared<ResultStore>());
    const workload::Workload &work = workload::Suite::byName("mi-sha");
    const auto cluster = hwsim::CpuCluster::LittleA7;
    const hwsim::HwMeasurement cold_hw =
        runner.measureHw(work, cluster, 1000.0, 0);
    const g5::G5Stats cold_g5 = runner.runG5(work, cluster, 1000.0);
    // One hit each first: the record layouts are parsed on first use.
    (void)runner.measureHw(work, cluster, 1000.0, 0);
    (void)runner.runG5(work, cluster, 1000.0);

    MallocTallySnapshot before = mallocTally();
    hwsim::HwMeasurement hw = runner.measureHw(work, cluster, 1000.0, 0);
    MallocTallySnapshot between = mallocTally();
    g5::G5Stats g5 = runner.runG5(work, cluster, 1000.0);
    MallocTallySnapshot after = mallocTally();

    // hw: building the key, the copied record, the repeats and one
    // map node per PMC; g5: building the key, the copied record and
    // the dump. No name string is copied on either hit.
    constexpr std::uint64_t kHwFixedAllocs = 4;
    constexpr std::uint64_t kG5HitAllocs = 4;
    const std::uint64_t hw_allocs = between.allocs - before.allocs;
    const std::uint64_t g5_allocs = after.allocs - between.allocs;
    EXPECT_EQ(hw_allocs, hw.pmc.size() + kHwFixedAllocs);
    EXPECT_LE(hw_allocs, hw.pmc.size() + 8);
    EXPECT_EQ(g5_allocs, kG5HitAllocs);
    EXPECT_LE(g5_allocs, 8u);

    EXPECT_EQ(hw.execSeconds, cold_hw.execSeconds);
    EXPECT_EQ(hw.repeatSeconds, cold_hw.repeatSeconds);
    EXPECT_EQ(hw.pmc, cold_hw.pmc);
    EXPECT_EQ(hw.groundTruth.toMap(), cold_hw.groundTruth.toMap());
    EXPECT_EQ(g5.simSeconds, cold_g5.simSeconds);
    EXPECT_EQ(g5.stats, cold_g5.stats);
    EXPECT_EQ(g5.raw.toMap(), cold_g5.raw.toMap());
}

/** Copy the fixture to @p path without the row that starts @p row. */
void
writeFixtureWithout(const std::string &path, const std::string &row)
{
    std::ifstream in(kTierFixture);
    std::ofstream out(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(row, 0) != 0)
            out << line << "\n";
    }
}

TEST(StoreRecords, RecordMissingAStatIsResimulated)
{
    // Drop one stat row from the fixture's first g5 record: the
    // record no longer has the layout this build writes, so the
    // runner warns and re-simulates instead of serving a 0.
    const std::string dropped = "system.cpu.numCycles";
    ScratchFile file("gs_tier_missing_stat.csv");
    writeFixtureWithout(file.path, "g5|v1|ex5_LITTLE|mi-sha|200.000,stat:" +
                                       dropped + ",");
    core::ExperimentRunner runner;
    auto store = std::make_shared<ResultStore>();
    ASSERT_TRUE(store->attachSharedTier(file.path).ok());
    runner.attachResultStore(store);

    const std::uint64_t warnings_before =
        limitedWarnCount("resultstore-decode");
    g5::G5Stats served = runner.runG5(workload::Suite::byName("mi-sha"),
                                      hwsim::CpuCluster::LittleA7, 200.0);
    EXPECT_EQ(limitedWarnCount("resultstore-decode"),
              warnings_before + 1);
    g5::G5Simulation fresh(1);
    g5::G5Stats simulated = fresh.run(workload::Suite::byName("mi-sha"),
                                      g5::G5Model::Ex5Little, 200.0);
    EXPECT_GT(served.value(dropped), 0.0);
    EXPECT_EQ(served.stats, simulated.stats);

    // The re-simulated record replaced the partial one.
    g5::G5Stats again = runner.runG5(workload::Suite::byName("mi-sha"),
                                     hwsim::CpuCluster::LittleA7, 200.0);
    EXPECT_EQ(limitedWarnCount("resultstore-decode"),
              warnings_before + 1);
    EXPECT_EQ(again.stats, simulated.stats);
    EXPECT_EQ(store->stats().hits, 2u);
}

TEST(StoreRecords, HwRecordMissingAFieldIsRemeasured)
{
    ScratchFile file("gs_tier_missing_gt.csv");
    writeFixtureWithout(file.path,
                        "hw|seed=868381|var=0.000000000|faults=off|"
                        "repeats=5|mi-sha|a7|600.000|a0,gt_cycles,");
    core::ExperimentRunner runner;
    auto store = std::make_shared<ResultStore>();
    ASSERT_TRUE(store->attachSharedTier(file.path).ok());
    runner.attachResultStore(store);

    const std::uint64_t warnings_before =
        limitedWarnCount("resultstore-decode");
    const workload::Workload &work = workload::Suite::byName("mi-sha");
    hwsim::HwMeasurement served =
        runner.measureHw(work, hwsim::CpuCluster::LittleA7, 600.0, 0);
    EXPECT_EQ(limitedWarnCount("resultstore-decode"),
              warnings_before + 1);
    hwsim::HwMeasurement measured = runner.platform().measureAttempt(
        work, hwsim::CpuCluster::LittleA7, 600.0, 0, 5);
    EXPECT_GT(served.groundTruth.cycles, 0.0);
    EXPECT_EQ(served.groundTruth.toMap(), measured.groundTruth.toMap());
    EXPECT_EQ(served.pmc, measured.pmc);
    EXPECT_EQ(served.execSeconds, measured.execSeconds);
}
