/**
 * @file
 * The shared persistent result-store tier: publish/absorb exchange
 * between attached stores, old store files opening as a tier, and —
 * the point of
 * the flock discipline — multiple processes hammering one tier file
 * without ever producing a torn, interleaved or duplicated row.
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

ResultStore::Fields
sampleFields(double seed)
{
    return {{"exec_seconds", seed * 0.125},
            {"power_watts", seed + 1.0 / 3.0},
            {"energy_joules", seed * 1e-3}};
}

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
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
    ResultStore::Fields out;
    ASSERT_TRUE(reader.lookup("hw|dhrystone|1000", out));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].first, "exec_seconds");
    EXPECT_TRUE(bitEqual(out[0].second, 0.125));
    ASSERT_TRUE(reader.lookup("g5|whets|600", out));
    EXPECT_TRUE(bitEqual(out[1].second, 2.0 + 1.0 / 3.0));
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
    ResultStore::Fields out;
    ASSERT_TRUE(b.lookup("late|key", out));
    EXPECT_EQ(b.stats().sharedHits, 1u);
    EXPECT_EQ(b.stats().hits, 1u);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(bitEqual(out[1].second, 3.0 + 1.0 / 3.0));

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
    ResultStore::Fields out;
    ASSERT_TRUE(store.lookup("k|one", out));
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(bitEqual(out[1].second, 1.0 + 1.0 / 3.0));
    ASSERT_TRUE(store.lookup("k,|three", out));
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].first, "lonely");
    EXPECT_TRUE(bitEqual(out[0].second, -0.0));

    store.insert("k|two", sampleFields(2.0));
    EXPECT_EQ(store.sharedTier()->stats().published, 1u);
    ResultStore reader;
    ASSERT_TRUE(reader.attachSharedTier(file.path).ok());
    EXPECT_EQ(reader.sharedTier()->stats().absorbed, 3u);
    ASSERT_TRUE(reader.lookup("k|two", out));
    EXPECT_TRUE(bitEqual(out[2].second, 2.0 * 1e-3));
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
    ResultStore::Fields out;
    ASSERT_TRUE(verify.lookup("w2|k7", out));
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(bitEqual(out[0].second, (2 * 100.0 + 7) * 0.125));
    ASSERT_TRUE(verify.lookup("common|k3", out));
    EXPECT_TRUE(bitEqual(out[2].second, 3.0 * 1e-3));
}

#endif // unix
