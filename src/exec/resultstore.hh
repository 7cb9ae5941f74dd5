/**
 * @file
 * Content-addressed memoisation store for simulation results.
 *
 * Measurement and simulation runs are pure functions of their
 * configuration — (platform seed, board variation, fault plan,
 * workload, cluster, frequency, attempt) for hwsim, (simulator
 * version, model, workload, frequency) for g5 — so their results can
 * be memoised under a content address: the FNV-1a hash of a
 * canonical key string naming every input. The store keeps a bounded
 * number of entries with LRU eviction, counts hits and misses, and
 * can persist itself to CSV so a later process (or another machine)
 * reuses finished work.
 *
 * Values are flat ordered lists of named doubles; the callers own
 * the encoding of their result structs (see gemstone/runner.cc).
 * Doubles survive the CSV round trip bit-exactly (17 significant
 * digits), which is what makes a warm-cache campaign byte-identical
 * to a cold one.
 *
 * Thread-safety contract: all public members are safe to call from
 * any thread; a single mutex serialises the table, the LRU list and
 * the counters.
 */

#ifndef GEMSTONE_EXEC_RESULTSTORE_HH
#define GEMSTONE_EXEC_RESULTSTORE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/status.hh"

namespace gemstone::exec {

class SharedTierFile;

class ResultStore
{
  public:
    /** Ordered (name, value) payload of one memoised result. */
    using Fields = std::vector<std::pair<std::string, double>>;

    /** Hit/miss accounting. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t insertions = 0;
        std::uint64_t evictions = 0;
        /** Distinct keys whose hash collided with a resident entry. */
        std::uint64_t collisions = 0;
        /** Misses converted to hits by the shared persistent tier. */
        std::uint64_t sharedHits = 0;
    };

    /** @param capacity resident entry bound (0 is clamped to 1) */
    explicit ResultStore(std::size_t capacity = 65536);

    ~ResultStore();

    /** FNV-1a 64-bit hash — the content address of a key string. */
    static std::uint64_t fnv1a(const std::string &text);

    /**
     * Look up a key; on a hit the entry becomes most-recently-used
     * and @p out receives the payload. Counts a hit or miss either
     * way. A hash collision with a different resident key counts as
     * a miss (and a collision). With a shared tier attached, a miss
     * falls through to the tier: entries other processes published
     * since the last look are absorbed, and a key found that way
     * counts as a hit (and a sharedHit).
     */
    bool lookup(const std::string &key, Fields &out);

    /** Insert (or overwrite) a key, evicting LRU entries as needed. */
    void insert(const std::string &key, Fields fields);

    std::size_t size() const;
    std::size_t capacity() const { return maxEntries; }
    Stats stats() const;
    void resetStats();
    void clear();

    /**
     * Merge entries from a CSV previously written by saveCsv();
     * returns the number of entries loaded. A missing file loads
     * nothing; malformed rows are skipped with a warning. A file
     * without the trailing integrity marker, or with a truncated
     * final row (a torn write from an older or crashed process), is
     * loaded up to its last good row with a warning — memoised
     * results are an optimisation, so salvage beats refusal.
     */
    std::size_t loadCsv(const std::string &path);

    /**
     * Persist every resident entry, sorted by key so the file is
     * deterministic. The write is atomic (tmp + fsync + rename) and
     * ends with the integrity marker; a crash leaves the previous
     * complete file, never a torn one.
     */
    Status saveCsv(const std::string &path) const;

    /**
     * Attach a shared persistent tier (exec/sharedtier.hh) at
     * @p path, making this a two-tier store: the in-memory LRU in
     * front, a flock-guarded append-only CSV shared across processes
     * behind. Entries already in the file are absorbed immediately;
     * later misses absorb whatever other processes have published
     * (see lookup()); inserts are published to the file.
     */
    Status attachSharedTier(const std::string &path);

    bool hasSharedTier() const;

    /** The attached tier (for its stats), or nullptr. */
    const SharedTierFile *sharedTier() const { return tier.get(); }

  private:
    struct Entry
    {
        std::string key;
        Fields fields;
        std::list<std::uint64_t>::iterator lruPosition;
    };

    void insertLocked(const std::string &key, Fields fields);

    /** Tier-absorb sink: insert without counting. */
    void absorbLocked(const std::string &key, Fields fields);

    mutable std::mutex storeMutex;
    std::size_t maxEntries;
    std::unordered_map<std::uint64_t, Entry> entries;
    /** Most recent at the front; evict from the back. */
    std::list<std::uint64_t> lruOrder;
    Stats counters;

    std::unique_ptr<SharedTierFile> tier;
};

} // namespace gemstone::exec

#endif // GEMSTONE_EXEC_RESULTSTORE_HH
