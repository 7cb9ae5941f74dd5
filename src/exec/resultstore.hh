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
 * number of entries with LRU eviction and counts hits and misses.
 * Attached to a shared tier (exec/sharedtier.hh), it appends every
 * result to a CSV file as it is computed, so a later process (or
 * another machine) reuses finished work and a killed run loses
 * nothing it published.
 *
 * A value is a Record: a dense vector of doubles plus a pointer to
 * its field-name list. Name lists are interned by content once per
 * process, so the thousands of records of one layout share one list,
 * a hit copies doubles rather than names, and a decoder recognises a
 * layout by pointer. The callers own the encoding of their result
 * structs (see gemstone/runner.cc). Doubles survive the tier's CSV
 * round trip bit-exactly (17 significant digits), which is what makes
 * a warm-cache campaign byte-identical to a cold one.
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
#include <vector>

#include "util/status.hh"

namespace gemstone::exec {

class SharedTierFile;

class ResultStore
{
  public:
    /** The field names of one record layout, in value order. */
    using FieldNames = std::vector<std::string>;

    /**
     * One memoised result: values[i] is the field named
     * (*names)[i]. names is always an intern()ed list.
     */
    struct Record
    {
        const FieldNames *names = nullptr;
        std::vector<double> values;
    };

    /**
     * The process-wide copy of a name list, equal by content to
     * @p names. Interned lists live until the process exits, so the
     * pointer is a stable layout identity. Thread-safe.
     */
    static const FieldNames *intern(FieldNames names);

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
     * and @p out receives the record (its values are copied, its
     * name list is shared). Counts a hit or miss either way. A hash
     * collision with a different resident key counts as a miss (and
     * a collision). With a shared tier attached, a miss
     * falls through to the tier: entries other processes published
     * since the last look are absorbed, and a key found that way
     * counts as a hit (and a sharedHit).
     */
    bool lookup(const std::string &key, Record &out);

    /**
     * Insert (or overwrite) a key, evicting LRU entries as needed.
     * @p record.names must be intern()ed and as long as its values.
     */
    void insert(const std::string &key, Record record);

    std::size_t size() const;
    std::size_t capacity() const { return maxEntries; }
    Stats stats() const;
    void resetStats();
    void clear();

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
        Record record;
        std::list<std::uint64_t>::iterator lruPosition;
    };

    void insertLocked(const std::string &key, Record record);

    /** Tier-absorb sink: insert without counting. */
    void absorbLocked(const std::string &key, Record record);

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
