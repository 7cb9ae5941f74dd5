/**
 * @file
 * Shared persistent result-cache tier for stores in separate processes.
 *
 * A SharedTierFile is an append-only CSV of result-store entries
 * (`key,field,value` rows, doubles rendered round-trip-exact) that
 * any number of processes read and extend concurrently, coordinated
 * by flock(2):
 *
 *  - publish() takes the exclusive lock, first absorbs any rows other
 *    processes appended since the last look (so cross-process results
 *    become local cache hits), skips the write when the key is
 *    already present (no duplicated rows), and otherwise appends the
 *    whole entry — every field row — inside the one lock hold (no
 *    torn or interleaved groups);
 *  - refresh() takes the shared lock and absorbs foreign rows only;
 *    it is cheap to call speculatively because maybeGrown() checks
 *    the file size without locking first.
 *
 * Readers only ever observe the file at a lock boundary, and writers
 * only append complete row groups while holding the exclusive lock,
 * so every observed state is a valid CSV ending on an entry boundary.
 * This is the only persisted store format. The scan skips the
 * header and '#' comment lines, so a cache file written whole in the
 * older saved-at-exit layout (header, rows, integrity marker) opens
 * as a tier too.
 *
 * flock locks belong to the open file description, so each process
 * opens the file itself: a descriptor a forked child inherited would
 * make parent and child locks mutually invisible.
 */

#ifndef GEMSTONE_EXEC_SHAREDTIER_HH
#define GEMSTONE_EXEC_SHAREDTIER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>

#include "exec/resultstore.hh"
#include "util/status.hh"

namespace gemstone::exec {

class SharedTierFile
{
  public:
    /**
     * Receives entries absorbed from other processes; their name
     * lists are interned (ResultStore::intern).
     */
    using Sink = std::function<void(const std::string &key,
                                    ResultStore::Record record)>;

    struct Stats
    {
        std::uint64_t published = 0;  //!< entries appended by us
        std::uint64_t deduped = 0;    //!< publishes skipped (present)
        std::uint64_t absorbed = 0;   //!< foreign entries pulled in
        std::uint64_t refreshes = 0;  //!< lock-and-scan passes
    };

    /** Open (creating if absent) the tier file at @p path. */
    static Result<std::unique_ptr<SharedTierFile>> open(
        const std::string &path);

    ~SharedTierFile();

    SharedTierFile(const SharedTierFile &) = delete;
    SharedTierFile &operator=(const SharedTierFile &) = delete;

    /**
     * Absorb rows appended by other processes since the last pass,
     * feeding each complete entry to @p sink. Returns the number of
     * entries absorbed.
     */
    std::size_t refresh(const Sink &sink);

    /**
     * Publish one entry unless its key is already in the file.
     * Foreign rows discovered on the way are absorbed into @p sink
     * first. Returns true when the entry was appended.
     */
    bool publish(const std::string &key,
                 const ResultStore::Record &record, const Sink &sink);

    /** Size-only hint that refresh() would find something new. */
    bool maybeGrown() const;

    const Stats &stats() const { return tierStats; }
    const std::string &path() const { return filePath; }

  private:
    SharedTierFile() = default;

    /** Under a held lock: scan [consumed, EOF) into @p sink. */
    void absorbNewLocked(const Sink &sink);

    bool lock(bool exclusive);
    void unlock();

    std::string filePath;
    int fd = -1;
    std::int64_t consumed = 0;  //!< bytes already scanned
    /** FNV-1a hashes of keys known to be in the file. */
    std::unordered_set<std::uint64_t> knownKeys;
    Stats tierStats;
};

} // namespace gemstone::exec

#endif // GEMSTONE_EXEC_SHAREDTIER_HH
