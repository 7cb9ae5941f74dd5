/**
 * @file
 * ResultStore implementation.
 */

#include "exec/resultstore.hh"

#include <algorithm>
#include <set>

#include "exec/sharedtier.hh"
#include "util/logging.hh"

namespace gemstone::exec {

ResultStore::ResultStore(std::size_t capacity)
    : maxEntries(std::max<std::size_t>(capacity, 1))
{
}

ResultStore::~ResultStore() = default;

std::uint64_t
ResultStore::fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

const ResultStore::FieldNames *
ResultStore::intern(FieldNames names)
{
    // A set's nodes never move, so the returned pointer stays valid
    // for the life of the process.
    static std::mutex internMutex;
    static std::set<FieldNames> interned;
    std::lock_guard<std::mutex> lock(internMutex);
    return &*interned.insert(std::move(names)).first;
}

bool
ResultStore::lookup(const std::string &key, Record &out)
{
    std::uint64_t hash = fnv1a(key);
    std::lock_guard<std::mutex> lock(storeMutex);
    auto it = entries.find(hash);
    if (it == entries.end() && tier != nullptr && tier->maybeGrown()) {
        // Miss in the memory tier: absorb whatever other processes
        // have published, then look again.
        tier->refresh([this](const std::string &k, Record r) {
            absorbLocked(k, std::move(r));
        });
        it = entries.find(hash);
        if (it != entries.end() && it->second.key == key)
            ++counters.sharedHits;
    }
    if (it == entries.end()) {
        ++counters.misses;
        return false;
    }
    if (it->second.key != key) {
        ++counters.misses;
        ++counters.collisions;
        warnLimited("resultstore-collision", 3,
                    "result-store hash collision between '",
                    it->second.key, "' and '", key, "'");
        return false;
    }
    ++counters.hits;
    lruOrder.splice(lruOrder.begin(), lruOrder,
                    it->second.lruPosition);
    out.names = it->second.record.names;
    out.values = it->second.record.values;
    return true;
}

void
ResultStore::insertLocked(const std::string &key, Record record)
{
    std::uint64_t hash = fnv1a(key);
    auto it = entries.find(hash);
    if (it != entries.end()) {
        // Same key: refresh; colliding key: last writer wins.
        if (it->second.key != key) {
            ++counters.collisions;
            it->second.key = key;
        }
        it->second.record = std::move(record);
        lruOrder.splice(lruOrder.begin(), lruOrder,
                        it->second.lruPosition);
        return;
    }
    while (entries.size() >= maxEntries) {
        entries.erase(lruOrder.back());
        lruOrder.pop_back();
        ++counters.evictions;
    }
    lruOrder.push_front(hash);
    entries.emplace(hash,
                    Entry{key, std::move(record), lruOrder.begin()});
    ++counters.insertions;
}

void
ResultStore::absorbLocked(const std::string &key, Record record)
{
    // Absorbed entries are other processes' finished work, not ours:
    // keep the insertions counter meaning "results computed by this
    // process".
    const std::uint64_t insertions_before = counters.insertions;
    insertLocked(key, std::move(record));
    counters.insertions = insertions_before;
}

void
ResultStore::insert(const std::string &key, Record record)
{
    panic_if(record.names == nullptr ||
                 record.names->size() != record.values.size(),
             "result-store record for ", key,
             " does not match its name list");
    std::lock_guard<std::mutex> lock(storeMutex);
    if (tier != nullptr) {
        tier->publish(key, record,
                      [this](const std::string &k, Record r) {
                          absorbLocked(k, std::move(r));
                      });
    }
    insertLocked(key, std::move(record));
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    return entries.size();
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    return counters;
}

void
ResultStore::resetStats()
{
    std::lock_guard<std::mutex> lock(storeMutex);
    counters = Stats{};
}

void
ResultStore::clear()
{
    std::lock_guard<std::mutex> lock(storeMutex);
    entries.clear();
    lruOrder.clear();
}

Status
ResultStore::attachSharedTier(const std::string &path)
{
    auto opened = SharedTierFile::open(path);
    if (!opened.ok())
        return opened.status();
    std::lock_guard<std::mutex> lock(storeMutex);
    tier = opened.takeValue();
    // Start warm: absorb everything already in the file.
    tier->refresh([this](const std::string &k, Record r) {
        absorbLocked(k, std::move(r));
    });
    return Status::okStatus();
}

bool
ResultStore::hasSharedTier() const
{
    std::lock_guard<std::mutex> lock(storeMutex);
    return tier != nullptr;
}

} // namespace gemstone::exec
