/**
 * @file
 * ResultStore implementation.
 */

#include "exec/resultstore.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "exec/sharedtier.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::exec {

namespace {

/** CSV column contract of a persisted store. */
const std::vector<std::string> kStoreColumns = {"key", "field",
                                                "value"};

} // namespace

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

bool
ResultStore::lookup(const std::string &key, Fields &out)
{
    std::uint64_t hash = fnv1a(key);
    std::lock_guard<std::mutex> lock(storeMutex);
    auto it = entries.find(hash);
    if (it == entries.end() && tier != nullptr && tier->maybeGrown()) {
        // Miss in the memory tier: absorb whatever other processes
        // have published, then look again.
        tier->refresh([this](const std::string &k, Fields f) {
            absorbLocked(k, std::move(f));
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
    out = it->second.fields;
    return true;
}

void
ResultStore::insertLocked(const std::string &key, Fields fields)
{
    std::uint64_t hash = fnv1a(key);
    auto it = entries.find(hash);
    if (it != entries.end()) {
        // Same key: refresh; colliding key: last writer wins.
        if (it->second.key != key) {
            ++counters.collisions;
            it->second.key = key;
        }
        it->second.fields = std::move(fields);
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
                    Entry{key, std::move(fields), lruOrder.begin()});
    ++counters.insertions;
}

void
ResultStore::absorbLocked(const std::string &key, Fields fields)
{
    // Absorbed entries are other processes' finished work, not ours:
    // keep the insertions counter meaning "results computed by this
    // process".
    const std::uint64_t insertions_before = counters.insertions;
    insertLocked(key, std::move(fields));
    counters.insertions = insertions_before;
}

void
ResultStore::insert(const std::string &key, Fields fields)
{
    std::lock_guard<std::mutex> lock(storeMutex);
    if (tier != nullptr) {
        tier->publish(key, fields,
                      [this](const std::string &k, Fields f) {
                          absorbLocked(k, std::move(f));
                      });
    }
    insertLocked(key, std::move(fields));
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

std::size_t
ResultStore::loadCsv(const std::string &path)
{
    if (!std::filesystem::exists(path))
        return 0;
    CsvReader reader = CsvReader::parseFile(path);
    if (!reader.requireColumns(kStoreColumns)) {
        warn("result store ", path, ": missing columns; not loaded");
        return 0;
    }
    if (reader.hasTruncatedTail()) {
        warnLimited("resultstore-torn", 3, "result store ", path,
                    ": truncated final row dropped (torn write); ",
                    "loading the rows before it");
    } else if (!reader.sawIntegrityMarker()) {
        warnLimited("resultstore-no-marker", 3, "result store ", path,
                    ": no integrity marker; the file may be from an ",
                    "interrupted save");
    }

    // Rows of one entry are contiguous (saveCsv writes them so);
    // gather runs of equal keys into one payload each.
    std::lock_guard<std::mutex> lock(storeMutex);
    // Loading persisted work is not new work: keep the insertions
    // counter meaningful as "results computed by this process".
    const std::uint64_t insertions_before = counters.insertions;
    std::size_t loaded = 0;
    std::string current_key;
    Fields current_fields;
    bool current_bad = false;
    auto flush = [&]() {
        if (!current_key.empty() && !current_bad) {
            insertLocked(current_key, std::move(current_fields));
            ++loaded;
        }
        current_fields.clear();
        current_bad = false;
    };
    for (std::size_t i = 0; i < reader.rowCount(); ++i) {
        const std::string &key = reader.cell(i, "key");
        if (key != current_key) {
            flush();
            current_key = key;
        }
        std::size_t errors_before = reader.errors().size();
        double value = reader.numericCell(i, "value");
        if (reader.errors().size() != errors_before) {
            // A malformed value poisons only its own entry.
            current_bad = true;
            continue;
        }
        current_fields.emplace_back(reader.cell(i, "field"), value);
    }
    flush();
    counters.insertions = insertions_before;
    for (const std::string &error : reader.errorStrings())
        warnLimited("resultstore-load", 3, "result store ", path,
                    ": ", error);
    return loaded;
}

Status
ResultStore::saveCsv(const std::string &path) const
{
    // Hold the lock for the whole save: persistence is rare and the
    // entry pointers must not be invalidated mid-walk.
    std::lock_guard<std::mutex> lock(storeMutex);
    std::vector<const Entry *> sorted;
    sorted.reserve(entries.size());
    for (const auto &[hash, entry] : entries)
        sorted.push_back(&entry);
    std::sort(sorted.begin(), sorted.end(),
              [](const Entry *a, const Entry *b) {
                  return a->key < b->key;
              });

    CsvWriter csv(kStoreColumns);
    for (const Entry *entry : sorted) {
        for (const auto &[name, value] : entry->fields)
            csv.addRow({entry->key, name, formatExactDouble(value)});
    }
    return csv.writeFileAtomic(path);
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
    tier->refresh([this](const std::string &k, Fields f) {
        absorbLocked(k, std::move(f));
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
