/**
 * @file
 * SharedTierFile implementation.
 *
 * The scan side is a deliberately small line-oriented CSV parser
 * rather than CsvReader: refresh() needs byte-accurate consumption
 * (only whole lines are consumed; a torn trailing row from a process
 * killed mid-append stays unconsumed until more bytes arrive) and a
 * per-row poison rule that maps cleanly onto key-run grouping. Tier
 * rows never contain newlines — keys, field names and exact-double
 * values are all single-line by construction — so splitting on '\n'
 * is sound; quoted commas and quotes are still handled.
 */

#include "exec/sharedtier.hh"

#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <utility>

#include "exec/resultstore.hh"
#include "exec/wireproto.hh"
#include "util/csv.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone::exec {

namespace {

const char kTierHeader[] = "key,field,value";

/**
 * Parse one CSV line into exactly three cells, honouring RFC-4180
 * quoting. Returns false on any structural problem.
 */
bool
parseTierLine(const std::string &line,
              std::string (&cells)[3])
{
    std::size_t cell = 0;
    std::size_t i = 0;
    const std::size_t n = line.size();
    while (true) {
        if (cell >= 3)
            return false;
        std::string &out = cells[cell];
        out.clear();
        if (i < n && line[i] == '"') {
            ++i;
            while (true) {
                if (i >= n)
                    return false; // unterminated quote
                if (line[i] == '"') {
                    if (i + 1 < n && line[i + 1] == '"') {
                        out.push_back('"');
                        i += 2;
                        continue;
                    }
                    ++i;
                    break;
                }
                out.push_back(line[i++]);
            }
            if (i < n && line[i] != ',')
                return false; // text after closing quote
        } else {
            while (i < n && line[i] != ',') {
                if (line[i] == '"')
                    return false; // stray quote
                out.push_back(line[i++]);
            }
        }
        ++cell;
        if (i >= n)
            break;
        ++i; // skip ','
    }
    return cell == 3;
}

/** Strict finite-double parse of a value cell. */
bool
parseTierValue(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    double value = std::strtod(text.c_str(), &end);
    if (errno != 0 || end != text.c_str() + text.size())
        return false;
    if (!std::isfinite(value))
        return false;
    out = value;
    return true;
}

} // namespace

Result<std::unique_ptr<SharedTierFile>>
SharedTierFile::open(const std::string &path)
{
    int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
        return Status::error(StatusCode::IoError,
                            "cannot open shared tier " + path + ": " +
                                std::strerror(errno));
    }
    std::unique_ptr<SharedTierFile> tier(new SharedTierFile());
    tier->filePath = path;
    tier->fd = fd;

    // Seed an empty file with the header so the tier is loadable as
    // an ordinary ResultStore CSV. Racing creators both take the
    // exclusive lock and re-check the size, so the header is written
    // once.
    if (tier->lock(true)) {
        struct stat st{};
        if (::fstat(fd, &st) == 0 && st.st_size == 0)
            writeAll(fd, std::string(kTierHeader) + "\n");
        tier->unlock();
    }
    return tier;
}

SharedTierFile::~SharedTierFile()
{
    if (fd >= 0)
        ::close(fd);
}

bool
SharedTierFile::lock(bool exclusive)
{
    int op = exclusive ? LOCK_EX : LOCK_SH;
    while (::flock(fd, op) != 0) {
        if (errno == EINTR)
            continue;
        warnLimited("sharedtier-lock", 3, "shared tier ", filePath,
                    ": flock failed (", std::strerror(errno),
                    "); proceeding unlocked");
        return false;
    }
    return true;
}

void
SharedTierFile::unlock()
{
    while (::flock(fd, LOCK_UN) != 0 && errno == EINTR) {
    }
}

bool
SharedTierFile::maybeGrown() const
{
    struct stat st{};
    if (::fstat(fd, &st) != 0)
        return false;
    return static_cast<std::int64_t>(st.st_size) != consumed;
}

void
SharedTierFile::absorbNewLocked(const Sink &sink)
{
    ++tierStats.refreshes;
    struct stat st{};
    if (::fstat(fd, &st) != 0)
        return;
    auto size = static_cast<std::int64_t>(st.st_size);
    if (size < consumed) {
        // The file shrank under us (external truncation or
        // replacement): restart the scan. Re-absorbing entries the
        // sink has already seen is harmless — same key, same values.
        consumed = 0;
        knownKeys.clear();
    }
    if (size == consumed)
        return;

    std::string chunk(static_cast<std::size_t>(size - consumed), '\0');
    std::size_t got = 0;
    while (got < chunk.size()) {
        ssize_t n = ::pread(fd, chunk.data() + got, chunk.size() - got,
                            static_cast<off_t>(consumed + got));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    chunk.resize(got);

    // Consume whole lines only; a trailing partial row (a writer
    // killed mid-append) waits for its remaining bytes — or gets
    // diagnosed as a malformed merged row if another writer appends
    // after the torn tail.
    std::size_t usable = chunk.rfind('\n');
    if (usable == std::string::npos)
        return;
    ++usable;
    consumed += static_cast<std::int64_t>(usable);

    std::string current_key;
    Fields current_fields;
    bool current_bad = false;
    auto flush = [&]() {
        if (!current_key.empty()) {
            knownKeys.insert(ResultStore::fnv1a(current_key));
            if (!current_bad && sink) {
                sink(current_key, std::move(current_fields));
                ++tierStats.absorbed;
            }
        }
        current_fields.clear();
        current_bad = false;
    };

    std::size_t line_start = 0;
    while (line_start < usable) {
        std::size_t line_end = chunk.find('\n', line_start);
        std::string line =
            chunk.substr(line_start, line_end - line_start);
        line_start = line_end + 1;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty() || line[0] == '#' || line == kTierHeader)
            continue;
        std::string cells[3];
        if (!parseTierLine(line, cells)) {
            warnLimited("sharedtier-row", 3, "shared tier ", filePath,
                        ": malformed row skipped: ", line);
            // The row's group may be missing a field now: poison it.
            current_bad = true;
            continue;
        }
        if (cells[0] != current_key) {
            flush();
            current_key = cells[0];
        }
        double value = 0.0;
        if (!parseTierValue(cells[2], value)) {
            warnLimited("sharedtier-value", 3, "shared tier ",
                        filePath, ": bad value for key ", cells[0],
                        " field ", cells[1], ": ", cells[2]);
            current_bad = true;
            continue;
        }
        current_fields.emplace_back(std::move(cells[1]), value);
    }
    flush();
}

std::size_t
SharedTierFile::refresh(const Sink &sink)
{
    std::uint64_t before = tierStats.absorbed;
    bool locked = lock(false);
    absorbNewLocked(sink);
    if (locked)
        unlock();
    return static_cast<std::size_t>(tierStats.absorbed - before);
}

bool
SharedTierFile::publish(const std::string &key, const Fields &fields,
                        const Sink &sink)
{
    bool locked = lock(true);
    // Absorb first: a key another process published since our last
    // look must win over a duplicate append.
    absorbNewLocked(sink);
    std::uint64_t hash = ResultStore::fnv1a(key);
    if (knownKeys.count(hash) != 0) {
        ++tierStats.deduped;
        if (locked)
            unlock();
        return false;
    }

    // Append the whole entry — every field row — as one write while
    // holding the exclusive lock, so readers never see a torn group.
    std::string rows;
    for (const auto &[name, value] : fields) {
        rows += CsvWriter::quote(key);
        rows += ',';
        rows += CsvWriter::quote(name);
        rows += ',';
        rows += formatExactDouble(value);
        rows += '\n';
    }
    off_t end = ::lseek(fd, 0, SEEK_END);
    bool wrote = end >= 0 && writeAll(fd, rows);
    if (wrote) {
        knownKeys.insert(hash);
        ++tierStats.published;
        // Skip re-reading our own append on the next scan.
        if (static_cast<std::int64_t>(end) == consumed)
            consumed += static_cast<std::int64_t>(rows.size());
    } else {
        warnLimited("sharedtier-append", 3, "shared tier ", filePath,
                    ": append failed (", std::strerror(errno), ")");
    }
    if (locked)
        unlock();
    return wrote;
}

} // namespace gemstone::exec
