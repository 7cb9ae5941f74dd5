/**
 * @file
 * Crash-safe file persistence.
 *
 * Every durable artefact (campaign checkpoints, collated CSVs, the
 * result store) goes through one write protocol: serialise to
 * `path.tmp`, flush and fsync it, then rename over `path`. A crash at
 * any byte offset of the write leaves either the previous complete
 * file or (at worst) a stray .tmp — never a half-written artefact
 * that a resume would then trust. Writers may additionally append a
 * trailing integrity marker line so readers can distinguish "written
 * to completion" from "appended to until the lights went out".
 *
 * Files that grow one record at a time (checkpoints, journals) use
 * AppendFile: created through atomicWriteFile, then appended in
 * place. A crash mid-append can only tear the final record; for CSV,
 * recoverCsvTail() quarantines that partial record into a `.corrupt`
 * sidecar and truncates the file back to its last complete row, so
 * resume continues from the last good row instead of aborting.
 */

#ifndef GEMSTONE_UTIL_ATOMICFILE_HH
#define GEMSTONE_UTIL_ATOMICFILE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "util/status.hh"

namespace gemstone {

/**
 * Write @p content to @p path atomically (write tmp, fsync, rename).
 * A non-empty @p marker_line is appended as the file's final line.
 * Returns Ok or an IoError naming the failing step.
 */
Status atomicWriteFile(const std::string &path,
                       const std::string &content,
                       const std::string &marker_line = std::string());

/**
 * fsync the directory containing @p path, making a completed rename,
 * create or truncate of that file durable across power loss — on
 * POSIX the rename itself only becomes persistent once the directory
 * entry is flushed. No-op Ok on platforms without fsync.
 */
Status fsyncDirectoryOf(const std::string &path);

/**
 * A durable append-only file, created (with its first bytes) through
 * atomicWriteFile so a torn create cannot exist. A failed append or
 * sync closes the file: bytes after a torn record would be unreadable.
 */
class AppendFile
{
  public:
    AppendFile() = default;
    AppendFile(AppendFile &&other) noexcept
        : fd(std::exchange(other.fd, -1)),
          filePath(std::move(other.filePath))
    {
    }
    AppendFile &
    operator=(AppendFile other) noexcept
    {
        std::swap(fd, other.fd);
        std::swap(filePath, other.filePath);
        return *this;
    }
    ~AppendFile() { close(); }

    /** atomicWriteFile(@p path, @p initial), then open to append. */
    Status create(const std::string &path, const std::string &initial);
    /** Write all of @p bytes at the end (durable after sync()). */
    Status append(const std::string &bytes);
    /** fdatasync. */
    Status sync();
    void close();
    bool isOpen() const { return fd >= 0; }

  private:
    int fd = -1;
    std::string filePath;
};

/** AppendFile::sync() calls so far, process-wide (a count, so a test
 *  can bound the syncs a writer makes without timing it). */
std::uint64_t appendSyncCount();

/** Outcome of a tail-recovery pass over an append-style CSV. */
struct TailRecovery
{
    /** A partial final record was found and quarantined. */
    bool recovered = false;
    /** Bytes moved to the sidecar. */
    std::size_t quarantinedBytes = 0;
    /** Sidecar path (path + ".corrupt"), set when recovered. */
    std::string corruptPath;
};

/**
 * Scan @p path as RFC-4180 CSV and, if it ends mid-record (a crash
 * during an append, or a truncation at an arbitrary byte offset),
 * move the partial tail to `path + ".corrupt"` and truncate the file
 * back to its last complete row. A file with no complete row at all
 * is quarantined whole, leaving an empty file. A missing file is Ok
 * with nothing recovered. Records spanning quoted newlines are
 * handled; the scan never mis-counts a newline inside quotes as a
 * row boundary.
 */
Result<TailRecovery> recoverCsvTail(const std::string &path);

} // namespace gemstone

#endif // GEMSTONE_UTIL_ATOMICFILE_HH
