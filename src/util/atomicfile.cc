/**
 * @file
 * Atomic write and CSV tail recovery implementation.
 */

#include "util/atomicfile.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define GEMSTONE_HAVE_FSYNC 1
#endif

namespace gemstone {

namespace {

std::atomic<std::uint64_t> appendSyncs{0};

/** fsync a path; best effort on platforms without it. */
bool
syncPath(const std::string &path)
{
#ifdef GEMSTONE_HAVE_FSYNC
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return false;
    bool ok = ::fsync(fd) == 0;
    ::close(fd);
    return ok;
#else
    (void)path;
    return true;
#endif
}

} // namespace

Status
fsyncDirectoryOf(const std::string &path)
{
#ifdef GEMSTONE_HAVE_FSYNC
    std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    const std::string dir = parent.empty() ? "." : parent.string();
    if (!syncPath(dir)) {
        return Status::error(StatusCode::IoError,
                             "cannot fsync directory " + dir);
    }
#else
    (void)path;
#endif
    return Status::okStatus();
}

Status
atomicWriteFile(const std::string &path, const std::string &content,
                const std::string &marker_line)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            return Status::error(StatusCode::IoError,
                                 "cannot open " + tmp);
        }
        out << content;
        if (!marker_line.empty()) {
            out << marker_line;
            if (marker_line.back() != '\n')
                out << '\n';
        }
        out.flush();
        if (!out) {
            return Status::error(StatusCode::IoError,
                                 "short write to " + tmp);
        }
    }
    if (!syncPath(tmp)) {
        std::filesystem::remove(tmp);
        return Status::error(StatusCode::IoError,
                             "cannot fsync " + tmp);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp);
        return Status::error(StatusCode::IoError,
                             "cannot rename " + tmp + " over " + path +
                                 ": " + ec.message());
    }
    // Make the rename itself durable: until the directory entry is
    // flushed, power loss can roll the rename back — or worse, leave
    // the entry pointing at unflushed metadata. A failure here is a
    // hard error like every other step; callers relying on "either
    // the old file or the new one" need the rename to actually stick.
    return fsyncDirectoryOf(path);
}

Status
AppendFile::create(const std::string &path, const std::string &initial)
{
    close();
    Status created = atomicWriteFile(path, initial);
    if (!created.ok())
        return created;
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
        return Status::error(StatusCode::IoError,
                             "cannot open " + path + " for append: " +
                                 std::strerror(errno));
    }
    filePath = path;
    return Status::okStatus();
}

Status
AppendFile::append(const std::string &bytes)
{
    std::size_t done = 0;
    while (done < bytes.size()) {
        ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            Status failed = Status::error(
                StatusCode::IoError,
                "cannot append to " + filePath + ": " +
                    std::strerror(errno));
            close();
            return failed;
        }
        done += static_cast<std::size_t>(n);
    }
    return Status::okStatus();
}

Status
AppendFile::sync()
{
    appendSyncs.fetch_add(1, std::memory_order_relaxed);
    if (::fdatasync(fd) != 0) {
        Status failed = Status::error(StatusCode::IoError,
                                      "cannot fdatasync " + filePath +
                                          ": " + std::strerror(errno));
        close();
        return failed;
    }
    return Status::okStatus();
}

std::uint64_t
appendSyncCount()
{
    return appendSyncs.load(std::memory_order_relaxed);
}

void
AppendFile::close()
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

Result<TailRecovery>
recoverCsvTail(const std::string &path)
{
    TailRecovery recovery;
    std::error_code ec;
    if (!std::filesystem::exists(path, ec) || ec)
        return recovery;

    std::string content;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            return Status::error(StatusCode::IoError,
                                 "cannot open " + path);
        }
        content.assign(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
    }

    // Last complete record boundary: the final newline at quote
    // depth zero. Everything after it is a torn append.
    bool quoted = false;
    std::size_t last_boundary = 0;  // bytes belonging to whole rows
    for (std::size_t i = 0; i < content.size(); ++i) {
        char c = content[i];
        if (c == '"')
            quoted = !quoted;
        else if (c == '\n' && !quoted)
            last_boundary = i + 1;
    }
    if (last_boundary == content.size())
        return recovery;  // file ends on a row boundary: intact

    const std::string tail = content.substr(last_boundary);
    recovery.recovered = true;
    recovery.quarantinedBytes = tail.size();
    recovery.corruptPath = path + ".corrupt";
    {
        std::ofstream sidecar(recovery.corruptPath,
                              std::ios::binary | std::ios::app);
        if (!sidecar) {
            return Status::error(StatusCode::IoError,
                                 "cannot open " + recovery.corruptPath);
        }
        sidecar << tail;
        if (tail.empty() || tail.back() != '\n')
            sidecar << '\n';
        sidecar.flush();
        if (!sidecar) {
            return Status::error(StatusCode::IoError,
                                 "short write to " +
                                     recovery.corruptPath);
        }
    }
    // The quarantine must be durable before the truncate destroys
    // the only other copy of the tail: fsync the sidecar's bytes and
    // its directory entry (the file may be freshly created).
    if (!syncPath(recovery.corruptPath)) {
        return Status::error(StatusCode::IoError,
                             "cannot fsync " + recovery.corruptPath);
    }
    Status dir_synced = fsyncDirectoryOf(recovery.corruptPath);
    if (!dir_synced.ok())
        return dir_synced;
    // Truncate back to the last good row only after the tail is
    // safely in the sidecar.
    std::filesystem::resize_file(path, last_boundary, ec);
    if (ec) {
        return Status::error(StatusCode::IoError,
                             "cannot truncate " + path + ": " +
                                 ec.message());
    }
    if (!syncPath(path)) {
        return Status::error(StatusCode::IoError,
                             "cannot fsync " + path);
    }
    return recovery;
}

} // namespace gemstone
