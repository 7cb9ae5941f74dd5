/**
 * @file
 * Request journal serialisation and directory recovery.
 */

#include "serve/journal.hh"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <random>

#include "exec/resultstore.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/strutil.hh"

namespace gemstone::serve {

namespace {

constexpr char kJournalHeader[] = "gemstone-journal v2";
constexpr char kJournalV1Header[] = "gemstone-journal v1\n";
constexpr char kTokenPrefix[] = "gst1-";
constexpr std::size_t kTokenHexChars = 32;

int
hexDigit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

/** 16 lowercase hex digits of @p value. */
std::string
hex64(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (int shift = 60; shift >= 0; shift -= 4)
        out.push_back(digits[(value >> shift) & 0xf]);
    return out;
}

/** "<key> <value>" header line; false on any other key. */
bool
headerField(const std::string &line, const std::string &key,
            std::string &value)
{
    if (!startsWith(line, key + " "))
        return false;
    value = line.substr(key.size() + 1);
    return true;
}

} // namespace

std::string
hexEncode(const std::string &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(bytes.size() * 2);
    for (unsigned char c : bytes) {
        out.push_back(digits[c >> 4]);
        out.push_back(digits[c & 0x0f]);
    }
    return out;
}

bool
hexDecode(const std::string &hex, std::string &out)
{
    if (hex.size() % 2 != 0)
        return false;
    out.clear();
    out.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        int hi = hexDigit(hex[i]);
        int lo = hexDigit(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return false;
        out.push_back(static_cast<char>((hi << 4) | lo));
    }
    return true;
}

std::string
makeResumeToken(std::uint64_t request_id)
{
    // Tokens must stay unguessable-enough and unique across daemon
    // restarts, so the deterministic Rng seeds used everywhere else
    // are exactly wrong here: mix real entropy with the clock and
    // the request id.
    std::uint64_t state = request_id;
    try {
        std::random_device entropy;
        state ^= (static_cast<std::uint64_t>(entropy()) << 32) ^
            entropy();
    } catch (const std::exception &) {
        // A throwing random_device (exotic platforms) degrades to
        // clock-only mixing below.
    }
    state ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    state ^= static_cast<std::uint64_t>(
                 std::chrono::system_clock::now()
                     .time_since_epoch()
                     .count())
        << 17;
    std::string token = kTokenPrefix + hex64(splitmix64(state));
    return token + hex64(splitmix64(state));
}

bool
validResumeToken(const std::string &token)
{
    if (!startsWith(token, kTokenPrefix))
        return false;
    const std::string hex = token.substr(sizeof(kTokenPrefix) - 1);
    if (hex.size() != kTokenHexChars)
        return false;
    for (char c : hex) {
        if (hexDigit(c) < 0)
            return false;
    }
    return true;
}

std::string
journalPath(const std::string &dir, const std::string &token)
{
    return dir + "/req_" + token + ".journal";
}

std::string
journalCheckpointPath(const std::string &dir, const std::string &token)
{
    return dir + "/req_" + token + ".ckpt.csv";
}

std::string
encodeJournalLine(const std::string &key, const std::string &payload)
{
    return key + ' ' + hexEncode(payload) + ' ' +
        hex64(exec::ResultStore::fnv1a(payload)) + '\n';
}

bool
decodeRequestJournal(const std::string &content, RequestJournal &out)
{
    out = RequestJournal();
    // Only newline-terminated lines count: the field after the last
    // newline is a torn append (empty when the file is intact).
    std::vector<std::string> lines = split(content, '\n');
    lines.pop_back();
    std::string id, spec_hex;
    if (lines.size() < 4 || lines[0] != kJournalHeader ||
        !headerField(lines[1], "request", id) ||
        !headerField(lines[2], "token", out.token) ||
        !headerField(lines[3], "spec", spec_hex) ||
        !validResumeToken(out.token) ||
        !hexDecode(spec_hex, out.specBytes)) {
        return false;
    }
    try {
        out.requestId = std::stoull(id);
    } catch (const std::exception &) {
        return false;
    }
    // The longest valid prefix of records: the first line that is
    // malformed or fails its checksum ends the journal.
    for (std::size_t i = 4; i < lines.size() && !out.finished; ++i) {
        std::vector<std::string> fields = split(lines[i], ' ');
        std::string payload;
        if (fields.size() != 3 || !hexDecode(fields[1], payload) ||
            fields[2] != hex64(exec::ResultStore::fnv1a(payload))) {
            break;
        }
        if (fields[0] == "point") {
            out.points.push_back(std::move(payload));
        } else if (fields[0] == "summary") {
            out.summary = std::move(payload);
            out.finished = true;
        } else {
            break;
        }
    }
    return true;
}

Status
createRequestJournal(const std::string &dir,
                     const RequestJournal &journal, AppendFile &file)
{
    std::string content = std::string(kJournalHeader) + '\n';
    content += "request " + std::to_string(journal.requestId) + '\n';
    content += "token " + journal.token + '\n';
    content += "spec " + hexEncode(journal.specBytes) + '\n';
    for (const std::string &point : journal.points)
        content += encodeJournalLine("point", point);
    if (journal.finished)
        content += encodeJournalLine("summary", journal.summary);
    return file.create(journalPath(dir, journal.token), content);
}

Status
removeRequestJournal(const std::string &dir, const std::string &token)
{
    Status failure = Status::okStatus();
    const std::string checkpoint = journalCheckpointPath(dir, token);
    for (const std::string &path :
         {journalPath(dir, token), checkpoint,
          checkpoint + ".corrupt", checkpoint + ".tmp"}) {
        std::error_code ec;
        std::filesystem::remove(path, ec);
        if (ec) {
            failure = Status::error(StatusCode::IoError,
                                    "cannot remove " + path + ": " +
                                        ec.message());
        }
    }
    return failure;
}

Result<std::vector<RequestJournal>>
loadJournalDir(const std::string &dir,
               std::vector<std::string> &warnings)
{
    std::vector<RequestJournal> journals;
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec) || ec)
        return journals;
    std::filesystem::directory_iterator it(dir, ec);
    if (ec) {
        return Status::error(StatusCode::IoError,
                             "cannot scan journal dir " + dir + ": " +
                                 ec.message());
    }
    for (const auto &entry : it) {
        const std::string name = entry.path().filename().string();
        if (!startsWith(name, "req_") ||
            !endsWith(name, ".journal")) {
            continue;
        }
        std::string content;
        {
            std::ifstream in(entry.path(), std::ios::binary);
            if (!in) {
                warnings.push_back("journal " + name +
                                   ": cannot open; skipped");
                continue;
            }
            content.assign(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
        }
        if (startsWith(content, kJournalV1Header)) {
            // Whole-file-rewrite format of an older daemon: its
            // payloads carry no checksums, so it is not resumed.
            const std::string token =
                name.substr(4, name.size() - 4 - 8);
            if (validResumeToken(token))
                removeRequestJournal(dir, token);
            warnings.push_back("journal " + name +
                               ": gemstone-journal v1 for token " +
                               token + "; dropped");
            continue;
        }
        RequestJournal journal;
        if (!decodeRequestJournal(content, journal)) {
            warnings.push_back("journal " + name +
                               ": undecodable; skipped");
            continue;
        }
        if (journalPath(dir, journal.token) != entry.path().string())
            warnings.push_back("journal " + name +
                               ": token does not match filename");
        journals.push_back(std::move(journal));
    }
    std::sort(journals.begin(), journals.end(),
              [](const RequestJournal &a, const RequestJournal &b) {
                  return a.requestId < b.requestId;
              });
    return journals;
}

} // namespace gemstone::serve
