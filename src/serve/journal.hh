/**
 * @file
 * Per-request durability journal for the campaign service.
 *
 * A durable request's admitted state — spec bytes, resume token,
 * settled PointResult payloads in stream order, and the final Summary
 * payload — is persisted as one append-only journal file per request
 * (util/atomicfile AppendFile): the header is created atomically at
 * admission, then every settled point and the summary append one
 * checksummed line. The daemon fdatasyncs each journal once per
 * drained event batch, before any frame of that batch reaches a
 * client, so a client never holds a point the journal could lose.
 *
 * The journal is the replay source for Attach: the stored payloads
 * are the exact bytes the daemon streamed, so a re-attached stream is
 * byte-identical to an uninterrupted one. It is also the recovery
 * source after a daemon crash: a restarted daemon scans the journal
 * directory, re-admits every unfinished request under its original id
 * and token, and resumes its campaign from the per-request checkpoint
 * file that lives alongside the journal.
 *
 * Format v2 (text lines; binary payloads hex-encoded; <sum> is
 * exec::ResultStore::fnv1a of the payload bytes as 16 lowercase hex
 * digits):
 *
 *   gemstone-journal v2
 *   request <decimal id>
 *   token <token string>
 *   spec <hex of encodeCampaignSpec bytes>
 *   point <hex of encodePointUpdate payload> <sum>   (0..n, stream order)
 *   summary <hex of encodeSummary payload> <sum>     (finished only)
 *
 * A SIGKILL mid-append can only tear the last line; the decoder keeps
 * the longest prefix of lines that pass their checksums.
 *
 * DESIGN.md §16 is the normative description.
 */

#ifndef GEMSTONE_SERVE_JOURNAL_HH
#define GEMSTONE_SERVE_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/atomicfile.hh"
#include "util/status.hh"

namespace gemstone::serve {

/** Durable state of one admitted request. */
struct RequestJournal
{
    std::uint64_t requestId = 0;
    /** Opaque resume token ("gst1-" + 32 hex chars). */
    std::string token;
    /** encodeCampaignSpec() bytes — the idempotency key. */
    std::string specBytes;
    /** True once a valid summary line is present. */
    bool finished = false;
    /** Settled encodePointUpdate() payloads, in stream order — the
     *  byte-exact Attach replay source. */
    std::vector<std::string> points;
    /** encodeSummary() payload; set when finished. */
    std::string summary;
};

/** Lowercase hex of arbitrary bytes (journal payload encoding). */
std::string hexEncode(const std::string &bytes);

/** Inverse of hexEncode(); false on odd length or a non-hex digit. */
bool hexDecode(const std::string &hex, std::string &out);

/**
 * Generate a fresh opaque resume token: "gst1-" + 32 hex chars mixing
 * entropy from std::random_device, the clock and @p request_id.
 * Collision-safe across daemon restarts for practical purposes; the
 * daemon additionally refuses to issue a token it still holds.
 */
std::string makeResumeToken(std::uint64_t request_id);

/** True when @p token is filesystem-safe ("gst1-" + hex). Journals
 *  with hostile names are never created or opened. */
bool validResumeToken(const std::string &token);

/** `<dir>/req_<token>.journal` */
std::string journalPath(const std::string &dir,
                        const std::string &token);

/** `<dir>/req_<token>.ckpt.csv` — the request's campaign checkpoint,
 *  living next to its journal so recovery finds both. */
std::string journalCheckpointPath(const std::string &dir,
                                  const std::string &token);

/** One appended journal record: `<key> <hex payload> <sum>\n`,
 *  where @p key is "point" or "summary". */
std::string encodeJournalLine(const std::string &key,
                              const std::string &payload);

/**
 * Parse journal file content: the four header lines, then the
 * longest prefix of complete record lines that pass their checksums.
 * False only when the header itself is missing or malformed —
 * recovery skips such a file instead of trusting it.
 */
bool decodeRequestJournal(const std::string &content,
                          RequestJournal &out);

/** Atomically (re)create @p journal's file under @p dir (header,
 *  point lines, summary line when finished) and open it in @p file
 *  for further appends. */
Status createRequestJournal(const std::string &dir,
                            const RequestJournal &journal,
                            AppendFile &file);

/** Delete a request's journal, checkpoint and checkpoint sidecar.
 *  Missing files are fine; only real unlink failures are reported. */
Status removeRequestJournal(const std::string &dir,
                            const std::string &token);

/**
 * Scan @p dir for `req_*.journal` files and decode each. Undecodable
 * files (damaged by external corruption, or a foreign format) are
 * skipped with a warning appended to @p warnings — recovery never
 * aborts on one bad journal. A v1 journal is removed together with
 * its checkpoint, with a warning naming its token. Returned in
 * request-id order (scan order is filesystem-dependent; sorting keeps
 * recovery deterministic).
 */
Result<std::vector<RequestJournal>> loadJournalDir(
    const std::string &dir, std::vector<std::string> &warnings);

} // namespace gemstone::serve

#endif // GEMSTONE_SERVE_JOURNAL_HH
