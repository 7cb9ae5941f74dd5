/**
 * @file
 * CSV emission and validated ingestion for experiment artefacts.
 *
 * GemStone writes every collated dataset to CSV so results can be
 * inspected or post-processed outside the tool, mirroring the
 * artefact layout of the original release. CsvReader is the ingest
 * side: campaign checkpoints and externally produced datasets are
 * read back with strict RFC-4180 parsing, arity checking and
 * row-level error reporting, so a truncated or hand-edited file is
 * diagnosed instead of silently corrupting a resumed campaign.
 */

#ifndef GEMSTONE_UTIL_CSV_HH
#define GEMSTONE_UTIL_CSV_HH

#include <cstddef>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "util/status.hh"

namespace gemstone {

/**
 * Trailing comment line appended by atomic writers to mark a file as
 * written to completion. Readers that see it know the file was not
 * torn mid-write; comment lines (leading '#') are never parsed as
 * data rows.
 */
inline constexpr const char *kCsvIntegrityMarker =
    "#gemstone:complete";

/**
 * Row-oriented CSV writer with RFC-4180 quoting.
 */
class CsvWriter
{
  public:
    /** Construct with a header row. */
    explicit CsvWriter(std::vector<std::string> header);

    /** Append a row of string cells. */
    void addRow(const std::vector<std::string> &cells);

    /** Append a row of numeric cells. */
    void addNumericRow(const std::string &key,
                       const std::vector<double> &values);

    /** Serialise the whole document. */
    void write(std::ostream &os) const;

    /** Write to a file path; returns false on I/O failure. */
    bool writeFile(const std::string &path) const;

    /**
     * Crash-safe write: serialise to a temp file, fsync, rename over
     * @p path, appending the integrity marker as the final line when
     * @p with_marker is set. Either the previous file or the complete
     * new one survives a crash — never a torn mixture.
     */
    Status writeFileAtomic(const std::string &path,
                           bool with_marker = true) const;

    /** Quote a single CSV field if needed. */
    static std::string quote(const std::string &field);

    /** One record: quoted cells, comma-separated, newline-ended. */
    static std::string formatRow(const std::vector<std::string> &cells);

  private:
    std::vector<std::string> headerCells;
    std::vector<std::vector<std::string>> rows;
};

/** One parse or validation problem, anchored to a 1-based line. */
struct CsvError
{
    std::size_t line = 0;
    std::string message;
};

/**
 * Strict RFC-4180 CSV reader.
 *
 * Quoted fields (with "" escapes and embedded separators/newlines)
 * and CRLF line endings are handled; structural violations — a stray
 * quote inside an unquoted field, text after a closing quote, an
 * unterminated quoted field, or a row whose arity differs from the
 * header — are recorded as CsvError entries and the offending row is
 * dropped. The surviving rows are always rectangular.
 */
class CsvReader
{
  public:
    /** Parse a whole document; the first record is the header. */
    static CsvReader parse(std::istream &is);

    /** Parse a file; a missing/unreadable file is a document error. */
    static CsvReader parseFile(const std::string &path);

    /**
     * True when the document parsed without any error. A truncated
     * final record is tolerated — reported via hasTruncatedTail(),
     * not counted here — so one torn append does not condemn every
     * good row before it.
     */
    bool ok() const { return parseErrors.empty(); }

    /** All accumulated parse and validation errors. */
    const std::vector<CsvError> &errors() const { return parseErrors; }

    /**
     * The document's final record was cut off mid-row (no trailing
     * newline and structurally broken or under header arity) — the
     * signature of a crash during an append or a truncation at an
     * arbitrary byte offset. The partial record is dropped; rows
     * before it are kept.
     */
    bool hasTruncatedTail() const { return !tailErrors.empty(); }

    /** Diagnostics for the dropped tail record, when present. */
    const std::vector<CsvError> &truncatedTail() const
    {
        return tailErrors;
    }

    /**
     * The document ended with the integrity marker comment — it was
     * written to completion by an atomic writer, not torn mid-write.
     */
    bool sawIntegrityMarker() const { return sawMarker; }

    /** One "line N: message" string per error (for diagnostics). */
    std::vector<std::string> errorStrings() const;

    const std::vector<std::string> &header() const
    {
        return headerCells;
    }

    std::size_t rowCount() const { return rows.size(); }

    /** Cells of one surviving row. */
    const std::vector<std::string> &row(std::size_t index) const;

    /** Cell by row index and column name; panics on bad indices. */
    const std::string &cell(std::size_t row_index,
                            const std::string &column) const;

    /** Header position of a column; npos when absent. */
    std::size_t columnIndex(const std::string &column) const;

    /**
     * Require the given columns to be present (in any order); missing
     * ones are recorded as errors. Returns true when all are present.
     */
    bool requireColumns(const std::vector<std::string> &columns);

    /**
     * Parse a cell as a finite double. A malformed or non-finite
     * value records a row-level error and returns @p fallback.
     */
    double numericCell(std::size_t row_index, const std::string &column,
                       double fallback = 0.0);

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  private:
    std::vector<std::string> headerCells;
    std::vector<std::vector<std::string>> rows;
    /** Source line each surviving row started on (for errors). */
    std::vector<std::size_t> rowLines;
    std::vector<CsvError> parseErrors;
    /** Diagnostics for a tolerated truncated final record. */
    std::vector<CsvError> tailErrors;
    bool sawMarker = false;
};

} // namespace gemstone

#endif // GEMSTONE_UTIL_CSV_HH
