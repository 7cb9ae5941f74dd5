/**
 * @file
 * CsvWriter and CsvReader implementations.
 */

#include "util/csv.hh"

#include <cmath>
#include <fstream>
#include <sstream>

#include "util/atomicfile.hh"
#include "util/logging.hh"
#include "util/strutil.hh"

namespace gemstone {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : headerCells(std::move(header))
{
}

void
CsvWriter::addRow(const std::vector<std::string> &cells)
{
    panic_if(cells.size() != headerCells.size(),
             "csv row width mismatch: ", cells.size(), " vs ",
             headerCells.size());
    rows.push_back(cells);
}

void
CsvWriter::addNumericRow(const std::string &key,
                         const std::vector<double> &values)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(key);
    for (double v : values)
        cells.push_back(formatDouble(v, 9));
    addRow(cells);
}

std::string
CsvWriter::quote(const std::string &field)
{
    bool needs_quotes = field.find_first_of(",\"\n") != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out += "\"";
    return out;
}

std::string
CsvWriter::formatRow(const std::vector<std::string> &cells)
{
    std::string out;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        if (i > 0)
            out += ',';
        out += quote(cells[i]);
    }
    out += '\n';
    return out;
}

void
CsvWriter::write(std::ostream &os) const
{
    os << formatRow(headerCells);
    for (const auto &row : rows)
        os << formatRow(row);
}

bool
CsvWriter::writeFile(const std::string &path) const
{
    std::ofstream file(path);
    if (!file)
        return false;
    write(file);
    return static_cast<bool>(file);
}

Status
CsvWriter::writeFileAtomic(const std::string &path,
                           bool with_marker) const
{
    std::ostringstream buffer;
    write(buffer);
    return atomicWriteFile(path, buffer.str(),
                           with_marker ? kCsvIntegrityMarker
                                       : std::string());
}

namespace {

/**
 * Scan one RFC-4180 record starting at the current stream position.
 * Returns false at end of input. Quoted fields may span lines, so the
 * record may consume several physical lines; @p line is advanced
 * accordingly. @p at_eof is set when the record ended at end of input
 * rather than at a newline — i.e. this is the document's final,
 * possibly torn, record.
 */
bool
scanRecord(std::istream &is, std::size_t &line,
           std::vector<std::string> &cells,
           std::vector<CsvError> &errors, bool &at_eof)
{
    cells.clear();
    at_eof = false;
    if (is.peek() == std::char_traits<char>::eof())
        return false;

    std::size_t start_line = line;
    std::string field;
    bool quoted = false;       // inside a quoted field
    bool was_quoted = false;   // field began with a quote
    bool clean = true;

    auto fail = [&](const std::string &message) {
        if (clean)
            errors.push_back({start_line, message});
        clean = false;
    };

    int ch;
    while ((ch = is.get()) != std::char_traits<char>::eof()) {
        char c = static_cast<char>(ch);
        if (quoted) {
            if (c == '"') {
                if (is.peek() == '"') {
                    field.push_back('"');
                    is.get();
                } else {
                    quoted = false;
                }
            } else {
                if (c == '\n')
                    ++line;
                field.push_back(c);
            }
            continue;
        }
        if (c == '"') {
            if (field.empty() && !was_quoted) {
                quoted = true;
                was_quoted = true;
            } else {
                fail(was_quoted
                         ? "text after closing quote"
                         : "stray quote inside unquoted field");
                field.push_back(c);
            }
        } else if (c == ',') {
            cells.push_back(std::move(field));
            field.clear();
            was_quoted = false;
        } else if (c == '\r' && is.peek() == '\n') {
            // CRLF: fold into the LF case on the next iteration.
        } else if (c == '\n') {
            ++line;
            cells.push_back(std::move(field));
            return clean;
        } else {
            if (was_quoted)
                fail("text after closing quote");
            field.push_back(c);
        }
    }
    if (quoted)
        fail("unterminated quoted field");
    // Final record without a trailing newline.
    at_eof = true;
    cells.push_back(std::move(field));
    ++line;
    return clean;
}

} // namespace

CsvReader
CsvReader::parse(std::istream &is)
{
    CsvReader reader;
    std::size_t line = 1;
    std::vector<std::string> cells;
    bool at_eof = false;

    if (!scanRecord(is, line, cells, reader.parseErrors, at_eof) &&
        cells.empty()) {
        reader.parseErrors.push_back({1, "empty document: no header"});
        return reader;
    }
    reader.headerCells = cells;

    while (true) {
        std::size_t record_line = line;
        std::size_t errors_before = reader.parseErrors.size();
        if (!scanRecord(is, line, cells, reader.parseErrors, at_eof) &&
            cells.empty()) {
            break;
        }
        if (cells.size() == 1 && cells[0].empty())
            continue;  // blank line (e.g. trailing newline)
        if (!cells[0].empty() && cells[0][0] == '#') {
            // Comment record; an exact integrity marker proves the
            // file was written to completion.
            if (cells.size() == 1 &&
                trim(cells[0]) == kCsvIntegrityMarker) {
                reader.sawMarker = true;
            }
            continue;
        }
        bool structural = reader.parseErrors.size() != errors_before;
        // A truncated row can only lose fields, never gain them.
        bool short_row = cells.size() < reader.headerCells.size();
        if (!structural && cells.size() != reader.headerCells.size()) {
            reader.parseErrors.push_back(
                {record_line,
                 detail::concatToString(
                     "row has ", cells.size(), " fields, header has ",
                     reader.headerCells.size())});
        }
        if (structural || cells.size() != reader.headerCells.size()) {
            if (at_eof && (structural || short_row)) {
                // Final record cut off mid-row — the signature of a
                // torn append. Tolerate it: reclassify its
                // diagnostics as the truncated tail so earlier good
                // rows survive.
                reader.tailErrors.assign(
                    reader.parseErrors.begin() + errors_before,
                    reader.parseErrors.end());
                reader.parseErrors.resize(errors_before);
            }
            continue;
        }
        reader.rows.push_back(cells);
        reader.rowLines.push_back(record_line);
    }
    return reader;
}

CsvReader
CsvReader::parseFile(const std::string &path)
{
    std::ifstream file(path);
    if (!file) {
        CsvReader reader;
        reader.parseErrors.push_back({0, "cannot open " + path});
        return reader;
    }
    return parse(file);
}

std::vector<std::string>
CsvReader::errorStrings() const
{
    std::vector<std::string> out;
    out.reserve(parseErrors.size());
    for (const CsvError &e : parseErrors)
        out.push_back(detail::concatToString("line ", e.line, ": ",
                                             e.message));
    return out;
}

const std::vector<std::string> &
CsvReader::row(std::size_t index) const
{
    panic_if(index >= rows.size(), "csv row ", index,
             " out of range (", rows.size(), " rows)");
    return rows[index];
}

std::size_t
CsvReader::columnIndex(const std::string &column) const
{
    for (std::size_t i = 0; i < headerCells.size(); ++i) {
        if (headerCells[i] == column)
            return i;
    }
    return npos;
}

const std::string &
CsvReader::cell(std::size_t row_index, const std::string &column) const
{
    std::size_t col = columnIndex(column);
    panic_if(col == npos, "csv column '", column, "' not present");
    return row(row_index)[col];
}

bool
CsvReader::requireColumns(const std::vector<std::string> &columns)
{
    bool all_present = true;
    for (const std::string &column : columns) {
        if (columnIndex(column) == npos) {
            parseErrors.push_back(
                {1, "missing required column '" + column + "'"});
            all_present = false;
        }
    }
    return all_present;
}

double
CsvReader::numericCell(std::size_t row_index,
                       const std::string &column, double fallback)
{
    const std::string &text = cell(row_index, column);
    const std::string trimmed = trim(text);
    if (!trimmed.empty()) {
        std::size_t consumed = 0;
        double value = fallback;
        try {
            value = std::stod(trimmed, &consumed);
        } catch (const std::exception &) {
            consumed = 0;
        }
        if (consumed == trimmed.size() && std::isfinite(value))
            return value;
    }
    parseErrors.push_back(
        {rowLines[row_index],
         detail::concatToString("column '", column,
                                "': not a finite number: '", text,
                                "'")});
    return fallback;
}

} // namespace gemstone
