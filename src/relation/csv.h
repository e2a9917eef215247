#ifndef DAR_RELATION_CSV_H_
#define DAR_RELATION_CSV_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.h"
#include "relation/relation.h"
#include "relation/schema.h"

namespace dar {

/// Options controlling CSV parsing.
struct CsvOptions {
  char delimiter = ',';
  /// Whether the first line names the columns. When false, columns are named
  /// "c0", "c1", ...
  bool has_header = true;
  /// Columns (by name) to treat as nominal; everything else is interval.
  std::vector<std::string> nominal_columns;
  /// When non-empty, every parse error is prefixed with "'source_name': "
  /// so a caller juggling several inputs can tell which one is malformed.
  /// ReadCsvFile fills it with the file path when the caller left it empty.
  std::string source_name;
};

/// Result of reading a CSV: the relation plus the dictionaries that encoded
/// each nominal column (keyed by column index; interval columns have empty
/// dictionaries).
struct CsvTable {
  Relation relation;
  std::vector<Dictionary> dictionaries;
};

/// Parses CSV text from `in`. Nominal columns are dictionary-encoded; any
/// non-numeric value in an interval column is an error.
Result<CsvTable> ReadCsv(std::istream& in, const CsvOptions& options = {});

/// Incremental CSV reader for streaming ingest (StreamingMiner::Ingest):
/// Open() consumes the header and fixes the schema, then each NextBatch()
/// yields a micro-batch Relation of up to `max_rows` rows without
/// materializing the rest of the input. Nominal-column dictionaries
/// persist across batches, so a label first seen in batch 1 keeps its
/// code in batch 9.
///
/// Edge cases a streaming source surfaces are handled explicitly: CRLF
/// line endings are stripped, a final row without a trailing newline is
/// still a row, and a row whose field count does not match the header is
/// an InvalidArgument naming the 1-based physical line — never a silent
/// skip. Blank lines are ignored (they are not rows in any CSV dialect we
/// accept) but still advance the line counter.
///
///     DAR_ASSIGN_OR_RETURN(CsvStreamReader reader,
///                          CsvStreamReader::Open(file, opts));
///     while (!reader.exhausted()) {
///       DAR_ASSIGN_OR_RETURN(Relation batch, reader.NextBatch(1024));
///       if (batch.num_rows() > 0) DAR_RETURN_IF_ERROR(stream->Ingest(batch));
///     }
class CsvStreamReader {
 public:
  /// Reads the header (or, without one, peeks the first row for the
  /// width) and fixes the schema. `in` is borrowed and must outlive the
  /// reader. Fails on empty input or an invalid header.
  static Result<CsvStreamReader> Open(std::istream& in,
                                      const CsvOptions& options = {});

  /// Parses up to `max_rows` further rows (> 0). Returns a Relation with
  /// fewer rows — possibly zero — when the input ends first; after that
  /// exhausted() is true and further calls yield empty batches.
  Result<Relation> NextBatch(size_t max_rows);

  [[nodiscard]] const Schema& schema() const { return schema_; }

  /// Dictionary per column (empty for interval columns), growing as new
  /// nominal labels arrive. Codes are stable across batches.
  [[nodiscard]] const std::vector<Dictionary>& dictionaries() const {
    return dictionaries_;
  }

  /// True once the underlying stream has ended.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

  /// 1-based physical line number of the last line consumed (header,
  /// blank and data lines all count), 0 before Open reads anything.
  [[nodiscard]] size_t line_number() const { return line_number_; }

 private:
  CsvStreamReader(std::istream& in, CsvOptions options)
      : in_(&in), options_(std::move(options)) {}

  // Reads the next non-blank line (CRLF-stripped) into `line`, advancing
  // line_number_; false at end of input.
  bool NextLine(std::string& line);

  std::istream* in_;
  CsvOptions options_;
  Schema schema_;
  std::vector<std::string> names_;
  std::vector<Dictionary> dictionaries_;
  // Without a header the first line is data but must be read at Open to
  // size the schema; it is replayed by the first NextBatch.
  std::string pending_line_;
  bool has_pending_ = false;
  size_t pending_line_number_ = 0;
  size_t line_number_ = 0;
  bool exhausted_ = false;
};

/// Reads a CSV file from `path`.
Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvOptions& options = {});

/// Writes `table` as CSV (header + rows). Nominal columns are decoded back
/// to their labels via the supplied dictionaries; interval values are
/// written with the exact digits, the shortest that parse back to the same
/// double (FormatDoubleExact).
Status WriteCsv(const CsvTable& table, std::ostream& out,
                char delimiter = ',');

}  // namespace dar

#endif  // DAR_RELATION_CSV_H_
