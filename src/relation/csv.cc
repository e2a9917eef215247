#include "relation/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace dar {

namespace {

// Prefixes input-shaped errors with the configured source name (a file
// path, a URL, a queue id) so multi-input callers can attribute failures.
Status WithSource(Status status, const CsvOptions& options) {
  if (status.ok() || options.source_name.empty()) return status;
  return Status(status.code(),
                "'" + options.source_name + "': " + status.message());
}

// Parses one data line into `row`, encoding nominal fields through the
// (persistent) dictionaries. `line_number` is the 1-based physical line,
// used verbatim in every error.
Status ParseCsvRow(const std::string& line, const CsvOptions& options,
                   const Schema& schema,
                   const std::vector<std::string>& names, size_t line_number,
                   std::vector<Dictionary>& dictionaries,
                   std::vector<double>& row) {
  std::vector<std::string> fields = Split(line, options.delimiter);
  if (fields.size() != names.size()) {
    return Status::InvalidArgument(
        "line " + std::to_string(line_number) + " has " +
        std::to_string(fields.size()) + " fields, expected " +
        std::to_string(names.size()));
  }
  for (size_t c = 0; c < fields.size(); ++c) {
    std::string_view field = StripWhitespace(fields[c]);
    if (schema.attribute(c).kind == AttributeKind::kNominal) {
      row[c] = dictionaries[c].Encode(std::string(field));
    } else {
      auto parsed = ParseDouble(field);
      if (!parsed.ok()) {
        return Status::InvalidArgument(
            "line " + std::to_string(line_number) + ", column '" + names[c] +
            "': " + parsed.status().message());
      }
      row[c] = *parsed;
    }
  }
  return Status::OK();
}

}  // namespace

bool CsvStreamReader::NextLine(std::string& line) {
  while (std::getline(*in_, line)) {
    ++line_number_;
    // getline also yields a final row that has no trailing newline, so a
    // truncated last line is still a row, not a silent drop.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) return true;
  }
  return false;
}

Result<CsvStreamReader> CsvStreamReader::Open(std::istream& in,
                                              const CsvOptions& options) {
  CsvStreamReader reader(in, options);
  std::string first;
  if (!reader.NextLine(first)) {
    return WithSource(Status::InvalidArgument("empty CSV input"), options);
  }

  std::vector<std::string> names;
  if (options.has_header) {
    for (const auto& f : Split(first, options.delimiter)) {
      names.emplace_back(StripWhitespace(f));
    }
  } else {
    size_t width = Split(first, options.delimiter).size();
    for (size_t i = 0; i < width; ++i) {
      names.push_back("c" + std::to_string(i));
    }
    reader.pending_line_ = std::move(first);
    reader.pending_line_number_ = reader.line_number_;
    reader.has_pending_ = true;
  }

  std::vector<Attribute> attrs;
  attrs.reserve(names.size());
  for (const auto& name : names) {
    AttributeKind kind =
        std::find(options.nominal_columns.begin(),
                  options.nominal_columns.end(),
                  name) != options.nominal_columns.end()
            ? AttributeKind::kNominal
            : AttributeKind::kInterval;
    attrs.push_back({name, kind});
  }
  DAR_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));

  reader.schema_ = std::move(schema);
  reader.names_ = std::move(names);
  reader.dictionaries_.resize(reader.names_.size());
  return reader;
}

Result<Relation> CsvStreamReader::NextBatch(size_t max_rows) {
  if (max_rows == 0) {
    return Status::InvalidArgument("NextBatch max_rows must be > 0");
  }
  Relation batch(schema_);
  std::vector<double> row(names_.size());
  std::string line;
  while (batch.num_rows() < max_rows) {
    size_t line_number;
    if (has_pending_) {
      line = std::move(pending_line_);
      line_number = pending_line_number_;
      has_pending_ = false;
    } else if (NextLine(line)) {
      line_number = line_number_;
    } else {
      exhausted_ = true;
      break;
    }
    DAR_RETURN_IF_ERROR(WithSource(
        ParseCsvRow(line, options_, schema_, names_, line_number,
                    dictionaries_, row),
        options_));
    DAR_RETURN_IF_ERROR(batch.AppendRow(row));
  }
  return batch;
}

Result<CsvTable> ReadCsv(std::istream& in, const CsvOptions& options) {
  // One parse path for batch and streaming: ReadCsv is the stream reader
  // drained in one go.
  DAR_ASSIGN_OR_RETURN(CsvStreamReader reader,
                       CsvStreamReader::Open(in, options));
  CsvTable table{Relation(reader.schema()), {}};
  std::vector<double> row(reader.schema().num_attributes());
  while (!reader.exhausted()) {
    DAR_ASSIGN_OR_RETURN(Relation batch, reader.NextBatch(4096));
    for (size_t r = 0; r < batch.num_rows(); ++r) {
      for (size_t c = 0; c < row.size(); ++c) row[c] = batch.at(r, c);
      DAR_RETURN_IF_ERROR(table.relation.AppendRow(row));
    }
  }
  table.dictionaries = reader.dictionaries();
  return table;
}

Result<CsvTable> ReadCsvFile(const std::string& path,
                             const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  CsvOptions file_options = options;
  if (file_options.source_name.empty()) file_options.source_name = path;
  return ReadCsv(in, file_options);
}

Status WriteCsv(const CsvTable& table, std::ostream& out, char delimiter) {
  const Relation& rel = table.relation;
  const Schema& schema = rel.schema();
  for (size_t c = 0; c < schema.num_attributes(); ++c) {
    if (c > 0) out << delimiter;
    out << schema.attribute(c).name;
  }
  out << "\n";
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (c > 0) out << delimiter;
      double v = rel.at(r, c);
      if (schema.attribute(c).kind == AttributeKind::kNominal) {
        DAR_ASSIGN_OR_RETURN(std::string label,
                             table.dictionaries[c].Decode(v));
        out << label;
      } else {
        out << FormatDoubleExact(v);
      }
    }
    out << "\n";
  }
  if (!out) return Status::IOError("CSV write failed");
  return Status::OK();
}

}  // namespace dar
