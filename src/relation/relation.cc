#include "relation/relation.h"

#include <algorithm>

#include "common/logging.h"

namespace dar {

Relation::Relation(Schema schema) : schema_(std::move(schema)) {
  columns_.resize(schema_.num_attributes());
}

Status Relation::AppendRow(std::span<const double> values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row width " + std::to_string(values.size()) +
        " does not match schema width " + std::to_string(columns_.size()));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].push_back(values[c]);
  }
  ++num_rows_;
  return Status::OK();
}

Status Relation::Append(const Relation& other) {
  if (other.num_columns() != columns_.size()) {
    return Status::InvalidArgument(
        "relation width " + std::to_string(other.num_columns()) +
        " does not match schema width " + std::to_string(columns_.size()));
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::vector<double>& column = columns_[c];
    const size_t old_rows = column.size();
    const size_t new_rows = other.columns_[c].size();
    // resize() before reading the source keeps a self-append valid: the
    // source is then read from the grown buffer.
    column.resize(old_rows + new_rows);
    std::copy_n(other.columns_[c].begin(), new_rows,
                column.begin() + static_cast<std::ptrdiff_t>(old_rows));
  }
  num_rows_ += other.num_rows_;
  return Status::OK();
}

void Relation::ProjectRow(size_t row, std::span<const size_t> cols,
                          std::vector<double>& out) const {
  out.resize(cols.size());
  for (size_t i = 0; i < cols.size(); ++i) {
    out[i] = columns_[cols[i]][row];
  }
}

std::vector<double> Relation::Row(size_t row) const {
  std::vector<double> out(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) out[c] = columns_[c][row];
  return out;
}

Result<Relation> Relation::Project(std::span<const size_t> cols) const {
  std::vector<Attribute> attrs;
  attrs.reserve(cols.size());
  for (size_t c : cols) {
    if (c >= schema_.num_attributes()) {
      return Status::OutOfRange("column index " + std::to_string(c) +
                                " out of range");
    }
    attrs.push_back(schema_.attribute(c));
  }
  DAR_ASSIGN_OR_RETURN(Schema schema, Schema::Make(std::move(attrs)));
  Relation out(std::move(schema));
  out.num_rows_ = num_rows_;
  for (size_t i = 0; i < cols.size(); ++i) {
    out.columns_[i] = columns_[cols[i]];
  }
  return out;
}

Result<Relation> Relation::SelectRows(std::span<const size_t> rows) const {
  Relation out(schema_);
  out.Reserve(rows.size());
  std::vector<double> buf(columns_.size());
  for (size_t r : rows) {
    if (r >= num_rows_) {
      return Status::OutOfRange("row index " + std::to_string(r) +
                                " out of range");
    }
    for (size_t c = 0; c < columns_.size(); ++c) buf[c] = columns_[c][r];
    DAR_RETURN_IF_ERROR(out.AppendRow(buf));
  }
  return out;
}

void Relation::Reserve(size_t n) {
  for (auto& col : columns_) col.reserve(n);
}

}  // namespace dar
