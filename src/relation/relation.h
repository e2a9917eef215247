#ifndef DAR_RELATION_RELATION_H_
#define DAR_RELATION_RELATION_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relation/schema.h"

namespace dar {

/// A column-major numeric table: the relation `r` over schema `R` of §4.1.
///
/// All values are stored as doubles. Interval attributes hold their natural
/// numeric values; nominal attributes hold dictionary codes (see
/// `Dictionary`). Column-major layout keeps Phase I's per-attribute-set scans
/// cache-friendly.
class Relation {
 public:
  Relation() = default;
  explicit Relation(Schema schema);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] size_t num_rows() const { return num_rows_; }
  [[nodiscard]] size_t num_columns() const { return columns_.size(); }

  /// Appends a row; `values.size()` must equal the number of attributes.
  Status AppendRow(std::span<const double> values);
  Status AppendRow(std::initializer_list<double> values) {
    return AppendRow(std::span<const double>(values.begin(), values.size()));
  }

  /// Appends every row of `other`, column by column; `other` must have as
  /// many columns as this relation. Capacity grows geometrically, so
  /// appending batch after batch costs time linear in the rows appended.
  Status Append(const Relation& other);

  /// Full column `col` (length num_rows()).
  [[nodiscard]] std::span<const double> column(size_t col) const {
    return columns_.at(col);
  }

  [[nodiscard]] double at(size_t row, size_t col) const { return columns_.at(col).at(row); }

  /// Copies row `row` projected on `cols` into `out` (resized to match).
  /// This is the tuple image t[X] used throughout the paper.
  void ProjectRow(size_t row, std::span<const size_t> cols,
                  std::vector<double>& out) const;

  /// Entire row as a vector (convenience for tests/examples).
  [[nodiscard]] std::vector<double> Row(size_t row) const;

  /// New relation containing only the columns in `cols`, in that order.
  [[nodiscard]] Result<Relation> Project(std::span<const size_t> cols) const;

  /// New relation containing only the rows in `rows`, in that order.
  [[nodiscard]] Result<Relation> SelectRows(std::span<const size_t> rows) const;

  /// Reserves capacity for `n` rows across all columns.
  void Reserve(size_t n);

 private:
  Schema schema_;
  std::vector<std::vector<double>> columns_;
  size_t num_rows_ = 0;
};

}  // namespace dar

#endif  // DAR_RELATION_RELATION_H_
