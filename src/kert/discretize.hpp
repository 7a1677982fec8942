#pragma once
/// \file discretize.hpp
/// Quantile discretization of elapsed-time data. Section 5 builds *discrete*
/// KERT-BNs ("there are comparatively many data points to work with"); each
/// continuous column is mapped to equal-frequency bins, and bin centers map
/// states back to seconds for reporting and for evaluating the deterministic
/// workflow function on binned parents.

#include <vector>

#include "bn/dataset.hpp"

namespace kertbn::core {

/// Per-column quantile binning.
class ColumnDiscretizer {
 public:
  /// Fits \p bins equal-frequency bins to the values (bins >= 2). Duplicate
  /// edges arising from ties are nudged apart.
  ColumnDiscretizer(std::span<const double> values, std::size_t bins);

  /// Rebuilds from persisted parts: \p edges ascending interior cut points
  /// (bins-1 of them), \p centers one per bin, plus the fitted data range.
  static ColumnDiscretizer from_parts(std::vector<double> edges,
                                      std::vector<double> centers,
                                      double data_min, double data_max);

  std::size_t bins() const { return centers_.size(); }
  /// State index of a raw value.
  std::size_t bin_of(double value) const;
  /// Representative (median-ish) value of a state.
  double center_of(std::size_t state) const;
  /// Interior cut points (bins-1 of them, ascending).
  const std::vector<double>& edges() const { return edges_; }
  /// Smallest / largest value seen when fitting (close the edge bins).
  double data_min() const { return data_min_; }
  double data_max() const { return data_max_; }
  /// Interval [lo, hi) covered by a state, using data_min/max for the
  /// open-ended edge bins.
  std::pair<double, double> interval_of(std::size_t state) const;

  /// P(value > threshold) for a state distribution over this column's
  /// bins, spreading each bin's mass uniformly across its interval —
  /// far smoother than counting whole bin centers.
  double exceedance(std::span<const double> state_probs,
                    double threshold) const;

 private:
  ColumnDiscretizer() = default;

  std::vector<double> edges_;    // interior edges, size bins-1
  std::vector<double> centers_;  // size bins
  double data_min_ = 0.0;
  double data_max_ = 0.0;
};

/// Whole-dataset discretizer: one ColumnDiscretizer per column.
class DatasetDiscretizer {
 public:
  /// Fits \p bins bins to every column of \p data.
  DatasetDiscretizer(const bn::Dataset& data, std::size_t bins);

  /// Rebuilds from persisted per-column discretizers (all must share the
  /// same bin count).
  static DatasetDiscretizer from_columns(
      std::vector<ColumnDiscretizer> columns);

  std::size_t bins() const { return bins_; }
  std::size_t columns() const { return columns_.size(); }
  const ColumnDiscretizer& column(std::size_t c) const;

  /// Maps a continuous dataset (same schema) to state indices.
  bn::Dataset discretize(const bn::Dataset& data) const;
  /// Maps one row (same schema) to state indices, written to \p states.
  void discretize_row(std::span<const double> row,
                      std::span<double> states) const;

 private:
  explicit DatasetDiscretizer(std::vector<ColumnDiscretizer> columns);

  std::size_t bins_;
  std::vector<ColumnDiscretizer> columns_;
};

}  // namespace kertbn::core
