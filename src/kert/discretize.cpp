#include "kert/discretize.hpp"

#include <algorithm>

#include "common/contract.hpp"
#include "common/stats.hpp"

namespace kertbn::core {

ColumnDiscretizer::ColumnDiscretizer(std::span<const double> values,
                                     std::size_t bins) {
  KERTBN_EXPECTS(bins >= 2);
  KERTBN_EXPECTS(!values.empty());
  data_min_ = values.front();
  data_max_ = values.front();
  for (double v : values) {
    data_min_ = std::min(data_min_, v);
    data_max_ = std::max(data_max_, v);
  }
  edges_.reserve(bins - 1);
  for (std::size_t b = 1; b < bins; ++b) {
    const double q = static_cast<double>(b) / static_cast<double>(bins);
    double edge = quantile(values, q);
    // Ties between quantiles would create empty bins; nudge edges strictly
    // upward so every state remains reachable.
    if (!edges_.empty() && edge <= edges_.back()) {
      edge = edges_.back() + 1e-9;
    }
    edges_.push_back(edge);
  }

  // Bin centers: median of in-bin values, falling back to edge midpoints.
  centers_.assign(bins, 0.0);
  std::vector<std::vector<double>> buckets(bins);
  for (double v : values) buckets[bin_of(v)].push_back(v);
  for (std::size_t b = 0; b < bins; ++b) {
    if (!buckets[b].empty()) {
      centers_[b] = quantile(buckets[b], 0.5);
    } else if (b == 0) {
      centers_[b] = edges_.front();
    } else if (b == bins - 1) {
      centers_[b] = edges_.back();
    } else {
      centers_[b] = 0.5 * (edges_[b - 1] + edges_[b]);
    }
  }
}

ColumnDiscretizer ColumnDiscretizer::from_parts(std::vector<double> edges,
                                                std::vector<double> centers,
                                                double data_min,
                                                double data_max) {
  KERTBN_EXPECTS(centers.size() >= 2);
  KERTBN_EXPECTS(edges.size() == centers.size() - 1);
  for (std::size_t i = 1; i < edges.size(); ++i) {
    KERTBN_EXPECTS(edges[i] > edges[i - 1]);
  }
  KERTBN_EXPECTS(data_max >= data_min);
  ColumnDiscretizer disc;
  disc.edges_ = std::move(edges);
  disc.centers_ = std::move(centers);
  disc.data_min_ = data_min;
  disc.data_max_ = data_max;
  return disc;
}

std::size_t ColumnDiscretizer::bin_of(double value) const {
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  return static_cast<std::size_t>(it - edges_.begin());
}

double ColumnDiscretizer::center_of(std::size_t state) const {
  KERTBN_EXPECTS(state < centers_.size());
  return centers_[state];
}

std::pair<double, double> ColumnDiscretizer::interval_of(
    std::size_t state) const {
  KERTBN_EXPECTS(state < centers_.size());
  const double lo = state == 0 ? data_min_ : edges_[state - 1];
  const double hi =
      state == centers_.size() - 1 ? data_max_ : edges_[state];
  return {lo, std::max(hi, lo)};
}

double ColumnDiscretizer::exceedance(std::span<const double> state_probs,
                                     double threshold) const {
  KERTBN_EXPECTS(state_probs.size() == centers_.size());
  double p = 0.0;
  for (std::size_t b = 0; b < state_probs.size(); ++b) {
    const auto [lo, hi] = interval_of(b);
    if (threshold <= lo) {
      p += state_probs[b];
    } else if (threshold < hi) {
      // Uniform within-bin spread: the fraction of the interval above h.
      p += state_probs[b] * (hi - threshold) / (hi - lo);
    }
  }
  return p;
}

DatasetDiscretizer::DatasetDiscretizer(const bn::Dataset& data,
                                       std::size_t bins)
    : bins_(bins) {
  KERTBN_EXPECTS(data.rows() > 0);
  columns_.reserve(data.cols());
  for (std::size_t c = 0; c < data.cols(); ++c) {
    const auto col = data.column(c);
    columns_.emplace_back(col, bins);
  }
}

DatasetDiscretizer::DatasetDiscretizer(std::vector<ColumnDiscretizer> columns)
    : bins_(columns.empty() ? 0 : columns.front().bins()),
      columns_(std::move(columns)) {
  KERTBN_EXPECTS(!columns_.empty());
  for (const auto& c : columns_) {
    KERTBN_EXPECTS(c.bins() == bins_);
  }
}

DatasetDiscretizer DatasetDiscretizer::from_columns(
    std::vector<ColumnDiscretizer> columns) {
  return DatasetDiscretizer(std::move(columns));
}

const ColumnDiscretizer& DatasetDiscretizer::column(std::size_t c) const {
  KERTBN_EXPECTS(c < columns_.size());
  return columns_[c];
}

bn::Dataset DatasetDiscretizer::discretize(const bn::Dataset& data) const {
  KERTBN_EXPECTS(data.cols() == columns_.size());
  bn::Dataset out(data.column_names());
  std::vector<double> row(data.cols());
  for (std::size_t r = 0; r < data.rows(); ++r) {
    discretize_row(data.row(r), row);
    out.add_row(row);
  }
  return out;
}

void DatasetDiscretizer::discretize_row(std::span<const double> row,
                                        std::span<double> states) const {
  KERTBN_EXPECTS(row.size() == columns_.size());
  KERTBN_EXPECTS(states.size() == columns_.size());
  for (std::size_t c = 0; c < row.size(); ++c) {
    states[c] = static_cast<double>(columns_[c].bin_of(row[c]));
  }
}

}  // namespace kertbn::core
