#include "bn/learning.hpp"

#include <cmath>

#include "common/contract.hpp"
#include "common/stopwatch.hpp"
#include "linalg/decompose.hpp"

namespace kertbn::bn {

TabularCpd fit_tabular_cpd(const Dataset& data, std::size_t child_col,
                           std::span<const std::size_t> parent_cols,
                           std::size_t child_card,
                           std::span<const std::size_t> parent_cards,
                           double dirichlet_alpha) {
  KERTBN_EXPECTS(parent_cols.size() == parent_cards.size());
  KERTBN_EXPECTS(dirichlet_alpha >= 0.0);
  std::size_t configs = 1;
  for (std::size_t c : parent_cards) configs *= c;
  std::vector<double> counts(configs * child_card, dirichlet_alpha);

  for (std::size_t r = 0; r < data.rows(); ++r) {
    std::size_t cfg = 0;
    for (std::size_t i = 0; i < parent_cols.size(); ++i) {
      const auto state =
          static_cast<std::size_t>(data.value(r, parent_cols[i]));
      KERTBN_EXPECTS(state < parent_cards[i]);
      cfg = cfg * parent_cards[i] + state;
    }
    const auto child_state =
        static_cast<std::size_t>(data.value(r, child_col));
    KERTBN_EXPECTS(child_state < child_card);
    counts[cfg * child_card + child_state] += 1.0;
  }
  // TabularCpd normalizes rows; all-zero rows (alpha=0, unseen config)
  // become uniform, the standard fallback.
  return TabularCpd(child_card,
                    std::vector<std::size_t>(parent_cards.begin(),
                                             parent_cards.end()),
                    std::move(counts));
}

TabularCpd fit_tabular_cpd_from_counts(
    std::span<const double> counts, std::size_t child_card,
    std::span<const std::size_t> parent_cards, double dirichlet_alpha) {
  KERTBN_EXPECTS(dirichlet_alpha >= 0.0);
  std::size_t configs = 1;
  for (std::size_t c : parent_cards) configs *= c;
  KERTBN_EXPECTS(counts.size() == configs * child_card);
  std::vector<double> table(counts.begin(), counts.end());
  for (double& cell : table) cell += dirichlet_alpha;
  return TabularCpd(child_card,
                    std::vector<std::size_t>(parent_cards.begin(),
                                             parent_cards.end()),
                    std::move(table));
}

LinearGaussianCpd fit_linear_gaussian_from_moments(
    const la::Matrix& gram, std::size_t rows, std::size_t child_col,
    std::span<const std::size_t> parent_cols, double min_sigma,
    double ridge) {
  KERTBN_EXPECTS(rows >= 1);
  KERTBN_EXPECTS(gram.rows() == gram.cols());
  KERTBN_EXPECTS(child_col + 1 < gram.rows());
  const std::size_t p = parent_cols.size();

  // Augmented-index map: design column 0 is the intercept (gram row 0),
  // design column i+1 is parent i (gram row parent+1).
  std::vector<std::size_t> idx(p + 1);
  idx[0] = 0;
  for (std::size_t i = 0; i < p; ++i) {
    KERTBN_EXPECTS(parent_cols[i] + 1 < gram.rows());
    idx[i + 1] = parent_cols[i] + 1;
  }

  la::Matrix xtx(p + 1, p + 1);
  la::Vector xty(p + 1);
  for (std::size_t i = 0; i <= p; ++i) {
    for (std::size_t j = 0; j <= p; ++j) xtx(i, j) = gram(idx[i], idx[j]);
    xty[i] = gram(idx[i], child_col + 1);
  }
  const la::Vector beta = la::solve_normal_equations(xtx, xty, ridge);

  // rss = yᵀy - 2·betaᵀXᵀy + betaᵀXᵀX·beta, clamped: cancellation can
  // push a near-perfect fit fractionally below zero.
  const double yty = gram(child_col + 1, child_col + 1);
  double quad = 0.0;
  for (std::size_t i = 0; i <= p; ++i) {
    double row_dot = 0.0;
    for (std::size_t j = 0; j <= p; ++j) row_dot += xtx(i, j) * beta[j];
    quad += beta[i] * row_dot;
  }
  const double rss = std::max(yty - 2.0 * la::dot(beta, xty) + quad, 0.0);
  const double sigma =
      std::max(std::sqrt(rss / static_cast<double>(rows)), min_sigma);

  std::vector<double> weights(p);
  for (std::size_t i = 0; i < p; ++i) weights[i] = beta[i + 1];
  return LinearGaussianCpd(beta[0], std::move(weights), sigma);
}

LinearGaussianCpd fit_linear_gaussian_cpd(
    const Dataset& data, std::size_t child_col,
    std::span<const std::size_t> parent_cols, double min_sigma,
    double ridge) {
  const std::size_t n = data.rows();
  const std::size_t p = parent_cols.size();
  KERTBN_EXPECTS(n >= 1);

  // Design matrix with a leading intercept column.
  la::Matrix x(n, p + 1);
  la::Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    x(r, 0) = 1.0;
    for (std::size_t i = 0; i < p; ++i) {
      x(r, i + 1) = data.value(r, parent_cols[i]);
    }
    y[r] = data.value(r, child_col);
  }
  const la::Vector beta = la::least_squares(x, y, ridge);

  // Residual standard deviation (ML estimate, floored).
  double rss = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    double pred = beta[0];
    for (std::size_t i = 0; i < p; ++i) pred += beta[i + 1] * x(r, i + 1);
    const double e = y[r] - pred;
    rss += e * e;
  }
  const double sigma =
      std::max(std::sqrt(rss / static_cast<double>(n)), min_sigma);

  std::vector<double> weights(p);
  for (std::size_t i = 0; i < p; ++i) weights[i] = beta[i + 1];
  return LinearGaussianCpd(beta[0], std::move(weights), sigma);
}

double ParameterLearnReport::max_node_seconds() const {
  double m = 0.0;
  for (std::size_t v : learned_nodes) {
    m = std::max(m, per_node_seconds[v]);
  }
  return m;
}

double ParameterLearnReport::sum_node_seconds() const {
  double s = 0.0;
  for (std::size_t v : learned_nodes) s += per_node_seconds[v];
  return s;
}

namespace {

/// One staged per-node fit: the CPD and the wall-clock seconds it took.
/// Fitting reads only const network state (structure, variable metadata)
/// and the shared dataset, so independent nodes can fit concurrently;
/// installation into the network happens serially afterwards.
struct NodeFit {
  std::unique_ptr<Cpd> cpd;
  double seconds = 0.0;
};

NodeFit fit_node_cpd(const BayesianNetwork& net, std::size_t v,
                     const Dataset& data,
                     const ParameterLearnOptions& opts) {
  const auto pars = net.dag().parents(v);
  const std::vector<std::size_t> parent_cols(pars.begin(), pars.end());

  NodeFit fit;
  Stopwatch timer;
  if (net.variable(v).is_discrete()) {
    std::vector<std::size_t> parent_cards;
    parent_cards.reserve(parent_cols.size());
    for (std::size_t p : parent_cols) {
      KERTBN_EXPECTS(net.variable(p).is_discrete());
      parent_cards.push_back(net.variable(p).cardinality);
    }
    auto cpd = fit_tabular_cpd(data, v, parent_cols,
                               net.variable(v).cardinality, parent_cards,
                               opts.dirichlet_alpha);
    fit.seconds = timer.seconds();
    fit.cpd = std::make_unique<TabularCpd>(std::move(cpd));
    return fit;
  }
  auto cpd = fit_linear_gaussian_cpd(data, v, parent_cols, opts.min_sigma,
                                     opts.ridge);
  fit.seconds = timer.seconds();
  fit.cpd = std::make_unique<LinearGaussianCpd>(std::move(cpd));
  return fit;
}

}  // namespace

double learn_node_parameters(BayesianNetwork& net, std::size_t v,
                             const Dataset& data,
                             const ParameterLearnOptions& opts) {
  KERTBN_EXPECTS(data.cols() == net.size());
  NodeFit fit = fit_node_cpd(net, v, data, opts);
  net.set_cpd(v, std::move(fit.cpd));
  return fit.seconds;
}

ParameterLearnReport learn_parameters(BayesianNetwork& net,
                                      const Dataset& data,
                                      const ParameterLearnOptions& opts,
                                      ThreadPool* pool) {
  KERTBN_EXPECTS(data.cols() == net.size());
  ParameterLearnReport report;
  report.per_node_seconds.assign(net.size(), 0.0);
  Stopwatch total;

  for (std::size_t v = 0; v < net.size(); ++v) {
    if (net.has_cpd(v) && !opts.refit_existing) continue;
    report.learned_nodes.push_back(v);
  }

  const auto cancelled = [&opts] {
    return opts.cancel != nullptr &&
           opts.cancel->load(std::memory_order_relaxed);
  };

  if (pool == nullptr || report.learned_nodes.size() < 2) {
    for (std::size_t v : report.learned_nodes) {
      if (cancelled()) {
        report.cancelled = true;
        break;
      }
      NodeFit fit = fit_node_cpd(net, v, data, opts);
      report.per_node_seconds[v] = fit.seconds;
      net.set_cpd(v, std::move(fit.cpd));
    }
    report.total_seconds = total.seconds();
    return report;
  }

  // Concurrent fits against the const network/dataset, staged per node
  // and committed in node order; parallel_for rethrows a fit's exception
  // only after every fit finished. A fit that starts after cancellation
  // fired stays empty, and its node keeps its old CPD (if any).
  const std::vector<std::size_t>& nodes = report.learned_nodes;
  std::vector<NodeFit> fits(nodes.size());
  const BayesianNetwork& cnet = net;
  pool->parallel_for(nodes.size(), [&](std::size_t i) {
    if (cancelled()) return;
    fits[i] = fit_node_cpd(cnet, nodes[i], data, opts);
  });
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (fits[i].cpd == nullptr) {
      report.cancelled = true;
      continue;
    }
    report.per_node_seconds[nodes[i]] = fits[i].seconds;
    net.set_cpd(nodes[i], std::move(fits[i].cpd));
  }
  report.total_seconds = total.seconds();
  return report;
}

}  // namespace kertbn::bn
