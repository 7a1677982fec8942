#include "kert/kert_builder.hpp"

#include <algorithm>
#include <cmath>

#include "bn/deterministic_cpd.hpp"
#include "common/contract.hpp"
#include "common/stopwatch.hpp"
#include "obs/span.hpp"

namespace kertbn::core {

graph::Dag build_kert_structure(const wf::Workflow& workflow,
                                const wf::ResourceSharing& sharing,
                                const KertStructureOptions& opts) {
  const std::size_t n = workflow.service_count();
  graph::Dag dag(n + 1);
  for (std::size_t s = 0; s < n; ++s) {
    dag.set_label(s, workflow.service_names()[s]);
  }
  dag.set_label(n, "D");

  // Workflow knowledge: immediate-upstream edges.
  for (const auto& [a, b] : workflow.upstream_edges()) {
    dag.add_edge(a, b);
  }
  // Resource-sharing knowledge: co-hosted services depend on each other.
  // Oriented low->high index; add_edge refuses cycles, so combinations with
  // workflow edges stay consistent ("as few loops as possible").
  if (opts.use_resource_sharing) {
    for (const auto& [a, b] : sharing.sharing_pairs()) {
      if (!dag.has_edge(a, b) && !dag.has_edge(b, a)) {
        dag.add_edge(a, b);
      }
    }
  }
  // D depends on every service elapsed time.
  for (std::size_t s = 0; s < n; ++s) {
    const bool ok = dag.add_edge(s, n);
    KERTBN_ASSERT(ok);
  }
  return dag;
}

namespace {

/// \p expr over the services as D's deterministic function. D's parents
/// are the service nodes 0..n-1 in node order, so the parent span is
/// indexed exactly like the expression's service leaves.
bn::DeterministicFn deterministic_fn(const wf::Expr::Ptr& expr,
                                     const wf::Workflow& workflow) {
  bn::DeterministicFn fn;
  fn.arity = workflow.service_count();
  fn.expression = expr->to_string(workflow.service_names());
  fn.fn = [expr](std::span<const double> parents) {
    return expr->evaluate(parents);
  };
  return fn;
}

/// Leak calibration for an arbitrary metric expression: residual scale of
/// D - f(services) where services are the first \p n_services columns and
/// D is the last column.
double calibrate_leak_for_expr(const wf::Expr& expr, std::size_t n_services,
                               const bn::Dataset& train) {
  KERTBN_EXPECTS(train.rows() >= 1);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t r = 0; r < train.rows(); ++r) {
    const auto row = train.row(r);
    const double resid =
        row[train.cols() - 1] - expr.evaluate(row.first(n_services));
    sum += resid;
    sum_sq += resid * resid;
  }
  return leak_sigma_from_residual_moments(sum, sum_sq, train.rows());
}

}  // namespace

bn::DeterministicFn make_response_fn(const wf::Workflow& workflow) {
  return deterministic_fn(workflow.response_time_expr(), workflow);
}

bn::TabularCpd make_deterministic_cpt(const wf::Workflow& workflow,
                                      const DatasetDiscretizer& discretizer,
                                      double leak_l,
                                      std::size_t samples_per_config) {
  KERTBN_EXPECTS(leak_l >= 0.0 && leak_l < 1.0);
  KERTBN_EXPECTS(samples_per_config >= 1);
  const std::size_t n = workflow.service_count();
  KERTBN_EXPECTS(discretizer.columns() == n + 1);
  const std::size_t bins = discretizer.bins();
  const std::size_t samples = samples_per_config;
  // One sample sits at the bin centres and draws nothing.
  const bool draw = samples > 1;

  // Per (service, state) at index i * bins + state: where the state's points
  // start and how wide they spread — uniform(lo, max(hi, lo + 1e-12))'s
  // operands, or the bin centre with no spread.
  std::vector<double> lo(n * bins, 0.0);
  std::vector<double> width(n * bins, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const ColumnDiscretizer& column = discretizer.column(i);
    for (std::size_t s = 0; s < bins; ++s) {
      if (!draw) {
        lo[i * bins + s] = column.center_of(s);
        continue;
      }
      const auto [a, b] = column.interval_of(s);
      lo[i * bins + s] = a;
      width[i * bins + s] = std::max(b, a + 1e-12) - a;
    }
  }
  const std::vector<double>& d_edges = discretizer.column(n).edges();

  std::size_t configs = 1;
  for (std::size_t i = 0; i < n; ++i) configs *= bins;

  std::vector<double> table(configs * bins, 0.0);
  std::vector<std::size_t> states(n, 0);
  std::vector<double> uniforms(draw ? samples * n : 0);
  wf::LaneEvaluator f(*workflow.response_time_expr(), n, samples);
  const double off_mass = leak_l / static_cast<double>(bins);
  const double hit_mass = (1.0 - leak_l) / static_cast<double>(samples);
  // Fixed seed: the CPT is a deterministic function of the knowledge
  // (workflow + bin geometry), reproducible across reconstructions. The
  // draws run in (configuration, sample, service) order.
  Rng rng(0x5EED5EED);

  for (std::size_t cfg = 0; cfg < configs; ++cfg) {
    double* row = table.data() + cfg * bins;
    rng.fill_uniform(uniforms);
    for (std::size_t i = 0; i < n; ++i) {
      const double x0 = lo[i * bins + states[i]];
      const double w = width[i * bins + states[i]];
      const std::span<double> x = f.service_lanes(i);
      if (!draw) {
        x[0] = x0;
        continue;
      }
      for (std::size_t k = 0; k < samples; ++k) {
        x[k] = x0 + w * uniforms[k * n + i];
      }
    }
    for (double d : f.run()) {
      row[std::upper_bound(d_edges.begin(), d_edges.end(), d) -
          d_edges.begin()] += hit_mass;
    }
    for (std::size_t s = 0; s < bins; ++s) row[s] += off_mass;
    // Advance mixed-radix parent counter (last parent fastest, matching
    // TabularCpd's config indexing).
    for (std::size_t i = n; i-- > 0;) {
      if (++states[i] < bins) break;
      states[i] = 0;
    }
  }
  return bn::TabularCpd(bins, std::vector<std::size_t>(n, bins),
                        std::move(table));
}

double leak_sigma_from_residual_moments(double sum, double sum_sq,
                                        std::size_t rows, double min_sigma) {
  KERTBN_EXPECTS(rows >= 1);
  const double mean = sum / static_cast<double>(rows);
  const double var =
      std::max(sum_sq / static_cast<double>(rows) - mean * mean, 0.0);
  // The leak absorbs both spread and any systematic offset — a biased f
  // must not be scored as if it were exact.
  return std::max(std::sqrt(var + mean * mean), min_sigma);
}

namespace {

/// Service variables, D, and the knowledge DAG's edges — no CPDs.
bn::BayesianNetwork knowledge_net(const wf::Workflow& workflow,
                                  const wf::ResourceSharing& sharing,
                                  const KertStructureOptions& opts,
                                  std::size_t bins) {
  const auto variable = [bins](const std::string& name) {
    return bins > 0 ? bn::Variable::discrete(name, bins)
                    : bn::Variable::continuous(name);
  };
  const std::size_t n = workflow.service_count();
  bn::BayesianNetwork net;
  for (std::size_t s = 0; s < n; ++s) {
    net.add_node(variable(workflow.service_names()[s]));
  }
  net.add_node(variable("D"));

  const graph::Dag structure = build_kert_structure(workflow, sharing, opts);
  for (std::size_t v = 0; v < structure.size(); ++v) {
    for (std::size_t p : structure.parents(v)) {
      const bool ok = net.add_edge(p, v);
      KERTBN_ASSERT(ok);
    }
  }
  return net;
}

/// A copy of the skeleton's knowledge net with D's CPD installed: the
/// whole structure step of a construction over a cached skeleton.
bn::BayesianNetwork instantiate(const KertSkeleton& skeleton,
                                std::unique_ptr<bn::Cpd> d_cpd) {
  bn::BayesianNetwork net = skeleton.net;
  net.set_cpd(response_node(skeleton.service_count()), std::move(d_cpd));
  return net;
}

}  // namespace

KertSkeleton make_kert_skeleton(const wf::Workflow& workflow,
                                const wf::ResourceSharing& sharing,
                                std::size_t bins,
                                const KertStructureOptions& opts) {
  KERTBN_EXPECTS(bins == 0 || bins >= 2);
  KertSkeleton skeleton;
  skeleton.bins = bins;
  skeleton.net = knowledge_net(workflow, sharing, opts, bins);
  skeleton.response_expr = workflow.response_time_expr();
  skeleton.response_fn = deterministic_fn(skeleton.response_expr, workflow);
  if (bins > 0) {
    const std::size_t n = workflow.service_count();
    skeleton.count_layouts.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      const auto pars = skeleton.net.dag().parents(v);
      CountLayout& layout = skeleton.count_layouts[v];
      layout.child_col = v;
      layout.parent_cols.assign(pars.begin(), pars.end());
      layout.child_card = bins;
      layout.parent_cards.assign(pars.size(), bins);
    }
  }
  return skeleton;
}

bn::BayesianNetwork build_kert_skeleton_continuous(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    double leak_sigma, const KertStructureOptions& opts) {
  const KertSkeleton skeleton = make_kert_skeleton(workflow, sharing, 0, opts);
  return instantiate(skeleton, std::make_unique<bn::DeterministicCpd>(
                                   skeleton.response_fn, leak_sigma));
}

bn::BayesianNetwork build_kert_skeleton_discrete(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const DatasetDiscretizer& discretizer, double leak_l,
    const KertStructureOptions& opts) {
  const KertSkeleton skeleton =
      make_kert_skeleton(workflow, sharing, discretizer.bins(), opts);
  return instantiate(skeleton, std::make_unique<bn::TabularCpd>(
                                   make_deterministic_cpt(
                                       workflow, discretizer, leak_l)));
}

namespace {

/// A cancelled learn legitimately leaves nodes unfitted; the caller
/// (ModelManager::try_reconstruct) discards the partial network instead of
/// publishing it. Completeness is only guaranteed for finished learns.
bool learn_cancelled(const bn::ParameterLearnOptions& learn) {
  return learn.cancel != nullptr &&
         learn.cancel->load(std::memory_order_relaxed);
}

KertResult finish_construction(bn::BayesianNetwork net,
                               double structure_seconds,
                               const bn::Dataset& train, LearningMode mode,
                               const bn::ParameterLearnOptions& learn,
                               ThreadPool* pool, Stopwatch& total) {
  KertResult result{std::move(net), {}};
  result.report.structure_seconds = structure_seconds;

  Stopwatch params;
  if (mode == LearningMode::kDecentralized) {
    const dec::DecentralizedReport rep =
        dec::learn_parameters_decentralized(result.net, train, learn, pool);
    result.report.per_node_seconds = rep.per_agent_seconds;
    result.report.decentralized_seconds = rep.decentralized_seconds;
    result.report.centralized_equivalent_seconds = rep.centralized_seconds;
  } else {
    // Centralized mode: one host does all fits — concurrently across nodes
    // when a pool is supplied (results are bit-identical either way).
    const bn::ParameterLearnReport rep =
        bn::learn_parameters(result.net, train, learn, pool);
    result.report.per_node_seconds = rep.per_node_seconds;
    result.report.decentralized_seconds = rep.max_node_seconds();
    result.report.centralized_equivalent_seconds = rep.sum_node_seconds();
  }
  result.report.parameter_seconds = params.seconds();
  result.report.total_seconds = total.seconds();
  KERTBN_ENSURES(learn_cancelled(learn) || result.net.is_complete());
  return result;
}

/// Charges a cold build's knowledge translation to its structure time.
KertResult with_translation(KertResult result, double translate_seconds) {
  result.report.structure_seconds += translate_seconds;
  result.report.total_seconds += translate_seconds;
  return result;
}

}  // namespace

KertResult construct_kert_continuous(const KertSkeleton& skeleton,
                                     const bn::Dataset& train,
                                     LearningMode mode, double leak_sigma,
                                     const bn::ParameterLearnOptions& learn,
                                     ThreadPool* pool) {
  KERTBN_EXPECTS(!skeleton.discrete());
  const std::size_t n = skeleton.service_count();
  KERTBN_EXPECTS(train.cols() == n + 1);
  KERTBN_SPAN("kert.construct.continuous");
  Stopwatch total;
  Stopwatch structure;
  if (leak_sigma <= 0.0) {
    leak_sigma = calibrate_leak_for_expr(*skeleton.response_expr, n, train);
  }
  bn::BayesianNetwork net = instantiate(
      skeleton, std::make_unique<bn::DeterministicCpd>(skeleton.response_fn,
                                                       leak_sigma));
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

KertResult construct_kert_continuous(const wf::Workflow& workflow,
                                     const wf::ResourceSharing& sharing,
                                     const bn::Dataset& train,
                                     LearningMode mode, double leak_sigma,
                                     const bn::ParameterLearnOptions& learn,
                                     ThreadPool* pool) {
  Stopwatch translate;
  const KertSkeleton skeleton = make_kert_skeleton(workflow, sharing);
  const double translate_seconds = translate.seconds();
  return with_translation(construct_kert_continuous(skeleton, train, mode,
                                                    leak_sigma, learn, pool),
                          translate_seconds);
}

KertResult construct_kert_for_metric(const wf::Workflow& workflow,
                                     const wf::ResourceSharing& sharing,
                                     const wf::Expr::Ptr& metric_expr,
                                     const bn::Dataset& train,
                                     LearningMode mode, double leak_sigma,
                                     const bn::ParameterLearnOptions& learn,
                                     ThreadPool* pool) {
  KERTBN_EXPECTS(metric_expr != nullptr);
  const std::size_t n = workflow.service_count();
  KERTBN_EXPECTS(train.cols() == n + 1);
  Stopwatch total;
  Stopwatch structure;
  if (leak_sigma <= 0.0) {
    leak_sigma = calibrate_leak_for_expr(*metric_expr, n, train);
  }
  bn::BayesianNetwork net = knowledge_net(workflow, sharing, {}, 0);
  net.set_cpd(response_node(n),
              std::make_unique<bn::DeterministicCpd>(
                  deterministic_fn(metric_expr, workflow), leak_sigma));
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

KertResult construct_kert_with_resources(
    const wf::Workflow& workflow, const wf::ResourceSharing& sharing,
    const bn::Dataset& train, LearningMode mode, double leak_sigma,
    const bn::ParameterLearnOptions& learn, ThreadPool* pool) {
  const std::size_t n = workflow.service_count();
  const std::size_t m = sharing.groups.size();
  KERTBN_EXPECTS(train.cols() == n + m + 1);
  Stopwatch total;
  Stopwatch structure;

  const wf::Expr::Ptr expr = workflow.response_time_expr();
  if (leak_sigma <= 0.0) {
    leak_sigma = calibrate_leak_for_expr(*expr, n, train);
  }

  bn::BayesianNetwork net;
  for (std::size_t s = 0; s < n; ++s) {
    net.add_node(bn::Variable::continuous(workflow.service_names()[s]));
  }
  for (const auto& group : sharing.groups) {
    net.add_node(bn::Variable::continuous(group.name));
  }
  const std::size_t d_node = net.add_node(bn::Variable::continuous("D"));

  // Workflow knowledge between services (resource correlation is carried
  // by the explicit resource nodes instead of X-X shortcut edges).
  for (const auto& [a, b] : workflow.upstream_edges()) {
    net.add_edge(a, b);
  }
  // Each group's services are the parents of its resource node (the
  // paper's formulation; observing the resource couples its services).
  for (std::size_t g = 0; g < m; ++g) {
    for (std::size_t s : sharing.groups[g].services) {
      KERTBN_EXPECTS(s < n);
      const bool ok = net.add_edge(s, n + g);
      KERTBN_ASSERT(ok);
    }
  }
  for (std::size_t s = 0; s < n; ++s) {
    const bool ok = net.add_edge(s, d_node);
    KERTBN_ASSERT(ok);
  }

  // D's parents are exactly the n service nodes (resource nodes have no
  // edge into D), so the deterministic function arity stays n.
  net.set_cpd(d_node, std::make_unique<bn::DeterministicCpd>(
                          deterministic_fn(expr, workflow), leak_sigma));
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

namespace {

/// One staged per-node fit from cached statistics.
struct StagedCpdFit {
  std::unique_ptr<bn::Cpd> cpd;
  double seconds = 0.0;
};

/// Stages per-node CPD fits (serially or on \p pool), installs them, and
/// fills the report's per-node timing fields the way bn::learn_parameters
/// does. \p fit_one must be safe to run concurrently against the const
/// network (it only reads structure and the cached statistics).
template <typename FitFn>
void install_staged_fits(bn::BayesianNetwork& net,
                         const std::vector<std::size_t>& nodes, FitFn fit_one,
                         ThreadPool* pool, KertConstructionReport& report) {
  report.per_node_seconds.assign(net.size(), 0.0);
  std::vector<StagedCpdFit> fits(nodes.size());
  if (pool == nullptr || nodes.size() < 2) {
    for (std::size_t i = 0; i < nodes.size(); ++i) fits[i] = fit_one(nodes[i]);
  } else {
    std::vector<std::future<StagedCpdFit>> futures;
    futures.reserve(nodes.size());
    for (std::size_t v : nodes) {
      futures.push_back(pool->submit([&fit_one, v] { return fit_one(v); }));
    }
    for (std::size_t i = 0; i < futures.size(); ++i) fits[i] = futures[i].get();
  }
  double sum = 0.0;
  double max = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    report.per_node_seconds[nodes[i]] = fits[i].seconds;
    sum += fits[i].seconds;
    max = std::max(max, fits[i].seconds);
    net.set_cpd(nodes[i], std::move(fits[i].cpd));
  }
  report.decentralized_seconds = max;
  report.centralized_equivalent_seconds = sum;
}

/// Fits every service node of \p net (D already carries its CPD) through
/// \p fit_one and completes the construction report.
template <typename FitFn>
KertResult finish_staged_construction(bn::BayesianNetwork net,
                                      double structure_seconds, FitFn fit_one,
                                      const bn::ParameterLearnOptions& learn,
                                      ThreadPool* pool, Stopwatch& total) {
  KertResult result{std::move(net), {}};
  result.report.structure_seconds = structure_seconds;
  Stopwatch params;
  std::vector<std::size_t> nodes;
  for (std::size_t v = 0; v < result.net.size(); ++v) {
    if (!result.net.has_cpd(v)) nodes.push_back(v);
  }
  install_staged_fits(result.net, nodes, fit_one, pool, result.report);
  result.report.parameter_seconds = params.seconds();
  result.report.total_seconds = total.seconds();
  KERTBN_ENSURES(learn_cancelled(learn) || result.net.is_complete());
  return result;
}

}  // namespace

KertResult construct_kert_continuous_from_stats(
    const KertSkeleton& skeleton, const la::Matrix& gram, std::size_t rows,
    double leak_sigma, const bn::ParameterLearnOptions& learn,
    ThreadPool* pool) {
  KERTBN_EXPECTS(!skeleton.discrete());
  const std::size_t n = skeleton.service_count();
  KERTBN_EXPECTS(rows >= 1);
  KERTBN_EXPECTS(gram.rows() == n + 2 && gram.cols() == n + 2);
  KERTBN_EXPECTS(leak_sigma > 0.0);
  KERTBN_SPAN("kert.construct.from_stats");
  Stopwatch total;
  Stopwatch structure;
  bn::BayesianNetwork net = instantiate(
      skeleton, std::make_unique<bn::DeterministicCpd>(skeleton.response_fn,
                                                       leak_sigma));
  const double structure_seconds = structure.seconds();

  const graph::Dag& dag = skeleton.net.dag();
  auto fit_one = [&dag, &gram, rows, &learn](std::size_t v) {
    Stopwatch timer;
    const auto pars = dag.parents(v);
    const std::vector<std::size_t> parent_cols(pars.begin(), pars.end());
    auto cpd = std::make_unique<bn::LinearGaussianCpd>(
        bn::fit_linear_gaussian_from_moments(gram, rows, v, parent_cols,
                                             learn.min_sigma, learn.ridge));
    return StagedCpdFit{std::move(cpd), timer.seconds()};
  };
  return finish_staged_construction(std::move(net), structure_seconds, fit_one,
                                    learn, pool, total);
}

KertResult construct_kert_discrete_from_counts(
    const KertSkeleton& skeleton, bn::TabularCpd d_cpt,
    std::span<const std::vector<double>> node_counts,
    const bn::ParameterLearnOptions& learn, ThreadPool* pool) {
  KERTBN_EXPECTS(skeleton.discrete());
  KERTBN_EXPECTS(node_counts.size() == skeleton.service_count());
  KERTBN_SPAN("kert.construct.from_counts");
  Stopwatch total;
  Stopwatch structure;
  bn::BayesianNetwork net = instantiate(
      skeleton, std::make_unique<bn::TabularCpd>(std::move(d_cpt)));
  const double structure_seconds = structure.seconds();

  const std::vector<CountLayout>& layouts = skeleton.count_layouts;
  auto fit_one = [&layouts, node_counts, &learn](std::size_t v) {
    Stopwatch timer;
    auto cpd = std::make_unique<bn::TabularCpd>(bn::fit_tabular_cpd_from_counts(
        node_counts[v], layouts[v].child_card, layouts[v].parent_cards,
        learn.dirichlet_alpha));
    return StagedCpdFit{std::move(cpd), timer.seconds()};
  };
  return finish_staged_construction(std::move(net), structure_seconds, fit_one,
                                    learn, pool, total);
}

KertResult construct_kert_discrete(const KertSkeleton& skeleton,
                                   bn::TabularCpd d_cpt,
                                   const bn::Dataset& train,
                                   LearningMode mode,
                                   const bn::ParameterLearnOptions& learn,
                                   ThreadPool* pool) {
  KERTBN_EXPECTS(skeleton.discrete());
  KERTBN_SPAN("kert.construct.discrete");
  Stopwatch total;
  Stopwatch structure;
  bn::BayesianNetwork net = instantiate(
      skeleton, std::make_unique<bn::TabularCpd>(std::move(d_cpt)));
  const double structure_seconds = structure.seconds();
  return finish_construction(std::move(net), structure_seconds, train, mode,
                             learn, pool, total);
}

KertResult construct_kert_discrete(const wf::Workflow& workflow,
                                   const wf::ResourceSharing& sharing,
                                   const DatasetDiscretizer& discretizer,
                                   const bn::Dataset& train,
                                   LearningMode mode, double leak_l,
                                   const bn::ParameterLearnOptions& learn,
                                   ThreadPool* pool) {
  Stopwatch translate;
  const KertSkeleton skeleton =
      make_kert_skeleton(workflow, sharing, discretizer.bins());
  bn::TabularCpd d_cpt = make_deterministic_cpt(workflow, discretizer, leak_l);
  const double translate_seconds = translate.seconds();
  return with_translation(
      construct_kert_discrete(skeleton, std::move(d_cpt), train, mode, learn,
                              pool),
      translate_seconds);
}

}  // namespace kertbn::core
