#pragma once
/// \file network.hpp
/// The Bayesian network: a DAG of Variables, each with a Cpd. Provides
/// ancestral sampling, dataset log-likelihood (the paper's data-fitting
/// accuracy metric, log10 p(TestData | BN)), and structural summaries.

#include <memory>
#include <optional>
#include <vector>

#include "bn/cpd.hpp"
#include "bn/dataset.hpp"
#include "bn/variable.hpp"
#include "graph/dag.hpp"

namespace kertbn::bn {

class BayesianNetwork {
 public:
  BayesianNetwork() = default;

  // Deep-copying value semantics (CPDs are cloned).
  BayesianNetwork(const BayesianNetwork& other);
  BayesianNetwork& operator=(const BayesianNetwork& other);
  BayesianNetwork(BayesianNetwork&&) noexcept = default;
  BayesianNetwork& operator=(BayesianNetwork&&) noexcept = default;

  /// Adds a node; returns its index.
  std::size_t add_node(Variable var);

  /// Adds a dependency edge parent -> child; false if it would cycle.
  bool add_edge(std::size_t parent, std::size_t child);

  std::size_t size() const { return vars_.size(); }
  const graph::Dag& dag() const { return dag_; }
  const Variable& variable(std::size_t v) const;
  std::optional<std::size_t> find_node(const std::string& name) const {
    return dag_.find_label(name);
  }

  /// Installs the CPD for node \p v. The CPD's parent_count must match the
  /// node's current in-degree.
  void set_cpd(std::size_t v, std::unique_ptr<Cpd> cpd);
  bool has_cpd(std::size_t v) const;
  const Cpd& cpd(std::size_t v) const;

  /// True when every node has a CPD consistent with its parents.
  bool is_complete() const;

  /// Samples one joint configuration in node-index order (ancestral
  /// sampling). Requires is_complete().
  std::vector<double> sample_row(Rng& rng) const;

  /// Samples \p n rows into a Dataset whose columns are the variable names
  /// in node-index order.
  Dataset sample(std::size_t n, Rng& rng) const;

  /// Natural-log likelihood of the dataset under the model. Dataset columns
  /// must be the network variables in node-index order.
  double log_likelihood(const Dataset& data) const;

  /// Natural-log likelihood of one row (the network variables in
  /// node-index order), read in place.
  double row_log_likelihood(std::span<const double> row) const;

  /// Contribution of a single node's family to log_likelihood().
  double node_log_likelihood(std::size_t v, const Dataset& data) const;

  /// log10 p(data | BN) — the unit the paper plots.
  double log10_likelihood(const Dataset& data) const;

  /// Total free parameters across CPDs.
  std::size_t parameter_count() const;

  /// One line per node: name, parents, CPD summary.
  std::string describe() const;

 private:
  void gather_parent_values(std::size_t v, std::span<const double> row,
                            std::vector<double>& buf) const;

  graph::Dag dag_;
  std::vector<Variable> vars_;
  std::vector<std::unique_ptr<Cpd>> cpds_;
};

}  // namespace kertbn::bn
