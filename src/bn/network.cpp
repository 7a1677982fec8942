#include "bn/network.hpp"

#include <cmath>
#include <numbers>
#include <sstream>

#include "bn/tabular_cpd.hpp"
#include "common/contract.hpp"

namespace kertbn::bn {

BayesianNetwork::BayesianNetwork(const BayesianNetwork& other)
    : dag_(other.dag_), vars_(other.vars_) {
  cpds_.reserve(other.cpds_.size());
  for (const auto& c : other.cpds_) {
    cpds_.push_back(c ? c->clone() : nullptr);
  }
}

BayesianNetwork& BayesianNetwork::operator=(const BayesianNetwork& other) {
  if (this == &other) return *this;
  BayesianNetwork tmp(other);
  *this = std::move(tmp);
  return *this;
}

std::size_t BayesianNetwork::add_node(Variable var) {
  const std::size_t v = dag_.add_node(var.name);
  vars_.push_back(std::move(var));
  cpds_.emplace_back();
  KERTBN_ENSURES(v == vars_.size() - 1);
  return v;
}

bool BayesianNetwork::add_edge(std::size_t parent, std::size_t child) {
  return dag_.add_edge(parent, child);
}

const Variable& BayesianNetwork::variable(std::size_t v) const {
  KERTBN_EXPECTS(v < vars_.size());
  return vars_[v];
}

void BayesianNetwork::set_cpd(std::size_t v, std::unique_ptr<Cpd> cpd) {
  KERTBN_EXPECTS(v < vars_.size());
  KERTBN_EXPECTS(cpd != nullptr);
  KERTBN_EXPECTS(cpd->parent_count() == dag_.in_degree(v));
  if (cpd->kind() == CpdKind::kTabular) {
    KERTBN_EXPECTS(vars_[v].is_discrete());
    const auto& tab = static_cast<const TabularCpd&>(*cpd);
    KERTBN_EXPECTS(tab.child_cardinality() == vars_[v].cardinality);
    const auto& pcards = tab.parent_cardinalities();
    const auto pars = dag_.parents(v);
    for (std::size_t i = 0; i < pars.size(); ++i) {
      KERTBN_EXPECTS(vars_[pars[i]].is_discrete());
      KERTBN_EXPECTS(pcards[i] == vars_[pars[i]].cardinality);
    }
  }
  cpds_[v] = std::move(cpd);
}

bool BayesianNetwork::has_cpd(std::size_t v) const {
  KERTBN_EXPECTS(v < cpds_.size());
  return cpds_[v] != nullptr;
}

const Cpd& BayesianNetwork::cpd(std::size_t v) const {
  KERTBN_EXPECTS(v < cpds_.size());
  KERTBN_EXPECTS(cpds_[v] != nullptr);
  return *cpds_[v];
}

bool BayesianNetwork::is_complete() const {
  for (std::size_t v = 0; v < size(); ++v) {
    if (!cpds_[v]) return false;
    if (cpds_[v]->parent_count() != dag_.in_degree(v)) return false;
  }
  return true;
}

void BayesianNetwork::gather_parent_values(std::size_t v,
                                           std::span<const double> row,
                                           std::vector<double>& buf) const {
  const auto pars = dag_.parents(v);
  buf.resize(pars.size());
  for (std::size_t i = 0; i < pars.size(); ++i) buf[i] = row[pars[i]];
}

std::vector<double> BayesianNetwork::sample_row(Rng& rng) const {
  KERTBN_EXPECTS(is_complete());
  std::vector<double> row(size(), 0.0);
  std::vector<double> parent_buf;
  for (std::size_t v : dag_.topological_order()) {
    gather_parent_values(v, row, parent_buf);
    row[v] = cpds_[v]->sample(parent_buf, rng);
  }
  return row;
}

Dataset BayesianNetwork::sample(std::size_t n, Rng& rng) const {
  std::vector<std::string> names;
  names.reserve(size());
  for (const auto& var : vars_) names.push_back(var.name);
  Dataset out(std::move(names));
  for (std::size_t i = 0; i < n; ++i) {
    out.add_row(sample_row(rng));
  }
  return out;
}

double BayesianNetwork::log_likelihood(const Dataset& data) const {
  double total = 0.0;
  for (std::size_t v = 0; v < size(); ++v) {
    total += node_log_likelihood(v, data);
  }
  return total;
}

double BayesianNetwork::row_log_likelihood(std::span<const double> row) const {
  KERTBN_EXPECTS(is_complete());
  KERTBN_EXPECTS(row.size() == size());
  std::vector<double> parent_buf;
  double total = 0.0;
  for (std::size_t v = 0; v < size(); ++v) {
    gather_parent_values(v, row, parent_buf);
    total += cpds_[v]->log_prob(row[v], parent_buf);
  }
  return total;
}

double BayesianNetwork::node_log_likelihood(std::size_t v,
                                            const Dataset& data) const {
  KERTBN_EXPECTS(v < size());
  KERTBN_EXPECTS(cpds_[v] != nullptr);
  KERTBN_EXPECTS(data.cols() == size());
  std::vector<double> parent_buf;
  double total = 0.0;
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto row = data.row(r);
    gather_parent_values(v, row, parent_buf);
    total += cpds_[v]->log_prob(row[v], parent_buf);
  }
  return total;
}

double BayesianNetwork::log10_likelihood(const Dataset& data) const {
  return log_likelihood(data) / std::numbers::ln10;
}

std::size_t BayesianNetwork::parameter_count() const {
  std::size_t total = 0;
  for (const auto& c : cpds_) {
    if (c) total += c->parameter_count();
  }
  return total;
}

std::string BayesianNetwork::describe() const {
  std::ostringstream out;
  for (std::size_t v = 0; v < size(); ++v) {
    out << vars_[v].name;
    const auto pars = dag_.parents(v);
    if (!pars.empty()) {
      out << " | ";
      for (std::size_t i = 0; i < pars.size(); ++i) {
        if (i > 0) out << ", ";
        out << vars_[pars[i]].name;
      }
    }
    out << " ~ " << (cpds_[v] ? cpds_[v]->describe() : "<unset>") << '\n';
  }
  return out.str();
}

}  // namespace kertbn::bn
