#include "graph/dag.hpp"

#include <algorithm>
#include <queue>
#include <sstream>

#include "common/contract.hpp"
#include "common/indexed_name.hpp"

namespace kertbn::graph {

Dag::Dag(std::size_t n) {
  parents_.resize(n);
  children_.resize(n);
  labels_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels_[i] = indexed_name("v", i);
  }
}

std::size_t Dag::add_node(std::string label) {
  parents_.emplace_back();
  children_.emplace_back();
  if (label.empty()) label = indexed_name("v", labels_.size());
  labels_.push_back(std::move(label));
  return labels_.size() - 1;
}

std::size_t Dag::edge_count() const {
  std::size_t n = 0;
  for (const auto& p : parents_) n += p.size();
  return n;
}

const std::string& Dag::label(std::size_t v) const {
  KERTBN_EXPECTS(v < labels_.size());
  return labels_[v];
}

void Dag::set_label(std::size_t v, std::string label) {
  KERTBN_EXPECTS(v < labels_.size());
  labels_[v] = std::move(label);
}

std::optional<std::size_t> Dag::find_label(const std::string& label) const {
  for (std::size_t v = 0; v < labels_.size(); ++v) {
    if (labels_[v] == label) return v;
  }
  return std::nullopt;
}

bool Dag::add_edge(std::size_t from, std::size_t to) {
  KERTBN_EXPECTS(from < size() && to < size());
  if (from == to) return false;
  if (has_edge(from, to)) return false;
  // Adding from->to creates a cycle iff `from` is reachable from `to`.
  if (reachable(to, from)) return false;
  parents_[to].push_back(from);
  children_[from].push_back(to);
  return true;
}

bool Dag::remove_edge(std::size_t from, std::size_t to) {
  KERTBN_EXPECTS(from < size() && to < size());
  auto& p = parents_[to];
  auto it = std::find(p.begin(), p.end(), from);
  if (it == p.end()) return false;
  p.erase(it);
  auto& c = children_[from];
  c.erase(std::find(c.begin(), c.end(), to));
  return true;
}

bool Dag::has_edge(std::size_t from, std::size_t to) const {
  KERTBN_EXPECTS(from < size() && to < size());
  const auto& p = parents_[to];
  return std::find(p.begin(), p.end(), from) != p.end();
}

std::span<const std::size_t> Dag::parents(std::size_t v) const {
  KERTBN_EXPECTS(v < size());
  return parents_[v];
}

std::span<const std::size_t> Dag::children(std::size_t v) const {
  KERTBN_EXPECTS(v < size());
  return children_[v];
}

std::vector<std::size_t> Dag::roots() const {
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < size(); ++v) {
    if (parents_[v].empty()) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> Dag::leaves() const {
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < size(); ++v) {
    if (children_[v].empty()) out.push_back(v);
  }
  return out;
}

std::vector<std::size_t> Dag::topological_order() const {
  std::vector<std::size_t> indeg(size());
  for (std::size_t v = 0; v < size(); ++v) indeg[v] = parents_[v].size();
  // Min-index queue gives a deterministic order.
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<>> ready;
  for (std::size_t v = 0; v < size(); ++v) {
    if (indeg[v] == 0) ready.push(v);
  }
  std::vector<std::size_t> order;
  order.reserve(size());
  while (!ready.empty()) {
    const std::size_t v = ready.top();
    ready.pop();
    order.push_back(v);
    for (std::size_t c : children_[v]) {
      if (--indeg[c] == 0) ready.push(c);
    }
  }
  KERTBN_ENSURES(order.size() == size());
  return order;
}

namespace {

void collect_reachable(const std::vector<std::vector<std::size_t>>& adj,
                       std::size_t start, std::vector<bool>& seen) {
  std::vector<std::size_t> stack{start};
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    for (std::size_t w : adj[v]) {
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
}

}  // namespace

std::vector<std::size_t> Dag::ancestors(std::size_t v) const {
  KERTBN_EXPECTS(v < size());
  std::vector<bool> seen(size(), false);
  collect_reachable(parents_, v, seen);
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < size(); ++w) {
    if (seen[w] && w != v) out.push_back(w);
  }
  return out;
}

std::vector<std::size_t> Dag::descendants(std::size_t v) const {
  KERTBN_EXPECTS(v < size());
  std::vector<bool> seen(size(), false);
  collect_reachable(children_, v, seen);
  std::vector<std::size_t> out;
  for (std::size_t w = 0; w < size(); ++w) {
    if (seen[w] && w != v) out.push_back(w);
  }
  return out;
}

bool Dag::reachable(std::size_t from, std::size_t to) const {
  KERTBN_EXPECTS(from < size() && to < size());
  if (from == to) return true;
  std::vector<bool> seen(size(), false);
  collect_reachable(children_, from, seen);
  return seen[to];
}

bool Dag::same_structure(const Dag& other) const {
  return size() == other.size() && edge_difference(other) == 0;
}

std::size_t Dag::edge_difference(const Dag& other) const {
  KERTBN_EXPECTS(size() == other.size());
  std::size_t diff = 0;
  for (std::size_t v = 0; v < size(); ++v) {
    for (std::size_t p : parents_[v]) {
      if (!other.has_edge(p, v)) ++diff;
    }
    for (std::size_t p : other.parents_[v]) {
      if (!has_edge(p, v)) ++diff;
    }
  }
  return diff;
}

std::string Dag::to_dot(const std::string& graph_name) const {
  std::ostringstream out;
  out << "digraph " << graph_name << " {\n";
  for (std::size_t v = 0; v < size(); ++v) {
    out << "  n" << v << " [label=\"" << labels_[v] << "\"];\n";
  }
  for (std::size_t v = 0; v < size(); ++v) {
    for (std::size_t c : children_[v]) {
      out << "  n" << v << " -> n" << c << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace kertbn::graph
