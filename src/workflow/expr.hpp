#pragma once
/// \file expr.hpp
/// Aggregate expressions: the deterministic link function f(X) of Equation 4
/// mapping per-service elapsed times to an end-to-end metric. Produced by
/// reducing a workflow with the Cardoso et al. rules (sequence → sum,
/// parallel → max, choice → probability-weighted blend, loop → geometric
/// expected unrolling) and consumed by the response-time node's
/// deterministic CPD.

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace kertbn::wf {

/// Expression node kinds.
enum class ExprKind { kService, kConstant, kSum, kMax, kBlend, kScale };

/// Immutable aggregate-expression tree. Service leaves reference services by
/// index; evaluate() maps a vector of per-service elapsed times to the
/// aggregate value.
class Expr {
 public:
  using Ptr = std::shared_ptr<const Expr>;

  /// Leaf: the elapsed time of service \p index.
  static Ptr service(std::size_t index);
  /// Constant (e.g. a fixed network delay term).
  static Ptr constant(double value);
  /// Σ children (sequence construct).
  static Ptr sum(std::vector<Ptr> children);
  /// max(children) (parallel construct).
  static Ptr max(std::vector<Ptr> children);
  /// Probability-weighted blend Σ pᵢ·childᵢ (choice construct, Cardoso's
  /// expected-value reduction). Probabilities must sum to 1.
  static Ptr blend(std::vector<Ptr> children, std::vector<double> probs);
  /// factor · child (loop construct: expected iterations 1/(1−p_repeat)).
  static Ptr scale(double factor, Ptr child);

  ExprKind kind() const { return kind_; }
  std::size_t service_index() const;
  double constant_value() const;
  double scale_factor() const;
  const std::vector<Ptr>& children() const { return children_; }
  const std::vector<double>& blend_probs() const { return probs_; }

  /// Evaluates f at the given per-service elapsed times (indexed by service
  /// id; the span must cover every referenced service).
  double evaluate(std::span<const double> service_times) const;

  /// Distinct service indices referenced, ascending.
  std::vector<std::size_t> referenced_services() const;

  /// True when the expression contains no max/blend (i.e. it is an affine
  /// function of the service times — exact Gaussian inference applies).
  bool is_linear() const;

  /// Printable form using \p names (falls back to "X{i}" when names are
  /// absent or too short).
  std::string to_string(std::span<const std::string> names = {}) const;

 private:
  explicit Expr(ExprKind kind) : kind_(kind) {}

  ExprKind kind_;
  std::size_t service_ = 0;
  double value_ = 0.0;  // constant or scale factor
  std::vector<Ptr> children_;
  std::vector<double> probs_;
};

/// f(X) flattened to a post-order program over a batch of points ("lanes"):
/// the batched form of Expr::evaluate. Each operation runs across every lane
/// before the next, repeating evaluate()'s per-lane operation order exactly
/// — sums and blends start from 0.0 and add their children left to right,
/// max folds std::max from the first child, scale multiplies factor · child
/// — so lane l's result is bit-identical to evaluate() at lane l's point.
/// Construction compiles the tree and sizes every buffer; run() allocates
/// nothing.
class LaneEvaluator {
 public:
  /// Compiles \p expr over services 0..services-1 for batches of \p lanes
  /// points. Every service leaf must index below \p services.
  LaneEvaluator(const Expr& expr, std::size_t services, std::size_t lanes);

  /// Service \p s's elapsed time in every lane; write it before run().
  std::span<double> service_lanes(std::size_t s);

  /// Evaluates f in every lane. The results stay valid until the next run().
  std::span<const double> run();

 private:
  struct Op {
    ExprKind kind;
    std::size_t out;        // register receiving the result
    std::size_t first_arg;  // operands: args_[first_arg, first_arg + arity)
    std::size_t arity;
    double factor;  // scale factor (kScale only)
  };

  std::size_t compile(const Expr& e);
  /// Appends a register with every lane set to \p value; returns its index.
  std::size_t add_register(double value);
  double* lanes_of(std::size_t reg) { return values_.data() + reg * lanes_; }

  std::size_t services_;
  std::size_t lanes_;
  std::size_t result_ = 0;
  std::vector<Op> ops_;            // post-order
  std::vector<std::size_t> args_;  // operand registers
  std::vector<double> weights_;    // blend probabilities, aligned with args_
  /// Registers × lanes, register-major: the services first, then constants
  /// and operation results.
  std::vector<double> values_;
};

}  // namespace kertbn::wf
