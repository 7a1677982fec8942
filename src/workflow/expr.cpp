#include "workflow/expr.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/contract.hpp"
#include "common/indexed_name.hpp"

namespace kertbn::wf {

Expr::Ptr Expr::service(std::size_t index) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kService));
  e->service_ = index;
  return e;
}

Expr::Ptr Expr::constant(double value) {
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kConstant));
  e->value_ = value;
  return e;
}

Expr::Ptr Expr::sum(std::vector<Ptr> children) {
  KERTBN_EXPECTS(!children.empty());
  if (children.size() == 1) return children.front();
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kSum));
  e->children_ = std::move(children);
  return e;
}

Expr::Ptr Expr::max(std::vector<Ptr> children) {
  KERTBN_EXPECTS(!children.empty());
  if (children.size() == 1) return children.front();
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kMax));
  e->children_ = std::move(children);
  return e;
}

Expr::Ptr Expr::blend(std::vector<Ptr> children, std::vector<double> probs) {
  KERTBN_EXPECTS(!children.empty());
  KERTBN_EXPECTS(children.size() == probs.size());
  double total = 0.0;
  for (double p : probs) {
    KERTBN_EXPECTS(p >= 0.0);
    total += p;
  }
  KERTBN_EXPECTS(std::abs(total - 1.0) < 1e-9);
  if (children.size() == 1) return children.front();
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kBlend));
  e->children_ = std::move(children);
  e->probs_ = std::move(probs);
  return e;
}

Expr::Ptr Expr::scale(double factor, Ptr child) {
  KERTBN_EXPECTS(child != nullptr);
  KERTBN_EXPECTS(factor > 0.0);
  auto e = std::shared_ptr<Expr>(new Expr(ExprKind::kScale));
  e->value_ = factor;
  e->children_.push_back(std::move(child));
  return e;
}

std::size_t Expr::service_index() const {
  KERTBN_EXPECTS(kind_ == ExprKind::kService);
  return service_;
}

double Expr::constant_value() const {
  KERTBN_EXPECTS(kind_ == ExprKind::kConstant);
  return value_;
}

double Expr::scale_factor() const {
  KERTBN_EXPECTS(kind_ == ExprKind::kScale);
  return value_;
}

double Expr::evaluate(std::span<const double> times) const {
  switch (kind_) {
    case ExprKind::kService:
      KERTBN_EXPECTS(service_ < times.size());
      return times[service_];
    case ExprKind::kConstant:
      return value_;
    case ExprKind::kSum: {
      double s = 0.0;
      for (const auto& c : children_) s += c->evaluate(times);
      return s;
    }
    case ExprKind::kMax: {
      double m = children_.front()->evaluate(times);
      for (std::size_t i = 1; i < children_.size(); ++i) {
        m = std::max(m, children_[i]->evaluate(times));
      }
      return m;
    }
    case ExprKind::kBlend: {
      double s = 0.0;
      for (std::size_t i = 0; i < children_.size(); ++i) {
        s += probs_[i] * children_[i]->evaluate(times);
      }
      return s;
    }
    case ExprKind::kScale:
      return value_ * children_.front()->evaluate(times);
  }
  KERTBN_ASSERT(false && "unreachable");
  return 0.0;
}

LaneEvaluator::LaneEvaluator(const Expr& expr, std::size_t services,
                             std::size_t lanes)
    : services_(services), lanes_(lanes), values_(services * lanes, 0.0) {
  KERTBN_EXPECTS(lanes >= 1);
  result_ = compile(expr);
}

std::size_t LaneEvaluator::add_register(double value) {
  values_.insert(values_.end(), lanes_, value);
  return values_.size() / lanes_ - 1;
}

std::size_t LaneEvaluator::compile(const Expr& e) {
  switch (e.kind()) {
    case ExprKind::kService:
      KERTBN_EXPECTS(e.service_index() < services_);
      return e.service_index();
    case ExprKind::kConstant:
      return add_register(e.constant_value());
    case ExprKind::kSum:
    case ExprKind::kMax:
    case ExprKind::kBlend:
    case ExprKind::kScale:
      break;
  }
  // Post-order: every operand's register is final before this op reads it.
  std::vector<std::size_t> operands;
  for (const auto& c : e.children()) operands.push_back(compile(*c));
  Op op{e.kind(), add_register(0.0), args_.size(), operands.size(), 0.0};
  if (e.kind() == ExprKind::kScale) op.factor = e.scale_factor();
  for (std::size_t i = 0; i < operands.size(); ++i) {
    args_.push_back(operands[i]);
    weights_.push_back(e.kind() == ExprKind::kBlend ? e.blend_probs()[i]
                                                    : 0.0);
  }
  ops_.push_back(op);
  return op.out;
}

std::span<double> LaneEvaluator::service_lanes(std::size_t s) {
  KERTBN_EXPECTS(s < services_);
  return {lanes_of(s), lanes_};
}

std::span<const double> LaneEvaluator::run() {
  const std::size_t n = lanes_;
  for (const Op& op : ops_) {
    double* out = lanes_of(op.out);
    const std::size_t* args = args_.data() + op.first_arg;
    switch (op.kind) {
      case ExprKind::kSum:
        std::fill_n(out, n, 0.0);
        for (std::size_t i = 0; i < op.arity; ++i) {
          const double* c = lanes_of(args[i]);
          for (std::size_t l = 0; l < n; ++l) out[l] += c[l];
        }
        break;
      case ExprKind::kMax:
        std::copy_n(lanes_of(args[0]), n, out);
        for (std::size_t i = 1; i < op.arity; ++i) {
          const double* c = lanes_of(args[i]);
          for (std::size_t l = 0; l < n; ++l) out[l] = std::max(out[l], c[l]);
        }
        break;
      case ExprKind::kBlend:
        std::fill_n(out, n, 0.0);
        for (std::size_t i = 0; i < op.arity; ++i) {
          const double p = weights_[op.first_arg + i];
          const double* c = lanes_of(args[i]);
          for (std::size_t l = 0; l < n; ++l) out[l] += p * c[l];
        }
        break;
      case ExprKind::kScale: {
        const double* c = lanes_of(args[0]);
        for (std::size_t l = 0; l < n; ++l) out[l] = op.factor * c[l];
        break;
      }
      case ExprKind::kService:
      case ExprKind::kConstant:
        KERTBN_ASSERT(false && "leaves compile to registers, not ops");
    }
  }
  return {lanes_of(result_), n};
}

namespace {

void collect(const Expr& e, std::vector<std::size_t>& out) {
  if (e.kind() == ExprKind::kService) {
    out.push_back(e.service_index());
    return;
  }
  for (const auto& c : e.children()) collect(*c, out);
}

}  // namespace

std::vector<std::size_t> Expr::referenced_services() const {
  std::vector<std::size_t> out;
  collect(*this, out);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool Expr::is_linear() const {
  switch (kind_) {
    case ExprKind::kService:
    case ExprKind::kConstant:
      return true;
    case ExprKind::kMax:
      return false;
    case ExprKind::kSum:
    case ExprKind::kBlend:
    case ExprKind::kScale:
      return std::all_of(children_.begin(), children_.end(),
                         [](const Ptr& c) { return c->is_linear(); });
  }
  return false;
}

std::string Expr::to_string(std::span<const std::string> names) const {
  auto name_of = [&](std::size_t i) {
    if (i < names.size() && !names[i].empty()) return names[i];
    return indexed_name("X", i);
  };
  std::ostringstream out;
  switch (kind_) {
    case ExprKind::kService:
      out << name_of(service_);
      break;
    case ExprKind::kConstant:
      out << value_;
      break;
    case ExprKind::kSum:
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out << " + ";
        const bool paren = children_[i]->kind() == ExprKind::kBlend;
        if (paren) out << '(';
        out << children_[i]->to_string(names);
        if (paren) out << ')';
      }
      break;
    case ExprKind::kMax:
      out << "max(";
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out << ", ";
        out << children_[i]->to_string(names);
      }
      out << ')';
      break;
    case ExprKind::kBlend:
      for (std::size_t i = 0; i < children_.size(); ++i) {
        if (i > 0) out << " + ";
        out << probs_[i] << "*(" << children_[i]->to_string(names) << ')';
      }
      break;
    case ExprKind::kScale:
      out << value_ << "*(" << children_.front()->to_string(names) << ')';
      break;
  }
  return out.str();
}

}  // namespace kertbn::wf
