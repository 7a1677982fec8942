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
