// Copyright 2026 The ConsensusDB Authors

#include "support/sparse_poly.h"

#include <cassert>
#include <cmath>
#include <numeric>
#include <sstream>

namespace cpdb {

namespace {
uint32_t TotalDegree(const SparsePoly::Exponents& e) {
  uint32_t d = 0;
  for (uint32_t x : e) d += x;
  return d;
}
}  // namespace

SparsePoly::SparsePoly(int num_vars, int max_total_degree)
    : num_vars_(num_vars), max_total_degree_(max_total_degree) {
  assert(num_vars >= 0);
}

SparsePoly SparsePoly::Constant(int num_vars, double c, int max_total_degree) {
  SparsePoly p(num_vars, max_total_degree);
  if (c != 0.0) p.terms_[Exponents(static_cast<size_t>(num_vars), 0)] = c;
  return p;
}

SparsePoly SparsePoly::Monomial(int num_vars, const Exponents& exponents, double c,
                                int max_total_degree) {
  SparsePoly p(num_vars, max_total_degree);
  assert(exponents.size() == static_cast<size_t>(num_vars));
  p.AddTerm(exponents, c);
  return p;
}

double SparsePoly::Coeff(const Exponents& exponents) const {
  auto it = terms_.find(exponents);
  return it == terms_.end() ? 0.0 : it->second;
}

void SparsePoly::AddTerm(const Exponents& exponents, double c) {
  if (c == 0.0) return;
  if (max_total_degree_ >= 0 &&
      TotalDegree(exponents) > static_cast<uint32_t>(max_total_degree_)) {
    return;
  }
  terms_[exponents] += c;
}

double SparsePoly::SumCoeffs() const {
  double s = 0.0;
  for (const auto& [e, c] : terms_) s += c;
  return s;
}

double SparsePoly::Eval(const std::vector<double>& point) const {
  assert(point.size() == static_cast<size_t>(num_vars_));
  double acc = 0.0;
  for (const auto& [e, c] : terms_) {
    double term = c;
    for (int v = 0; v < num_vars_; ++v) {
      for (uint32_t p = 0; p < e[static_cast<size_t>(v)]; ++p) {
        term *= point[static_cast<size_t>(v)];
      }
    }
    acc += term;
  }
  return acc;
}

SparsePoly& SparsePoly::operator+=(const SparsePoly& other) {
  assert(num_vars_ == other.num_vars_);
  for (const auto& [e, c] : other.terms_) AddTerm(e, c);
  return *this;
}

SparsePoly& SparsePoly::operator*=(double scalar) {
  if (scalar == 0.0) {
    terms_.clear();
    return *this;
  }
  for (auto& [e, c] : terms_) c *= scalar;
  return *this;
}

SparsePoly operator*(const SparsePoly& a, const SparsePoly& b) {
  assert(a.num_vars_ == b.num_vars_);
  // Keep the tighter truncation of the two operands.
  int trunc = a.max_total_degree_;
  if (trunc < 0 || (b.max_total_degree_ >= 0 && b.max_total_degree_ < trunc)) {
    trunc = b.max_total_degree_;
  }
  SparsePoly out(a.num_vars_, trunc);
  SparsePoly::Exponents e(static_cast<size_t>(a.num_vars_));
  for (const auto& [ea, ca] : a.terms_) {
    for (const auto& [eb, cb] : b.terms_) {
      for (size_t v = 0; v < e.size(); ++v) e[v] = ea[v] + eb[v];
      out.AddTerm(e, ca * cb);
    }
  }
  return out;
}

void SparsePoly::AddScaled(const SparsePoly& other, double scale) {
  assert(num_vars_ == other.num_vars_);
  if (scale == 0.0) return;
  for (const auto& [e, c] : other.terms_) AddTerm(e, c * scale);
}

void SparsePoly::AddConstant(double c) {
  AddTerm(Exponents(static_cast<size_t>(num_vars_), 0), c);
}

void SparsePoly::Prune(double eps) {
  for (auto it = terms_.begin(); it != terms_.end();) {
    if (std::fabs(it->second) <= eps) {
      it = terms_.erase(it);
    } else {
      ++it;
    }
  }
}

std::string SparsePoly::ToString() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (const auto& [e, c] : terms_) {
    if (!first) os << " + ";
    os << c;
    for (int v = 0; v < num_vars_; ++v) {
      uint32_t p = e[static_cast<size_t>(v)];
      if (p == 0) continue;
      os << " x" << v;
      if (p > 1) os << "^" << p;
    }
    first = false;
  }
  return os.str();
}

}  // namespace cpdb
