// Copyright 2026 The ConsensusDB Authors
//
// Sparse multivariate polynomials. The paper's generating-function theorem
// (Theorem 1) is stated for an arbitrary number of variables; the dense
// rows of the flat fold cover every query the library answers, and
// SparsePoly is the general-case reference implementation the polynomial
// tests check the dense kernels against.

#ifndef CPDB_TESTS_SUPPORT_SPARSE_POLY_H_
#define CPDB_TESTS_SUPPORT_SPARSE_POLY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cpdb {

/// \brief A polynomial in `num_vars` variables with sparse coefficient
/// storage and optional truncation by total degree.
///
/// Exponent vectors are dense (length num_vars). Coefficients are held in an
/// ordered map so iteration (and ToString) is deterministic.
class SparsePoly {
 public:
  /// \brief Monomial exponent vector: exponents[v] is the power of variable v.
  using Exponents = std::vector<uint32_t>;

  /// \brief Zero polynomial. `max_total_degree < 0` means no truncation.
  explicit SparsePoly(int num_vars, int max_total_degree = -1);

  static SparsePoly Constant(int num_vars, double c, int max_total_degree = -1);

  /// \brief The monomial c * prod_v x_v^{exponents[v]}.
  static SparsePoly Monomial(int num_vars, const Exponents& exponents, double c,
                             int max_total_degree = -1);

  int num_vars() const { return num_vars_; }
  int max_total_degree() const { return max_total_degree_; }

  double Coeff(const Exponents& exponents) const;
  void AddTerm(const Exponents& exponents, double c);

  /// \brief Number of stored (non-zero) terms.
  size_t NumTerms() const { return terms_.size(); }

  /// \brief Sum of all coefficients (evaluation at all-ones).
  double SumCoeffs() const;

  double Eval(const std::vector<double>& point) const;

  SparsePoly& operator+=(const SparsePoly& other);
  SparsePoly& operator*=(double scalar);

  friend SparsePoly operator+(SparsePoly a, const SparsePoly& b) { return a += b; }
  friend SparsePoly operator*(SparsePoly a, double s) { return a *= s; }
  friend SparsePoly operator*(double s, SparsePoly a) { return a *= s; }
  friend SparsePoly operator*(const SparsePoly& a, const SparsePoly& b);

  void AddScaled(const SparsePoly& other, double scale);
  void AddConstant(double c);

  /// \brief Drops terms with |coefficient| <= eps (numerical noise control
  /// after long products).
  void Prune(double eps = 0.0);

  const std::map<Exponents, double>& terms() const { return terms_; }

  std::string ToString() const;

 private:
  int num_vars_;
  int max_total_degree_;
  std::map<Exponents, double> terms_;
};

}  // namespace cpdb

#endif  // CPDB_TESTS_SUPPORT_SPARSE_POLY_H_
