#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace grads::stats {

void Accumulator::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::mean() const {
  GRADS_REQUIRE(n_ > 0, "mean of empty accumulator");
  return mean_;
}

double Accumulator::variance() const {
  GRADS_REQUIRE(n_ > 1, "variance needs at least two samples");
  return m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

double Accumulator::min() const {
  GRADS_REQUIRE(n_ > 0, "min of empty accumulator");
  return min_;
}

double Accumulator::max() const {
  GRADS_REQUIRE(n_ > 0, "max of empty accumulator");
  return max_;
}

double mean(std::span<const double> xs) {
  GRADS_REQUIRE(!xs.empty(), "mean of empty span");
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double quantile(std::span<const double> xs, double q) {
  GRADS_REQUIRE(!xs.empty(), "quantile of empty span");
  GRADS_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q out of [0,1]");
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  if (v.size() == 1) return v[0];
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double PolyFit::eval(double x) const {
  double y = 0.0;
  for (std::size_t k = coeffs.size(); k-- > 0;) y = y * x + coeffs[k];
  return y;
}

namespace {
/// Solves the (small, dense, symmetric positive-definite) normal equations
/// with partial-pivoting Gaussian elimination.
std::vector<double> solveDense(std::vector<std::vector<double>> a,
                               std::vector<double> b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    GRADS_REQUIRE(std::fabs(a[pivot][col]) > 1e-300,
                  "polyFit: singular normal equations (too few points?)");
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= a[i][c] * x[c];
    x[i] = s / a[i][i];
  }
  return x;
}
}  // namespace

PolyFit polyFit(std::span<const double> xs, std::span<const double> ys,
                int degree) {
  GRADS_REQUIRE(degree >= 0, "polyFit: negative degree");
  GRADS_REQUIRE(xs.size() == ys.size(), "polyFit: size mismatch");
  const auto m = static_cast<std::size_t>(degree) + 1;
  GRADS_REQUIRE(xs.size() >= m, "polyFit: need at least degree+1 points");

  // Build normal equations (X^T X) c = X^T y.
  std::vector<std::vector<double>> ata(m, std::vector<double>(m, 0.0));
  std::vector<double> aty(m, 0.0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<double> row(m);
    double p = 1.0;
    for (std::size_t k = 0; k < m; ++k) {
      row[k] = p;
      p *= xs[i];
    }
    for (std::size_t r = 0; r < m; ++r) {
      aty[r] += row[r] * ys[i];
      for (std::size_t c = 0; c < m; ++c) ata[r][c] += row[r] * row[c];
    }
  }

  PolyFit fit;
  fit.coeffs = solveDense(std::move(ata), std::move(aty));

  const double ybar = mean(ys);
  double tss = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double r = ys[i] - fit.eval(xs[i]);
    fit.rss += r * r;
    const double d = ys[i] - ybar;
    tss += d * d;
  }
  fit.r2 = tss > 0.0 ? 1.0 - fit.rss / tss : 1.0;
  return fit;
}

double PowerFit::eval(double x) const { return a * std::pow(x, b); }

PowerFit powerFit(std::span<const double> xs, std::span<const double> ys) {
  GRADS_REQUIRE(xs.size() == ys.size() && xs.size() >= 2,
                "powerFit: need >= 2 matched points");
  std::vector<double> lx, ly;
  lx.reserve(xs.size());
  ly.reserve(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    GRADS_REQUIRE(xs[i] > 0.0 && ys[i] > 0.0,
                  "powerFit: values must be positive");
    lx.push_back(std::log(xs[i]));
    ly.push_back(std::log(ys[i]));
  }
  const PolyFit line = polyFit(lx, ly, 1);
  return PowerFit{std::exp(line.coeffs[0]), line.coeffs[1]};
}

}  // namespace grads::stats
