#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace grads {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high-quality bits → double in [0,1).
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  GRADS_REQUIRE(lo <= hi, "uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniformInt(std::int64_t lo, std::int64_t hi) {
  GRADS_REQUIRE(lo <= hi, "uniformInt: lo > hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full range
  return lo + static_cast<std::int64_t>(next() % span);
}

double Rng::normal() {
  if (haveSpare_) {
    haveSpare_ = false;
    return spare_;
  }
  double u1 = 0.0;
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  spare_ = r * std::sin(theta);
  haveSpare_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  GRADS_REQUIRE(stddev >= 0.0, "normal: negative stddev");
  return mean + stddev * normal();
}

double Rng::exponential(double rate) {
  GRADS_REQUIRE(rate > 0.0, "exponential: rate must be positive");
  double u = 0.0;
  while (u <= 1e-300) u = uniform();
  return -std::log(u) / rate;
}

double Rng::pareto(double xm, double alpha) {
  GRADS_REQUIRE(xm > 0.0 && alpha > 0.0, "pareto: xm and alpha must be > 0");
  double u = 0.0;
  while (u <= 1e-300) u = uniform();
  return xm / std::pow(u, 1.0 / alpha);
}

RngState Rng::state() const {
  RngState st;
  for (int i = 0; i < 4; ++i) st.s[i] = s_[i];
  st.haveSpare = haveSpare_;
  st.spare = spare_;
  return st;
}

void Rng::setState(const RngState& st) {
  for (int i = 0; i < 4; ++i) s_[i] = st.s[i];
  haveSpare_ = st.haveSpare;
  spare_ = st.spare;
}

}  // namespace grads
