#pragma once

#include <map>
#include <string>
#include <vector>

namespace grads::autopilot {

/// Triangular membership function over [a, c] peaking at b.
struct TriangularMf {
  double a = 0.0;
  double b = 0.5;
  double c = 1.0;
  double grade(double x) const;
};

/// A linguistic variable: named fuzzy terms over a crisp range.
struct FuzzyVariable {
  std::string name;
  double lo = 0.0;
  double hi = 1.0;
  std::map<std::string, TriangularMf> terms;
};

/// IF in0 is t0 AND in1 is t1 ... THEN out is tOut  (AND = min).
struct FuzzyRule {
  /// antecedents[i] names a term of input variable i; empty string = don't
  /// care.
  std::vector<std::string> antecedents;
  std::string consequent;
};

/// Minimal Mamdani fuzzy-inference system (min-AND, max-aggregation,
/// centroid defuzzification): the decision mechanism Autopilot used for
/// closed-loop control [13]. Small by design; the contract monitor feeds it
/// the contract ratio and its trend.
class FuzzyEngine {
 public:
  FuzzyEngine(std::vector<FuzzyVariable> inputs, FuzzyVariable output,
              std::vector<FuzzyRule> rules);

  /// Crisp output for crisp inputs (clamped to each variable's range).
  double infer(const std::vector<double>& inputs) const;

  /// Firing strength of rule r for the given inputs (for tests/diagnosis).
  double ruleStrength(std::size_t r, const std::vector<double>& inputs) const;

 private:
  std::vector<FuzzyVariable> inputs_;
  FuzzyVariable output_;
  std::vector<FuzzyRule> rules_;
};

/// The contract-violation decision system used by Autopilot-style
/// monitoring: inputs are the contract ratio (actual/predicted) and its
/// recent trend; output is an action score in [0,1] where >= 0.5 means
/// "request rescheduling".
FuzzyEngine makeContractFuzzyEngine();

}  // namespace grads::autopilot
