#pragma once

#include "workflow/dag.hpp"

namespace grads::apps {

/// EMAN single-particle 3-D reconstruction refinement (paper §3.3, [10]):
/// "a linear graph in which some components can be parallelized". The
/// refinement loop's components, with classesbymra dominating:
///
///   proc3d → project3d‖ → classesbymra‖ → classalign2‖ → make3d → eotest
struct EmanConfig {
  std::size_t particles = 20000;   ///< particle images in the stack
  int parallelism = 16;            ///< instances per parallelizable stage
};

/// Per-component flop totals (before parallel splitting); exposed so tests
/// can check stage dominance.
double emanProc3dFlops(const EmanConfig& cfg);
double emanProject3dFlops(const EmanConfig& cfg);
double emanClassesbymraFlops(const EmanConfig& cfg);
double emanClassalign2Flops(const EmanConfig& cfg);
double emanMake3dFlops(const EmanConfig& cfg);
double emanEotestFlops(const EmanConfig& cfg);

/// Bytes of the particle stack (the dominant data object).
double emanStackBytes(const EmanConfig& cfg);

/// Builds the refinement workflow DAG. All components require the "eman"
/// software package (the binder/GIS screen placements).
workflow::Dag buildEmanRefinementDag(const EmanConfig& cfg);

}  // namespace grads::apps
