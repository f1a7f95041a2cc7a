#include "apps/eman.hpp"

namespace grads::apps {

namespace {
constexpr double kProjections = 72;  ///< reference projections per round
constexpr double kImageSize = 128;   ///< pixels per image edge
constexpr double kImagePixels = kImageSize * kImageSize;
}  // namespace

double emanProc3dFlops(const EmanConfig& /*cfg*/) {
  // Volume preprocessing: a few passes over the n³ voxel volume.
  const double n = kImageSize;
  return 20.0 * n * n * n;
}

double emanProject3dFlops(const EmanConfig& /*cfg*/) {
  // One projection ≈ a rotation + sum through the volume per output pixel.
  const double n = kImageSize;
  return kProjections * kImagePixels * n * 8.0;
}

double emanClassesbymraFlops(const EmanConfig& cfg) {
  // Multi-reference alignment: every particle is rotationally/translationally
  // matched against every projection — the dominant stage by far.
  return static_cast<double>(cfg.particles) * kProjections * kImagePixels *
         40.0;
}

double emanClassalign2Flops(const EmanConfig& cfg) {
  return static_cast<double>(cfg.particles) * kImagePixels * 60.0;
}

double emanMake3dFlops(const EmanConfig& cfg) {
  const double n = kImageSize;
  return static_cast<double>(cfg.particles) * kImagePixels * 10.0 +
         50.0 * n * n * n;
}

double emanEotestFlops(const EmanConfig& cfg) {
  return emanMake3dFlops(cfg) * 0.4;
}

double emanStackBytes(const EmanConfig& cfg) {
  return static_cast<double>(cfg.particles) * kImagePixels * 4.0;  // float px
}

workflow::Dag buildEmanRefinementDag(const EmanConfig& cfg) {
  workflow::Dag dag;
  auto seq = [&](const std::string& name, double flops, double outBytes) {
    workflow::Component c;
    c.name = name;
    c.flops = flops;
    c.outputBytes = outBytes;
    c.requiredSoftware = {"eman"};
    return c;
  };

  const double volBytes = kImageSize * kImageSize * kImageSize * 4.0;
  const double stack = emanStackBytes(cfg);

  const auto proc3d =
      dag.add(seq("proc3d", emanProc3dFlops(cfg), volBytes));

  workflow::Component project = seq("project3d", emanProject3dFlops(cfg),
                                    kProjections * kImagePixels * 4.0);
  const auto projectIds =
      dag.addParallelStage(project, cfg.parallelism, {proc3d}, volBytes);

  workflow::Component classes =
      seq("classesbymra", emanClassesbymraFlops(cfg), stack * 0.1);
  const auto classIds = dag.addParallelStage(
      classes, cfg.parallelism, projectIds,
      // each classifier reads the projections + its slice of the stack
      kProjections * kImagePixels * 4.0 + stack / cfg.parallelism);

  workflow::Component align =
      seq("classalign2", emanClassalign2Flops(cfg), stack * 0.05);
  const auto alignIds =
      dag.addParallelStage(align, cfg.parallelism, classIds, stack * 0.1);

  const auto make3d = dag.add(seq("make3d", emanMake3dFlops(cfg), volBytes));
  for (const auto id : alignIds) {
    dag.addEdge(id, make3d, stack * 0.05 / cfg.parallelism);
  }
  const auto eotest = dag.add(seq("eotest", emanEotestFlops(cfg), volBytes));
  dag.addEdge(make3d, eotest, volBytes);

  return dag;
}

}  // namespace grads::apps
