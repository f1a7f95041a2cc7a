#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace grads::bench {

// Benches used to drop their CSVs into whatever directory they were run
// from, littering the source tree when invoked as ./build/bench/foo. Route
// everything under the build tree instead: GRADS_BENCH_OUTPUT_DIR is baked
// in by CMake (the bench's binary dir) and can be overridden at runtime via
// the environment variable of the same name.
inline std::string outputPath(const std::string& filename) {
  if (const char* env = std::getenv("GRADS_BENCH_OUTPUT_DIR")) {
    return std::string(env) + "/" + filename;
  }
#ifdef GRADS_BENCH_OUTPUT_DIR
  return std::string(GRADS_BENCH_OUTPUT_DIR) + "/" + filename;
#else
  return filename;
#endif
}

/// Opens `path` (an outputPath) for writing. Benches open their reports
/// before they run, so a missing or unwritable output directory fails in
/// milliseconds: the bench names the path on stderr and exits 1.
inline std::ofstream openOutput(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return out;
}

}  // namespace grads::bench
