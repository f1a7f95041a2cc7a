#include "mem/trace.hpp"

#include "util/error.hpp"

namespace grads::mem {

std::uint64_t arrayBlock(std::uint32_t arrayId, std::uint64_t elementIndex,
                         std::uint64_t elementsPerBlock) {
  GRADS_REQUIRE(elementsPerBlock > 0, "arrayBlock: elementsPerBlock == 0");
  constexpr std::uint64_t kArrayStride = 1ULL << 30;  // 1 GiB apart
  return arrayId * kArrayStride + elementIndex / elementsPerBlock;
}

void traceMatmul(std::size_t n, std::size_t epb, TraceSink sink) {
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < n; ++k) {
        sink(MemRef{arrayBlock(0, i * n + k, epb), sites::kMatmulA, false});
        sink(MemRef{arrayBlock(1, k * n + j, epb), sites::kMatmulB, false});
      }
      sink(MemRef{arrayBlock(2, i * n + j, epb), sites::kMatmulC, true});
    }
  }
}

void traceQr(std::size_t n, std::size_t epb, TraceSink sink) {
  // Right-looking Householder: for each step k, read column k (panel), then
  // update the trailing matrix A[k:, k+1:].
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k; i < n; ++i) {
      sink(MemRef{arrayBlock(0, i * n + k, epb), sites::kQrPanel, true});
    }
    for (std::size_t j = k + 1; j < n; ++j) {
      for (std::size_t i = k; i < n; ++i) {
        sink(MemRef{arrayBlock(0, i * n + j, epb), sites::kQrTrailing, true});
      }
    }
  }
}

void traceStencil(std::size_t n, std::size_t iters, std::size_t epb,
                  TraceSink sink) {
  GRADS_REQUIRE(n >= 3, "traceStencil: need n >= 3");
  for (std::size_t it = 0; it < iters; ++it) {
    const std::uint32_t src = it % 2 == 0 ? 0 : 1;
    const std::uint32_t dst = 1 - src;
    for (std::size_t i = 1; i + 1 < n; ++i) {
      sink(MemRef{arrayBlock(src, i - 1, epb), sites::kStencilRead, false});
      sink(MemRef{arrayBlock(src, i, epb), sites::kStencilRead, false});
      sink(MemRef{arrayBlock(src, i + 1, epb), sites::kStencilRead, false});
      sink(MemRef{arrayBlock(dst, i, epb), sites::kStencilWrite, true});
    }
  }
}

void traceNBody(std::size_t n, std::size_t epb, TraceSink sink) {
  // pos: array 0 (3 doubles/particle); acc: array 1.
  for (std::size_t i = 0; i < n; ++i) {
    sink(MemRef{arrayBlock(0, 3 * i, epb), sites::kNBodyPosI, false});
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      sink(MemRef{arrayBlock(0, 3 * j, epb), sites::kNBodyPosJ, false});
    }
    sink(MemRef{arrayBlock(1, 3 * i, epb), sites::kNBodyAcc, true});
  }
}

double matmulFlopCount(std::size_t n) {
  const double dn = static_cast<double>(n);
  return 2.0 * dn * dn * dn;
}

double qrFlopCount(std::size_t n) {
  // Householder QR of an n×n matrix: the closed form 2n²(m − n/3) at m = n.
  const double dn = static_cast<double>(n);
  return 2.0 * dn * dn * (dn - dn / 3.0);
}

double stencilFlopCount(std::size_t n, std::size_t iters) {
  // 3 adds + 1 multiply per interior point per sweep.
  return 4.0 * static_cast<double>(n - 2) * static_cast<double>(iters);
}

double nbodyFlopCount(std::size_t n) {
  // ~20 flops per pairwise interaction (distance, inverse-cube, accumulate).
  const double dn = static_cast<double>(n);
  return 20.0 * dn * (dn - 1.0);
}

}  // namespace grads::mem
