/**
 * @file
 * Internal per-ISA kernel tables backing common/simd.h. Each table
 * lives in its own translation unit so the AVX2 one can be built
 * with -mavx2; nothing outside common/ includes this
 * header — use simd::kernels() / simd::kernelsFor() instead.
 */

#ifndef DNASTORE_COMMON_SIMD_KERNELS_H
#define DNASTORE_COMMON_SIMD_KERNELS_H

#include "common/simd.h"

namespace dnastore::simd::detail {

/** Always present; defines the semantics the AVX2 table matches. */
const Kernels &scalarKernels();

#if defined(__x86_64__) || defined(__i386__)
const Kernels &avx2Kernels();
#endif

} // namespace dnastore::simd::detail

#endif // DNASTORE_COMMON_SIMD_KERNELS_H
