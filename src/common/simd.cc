#include "common/simd.h"

#include <cstdlib>
#include <string_view>

#include "common/error.h"
#include "common/simd_kernels.h"

namespace dnastore::simd {

namespace {

struct Active
{
    Isa isa;
    const Kernels *kernels;
};

Isa
detectBest()
{
    return cpuSupports(Isa::Avx2) ? Isa::Avx2 : Isa::Scalar;
}

Isa
parseIsaName(std::string_view name)
{
    if (name == "scalar")
        return Isa::Scalar;
    if (name == "avx2")
        return Isa::Avx2;
    fatalIf(true, "DNASTORE_FORCE_ISA: unknown ISA '", name,
            "' (expected scalar or avx2)");
    return Isa::Scalar; // unreachable
}

Active
resolveActive()
{
    Isa isa = bestSupportedIsa();
    if (const char *forced = std::getenv("DNASTORE_FORCE_ISA")) {
        Isa wanted = parseIsaName(forced);
        fatalIf(!cpuSupports(wanted), "DNASTORE_FORCE_ISA=", forced,
                " is not runnable on this CPU (best: ",
                isaName(isa), ")");
        isa = wanted;
    }
    return {isa, kernelsFor(isa)};
}

/**
 * The resolved (ISA, kernel table) pair. Initialized once, lazily
 * and thread-safely, through the function-local static in
 * activeState(); ScopedForceIsa (test-only, single-threaded by
 * contract) swaps it temporarily.
 */
Active &
activeState()
{
    static Active active = resolveActive();
    return active;
}

} // namespace

const char *
isaName(Isa isa)
{
    switch (isa) {
    case Isa::Scalar:
        return "scalar";
    case Isa::Avx2:
        return "avx2";
    }
    return "unknown";
}

Isa
bestSupportedIsa()
{
    static const Isa best = detectBest();
    return best;
}

bool
cpuSupports(Isa isa)
{
    if (isa == Isa::Scalar)
        return true;
#if defined(__x86_64__) || defined(__i386__)
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

Isa
activeIsa()
{
    return activeState().isa;
}

const Kernels &
kernels()
{
    return *activeState().kernels;
}

const Kernels *
kernelsFor(Isa isa)
{
    if (!cpuSupports(isa))
        return nullptr;
#if defined(__x86_64__) || defined(__i386__)
    if (isa == Isa::Avx2)
        return &detail::avx2Kernels();
#endif
    return &detail::scalarKernels();
}

ScopedForceIsa::ScopedForceIsa(Isa isa)
    : saved_(activeState().isa)
{
    const Kernels *table = kernelsFor(isa);
    fatalIf(table == nullptr, "ScopedForceIsa: ", isaName(isa),
            " is not available on this CPU");
    activeState() = {isa, table};
}

ScopedForceIsa::~ScopedForceIsa()
{
    activeState() = {saved_, kernelsFor(saved_)};
}

} // namespace dnastore::simd
