#include "ecc/gf256.h"

#include "common/error.h"

namespace dnastore::ecc {

GF256::Tables::Tables()
{
    constexpr unsigned kPoly = 0x11d;
    unsigned value = 1;
    for (unsigned i = 0; i < kMultGroupOrder; ++i) {
        exp[i] = static_cast<uint8_t>(value);
        exp[i + kMultGroupOrder] = static_cast<uint8_t>(value);
        log[value] = static_cast<uint8_t>(i);
        value <<= 1;
        if (value & 0x100)
            value ^= kPoly;
    }
    exp[2 * kMultGroupOrder] = exp[kMultGroupOrder];
    exp[2 * kMultGroupOrder + 1] = exp[kMultGroupOrder + 1];
    // Zero has no discrete log; every caller branches or panics
    // before reading log[0] (see the class contract). The sentinel
    // is an out-of-range exponent so an accidental read cannot
    // masquerade as log[1] == 0.
    log[0] = kZeroLogSentinel;
}

const GF256::Tables &
GF256::tables()
{
    static const Tables instance;
    return instance;
}

uint8_t
GF256::mul(uint8_t a, uint8_t b)
{
    if (a == 0 || b == 0)
        return 0;
    const Tables &t = tables();
    return t.exp[t.log[a] + t.log[b]];
}

uint8_t
GF256::div(uint8_t a, uint8_t b)
{
    panicIf(b == 0, "GF256 division by zero");
    if (a == 0)
        return 0;
    const Tables &t = tables();
    return t.exp[t.log[a] + kMultGroupOrder - t.log[b]];
}

uint8_t
GF256::inv(uint8_t a)
{
    panicIf(a == 0, "GF256 inverse of zero");
    const Tables &t = tables();
    return t.exp[(kMultGroupOrder - t.log[a]) % kMultGroupOrder];
}

uint8_t
GF256::pow(uint8_t a, int n)
{
    if (a == 0) {
        panicIf(n <= 0, "GF256 pow: 0 to non-positive power");
        return 0;
    }
    const Tables &t = tables();
    long exponent = (static_cast<long>(t.log[a]) * n) %
                    static_cast<long>(kMultGroupOrder);
    if (exponent < 0)
        exponent += kMultGroupOrder;
    return t.exp[exponent];
}

uint8_t
GF256::alphaPow(int n)
{
    int exponent = n % static_cast<int>(kMultGroupOrder);
    if (exponent < 0)
        exponent += kMultGroupOrder;
    return tables().exp[exponent];
}

unsigned
GF256::log(uint8_t a)
{
    panicIf(a == 0, "GF256 log of zero");
    return tables().log[a];
}

} // namespace dnastore::ecc
