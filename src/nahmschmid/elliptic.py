"""Jacobi elliptic functions sn, cn, dn and the complete integral K.

Both are computed with the arithmetic-geometric mean: K(kappa) from the
classical AGM identity K = pi / (2 agm(1, kappa')), and sn/cn/dn from the
descending Landen recursion (DLMF 22.20(ii)).  The principal-branch arcsin
in the descent is only valid for arguments in [-K, K], so the argument is
first reduced into [0, K] using the quarter-period symmetries

    sn(u + 2K) = -sn(u),  cn(u + 2K) = -cn(u),  dn(u + 2K) = dn(u),
    sn(2K - u) =  sn(u),  cn(2K - u) = -cn(u),  dn(2K - u) = dn(u).

The boundary modulus kappa = 1 degenerates the AGM and is dispatched to the
hyperbolic closed forms sn = tanh, cn = dn = sech.

The descent needs no clamp for kappa < 1: c_n < a_n rounds to a ratio
r < 1, so |r sin(phi)| <= r < 1 stays in the domain of arcsin, and the
radicand 1 - (kappa sn)^2 of dn is at least 1 - kappa^2, which rounds to
2^-52 > 0 at the largest kappa = 1 - 2^-53.  NaN in gives NaN out; an
infinite argument (an overflowed a t + b) has no reduction and raises
FloatingPointError for kappa < 1, and takes the limits at kappa = 1.
"""

import functools
import math

_AGM_TOL = 1e-15
_AGM_MAXITER = 64


def _complementary(kappa):
    # kappa' = sqrt(1 - kappa^2) without rounding kappa^2: 1 - kappa is exact
    # near kappa = 1, where 1 - kappa*kappa cancels (2e-11 relative in K at
    # kappa = 1 - 1e-9)
    return math.sqrt((1.0 - kappa) * (1.0 + kappa))


def complete_K(kappa):
    """Complete elliptic integral of the first kind K(kappa).

    Uses K = pi / (2 agm(1, kappa')).  The modulus must satisfy
    0 <= kappa < 1; K diverges logarithmically as kappa -> 1.
    """
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"modulus must lie in [0, 1), got {kappa}")
    a, b = 1.0, _complementary(kappa)
    for _ in range(_AGM_MAXITER):
        if abs(a - b) <= _AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _agm_scheme(kappa):
    """Landen ladder a_n, c_n for the descending recursion."""
    a, b, c = 1.0, _complementary(kappa), kappa
    ladder = [(a, c)]
    for _ in range(_AGM_MAXITER):
        a, b, c = 0.5 * (a + b), math.sqrt(a * b), 0.5 * (a - b)
        ladder.append((a, c))
        if abs(c) <= _AGM_TOL:
            break
    return ladder


@functools.lru_cache(maxsize=64)
def _modulus_data(kappa):
    # K and the descent constants depend on kappa alone; a trajectory
    # samples one modulus thousands of times, so they are computed once per
    # kappa: the scale 2^N a_N of the start angle and the ratios c_n / a_n
    # for n = N..1, in the order the descent uses them
    ladder = _agm_scheme(kappa)
    N = len(ladder) - 1
    ratios = tuple(c / a for a, c in reversed(ladder[1:]))
    return complete_K(kappa), (2.0**N) * ladder[N][0], ratios


def jacobi(u, kappa):
    """Jacobi elliptic functions: returns (sn, cn, dn) at argument u.

    Satisfies sn^2 + cn^2 = 1 and dn^2 + kappa^2 sn^2 = 1 to rounding; sn is
    odd, cn and dn even, all periodic with period 4K(kappa) for kappa < 1.
    """
    if not 0.0 <= kappa <= 1.0:
        raise ValueError(f"modulus must lie in [0, 1], got {kappa}")
    if kappa == 1.0:
        # sech u = 2 e^{-|u|} / (1 + e^{-2|u|}): math.cosh overflows past |u| ~ 710
        e = math.exp(-abs(u))
        sech = 2.0 * e / (1.0 + e * e)
        return math.tanh(u), sech, sech
    K, scale, ratios = _modulus_data(kappa)
    # reduce to [0, 4K), then to [0, 2K), then to [0, K]
    try:
        v = math.fmod(u, 4.0 * K)
    except ValueError:  # u is infinite: there is no remainder to take
        raise FloatingPointError(f"Jacobi elliptic argument u = {u!r} is not finite") from None
    if v < 0.0:
        v += 4.0 * K
    sign_sn, sign_cn = 1.0, 1.0
    if v >= 2.0 * K:
        v -= 2.0 * K
        sign_sn, sign_cn = -sign_sn, -sign_cn
    if v > K:
        v = 2.0 * K - v
        sign_cn = -sign_cn
    # the descent on [0, K], principal arcsin branch throughout
    phi = scale * v
    for r in ratios:
        phi = 0.5 * (phi + math.asin(r * math.sin(phi)))
    sn = math.sin(phi)
    # dn from the Pythagorean identity; dn >= kappa' > 0 on the real line
    return sign_sn * sn, sign_cn * math.cos(phi), math.sqrt(1.0 - (kappa * sn) ** 2)
