"""One-variable modular objects: Jacobi theta constants, the exact
q-expansions of E4, E6 and 1728 J, and the elliptic J function normalised by
J(i) = 1.

J is evaluated as a rational function of the modular lambda function
(theta10 / theta00)^4, so two theta sums give it and nothing cancels toward
the cusp; a truncated lattice sum is kept in the test suite as a one-time
cross-check of the normalisation.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

from .numkernel import PrecisionPolicy, sum_series, to_mpc, working_precision
from .polynomials import FormalSeries


class NotInUpperHalfPlane(ValueError):
    pass


def as_uhp(z) -> mpmath.mpc:
    zc = to_mpc(z)
    if not (zc.imag > 0):
        raise NotInUpperHalfPlane(f"Im(z) must be positive, got {zc}")
    return zc


# ------------------------------------------------------------ theta constants


def jacobi_theta(kind: str, z, policy: PrecisionPolicy | None = None) -> mpmath.mpc:
    """theta_ab(z) = sum_n exp(i pi (n + a/2)^2 z + i pi (n + a/2) b)
    for kind 'ab' in {'00', '01', '10'}, truncated by the Gaussian tail."""
    if kind not in ("00", "01", "10"):
        raise ValueError(f"unsupported theta characteristic {kind}")
    a, b = int(kind[0]), int(kind[1])
    with working_precision(policy) as pol:
        zc = as_uhp(z)
        y = zc.imag
        ipiz = mpmath.mpc(0, 1) * mpmath.pi * zc

        def term(n: int) -> mpmath.mpc:
            if a == 0:
                if n == 0:
                    return mpmath.mpc(1)
                # n and -n pair; the b-phase is exp(i pi n b) = (-1)^(n b)
                sign = -1 if (n * b) % 2 else 1
                return 2 * sign * mpmath.exp(ipiz * n * n)
            # a = 1, b = 0: the n and -n-1 terms agree
            h = mpmath.mpf(2 * n + 1) / 2
            return 2 * mpmath.exp(ipiz * h * h)

        def tail(n: int) -> mpmath.mpf:
            m = mpmath.mpf(n) + (mpmath.mpf(1) / 2 if a else 1)
            lead = mpmath.exp(-mpmath.pi * y * m * m)
            ratio = mpmath.exp(-mpmath.pi * y * (2 * m + 1))
            return 4 * lead / (1 - ratio)

        return sum_series(term, tail, pol).value


# --------------------------------------------------------- exact q-expansions


def eisenstein_qexp(weight: int, order: int) -> FormalSeries:
    """Normalised E4 or E6 as an exact q-series up to q^order inclusive: the
    coefficient of q^m is 240 sigma_3(m) or -504 sigma_5(m), by one sieve."""
    if weight == 4:
        mult, k = 240, 3
    elif weight == 6:
        mult, k = -504, 5
    else:
        raise ValueError("only weights 4 and 6 are implemented")
    coeffs = [1] + [0] * order
    for d in range(1, order + 1):
        term = mult * d ** k
        for m in range(d, order + 1, d):
            coeffs[m] += term
    return FormalSeries("q", 0, coeffs)


def j_qexpansion(order: int) -> FormalSeries:
    """1728*J as an exact q-series from E4^3 / ((E4^3 - E6^2)/1728).

    Coefficients run from q^-1 through q^order: Delta starts at q, so its
    inverse starts at q^-1 and is known to two fewer powers than E4 and E6.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    e4 = eisenstein_qexp(4, order + 2)
    e6 = eisenstein_qexp(6, order + 2)
    e4_3 = e4 * e4 * e4
    delta = (e4_3 - e6 * e6) * Fraction(1, 1728)
    return e4_3 * delta.inverse()


# ------------------------------------------------------------------ numeric J


def eisenstein_and_J(z, policy: PrecisionPolicy | None = None) -> mpmath.mpc:
    """J(z) = 4 (1 - l + l^2)^3 / (27 l^2 (1 - l)^2), normalised by J(i) = 1,
    where l = (theta10 / theta00)^4 is the modular lambda function.

    Nothing cancels toward the cusp: l ~ 16 q^(1/2), so J ~ 1 / (1728 q) is
    formed from the leading theta terms at full relative precision.  The
    thetas get 4 more bits, since J has up to about 22 times their relative
    error where |J| >= 1 and Im z >= 0.8 (8 times toward the cusp, where
    J ~ 4 / (27 l^2)), and the integer bits of z, which rounding the exponents
    i pi n^2 z costs.
    The name is that of the benchmark's traced span (perfbench/spans.py)."""
    with working_precision(policy) as pol:
        fine = PrecisionPolicy(pol.mantissa_bits + 4 + max(0, mpmath.mag(as_uhp(z))))
        lam = (jacobi_theta("10", z, fine) / jacobi_theta("00", z, fine)) ** 4
        return 4 * (1 - lam + lam ** 2) ** 3 / (27 * lam ** 2 * (1 - lam) ** 2)
