"""One-variable modular objects: Jacobi theta constants, Eisenstein series,
the discriminant form, and the elliptic J function normalised by J(i) = 1.

Numerical evaluation goes through divisor-sum q-expansions (the lattice sums
converge far too slowly for high precision); a truncated lattice sum is kept in
the test suite as a one-time cross-check of the normalisation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .numkernel import NonConvergent, PrecisionPolicy, sum_series, to_mpc, working_precision
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


@functools.cache
def _sigma_sieve(k: int, size: int) -> tuple[int, ...]:
    """(sigma_k(1), ..., sigma_k(size)) by sieve."""
    table = [0] * (size + 1)
    for d in range(1, size + 1):
        dk = d ** k
        for m in range(d, size + 1, d):
            table[m] += dk
    return tuple(table[1:])


def _sigma_table(k: int, n: int) -> tuple[int, ...]:
    """(sigma_k(1), ..., sigma_k(n)), from a cached sieve of power-of-two size."""
    return _sigma_sieve(k, max(64, 1 << (n - 1).bit_length()))[:n]


def eisenstein_qexp(weight: int, order: int) -> FormalSeries:
    """Normalised E4 or E6 as an exact q-series up to q^order inclusive."""
    if weight == 4:
        mult, k = 240, 3
    elif weight == 6:
        mult, k = -504, 5
    else:
        raise ValueError("only weights 4 and 6 are implemented")
    sig = _sigma_table(k, order)
    return FormalSeries("q", 0, [1] + [mult * s for s in sig])


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


# ----------------------------------------------------------- numeric J / E_k


def _eisenstein_value(weight: int, z, policy: PrecisionPolicy) -> mpmath.mpc:
    if weight == 4:
        mult, k = 240, 3
    else:
        mult, k = -504, 5
    with working_precision(policy) as pol:
        zc = as_uhp(z)
        q = mpmath.exp(2j * mpmath.pi * zc)
        qa = abs(q)

        def term(n: int) -> mpmath.mpc:
            if n == 0:
                return mpmath.mpc(1)
            return mpmath.mpf(mult * _sigma_table(k, n)[n - 1]) * q ** n

        def tail(n: int) -> mpmath.mpf:
            # sigma_k(m) <= m^(k+1); ratio bound for m >= n+1
            m = n + 1
            lead = abs(mult) * mpmath.mpf(m) ** (k + 1) * qa ** m
            ratio = qa * (mpmath.mpf(m + 1) / m) ** (k + 1)
            if ratio >= 1:
                return mpmath.inf
            return lead / (1 - ratio)

        return sum_series(term, tail, pol).value


@dataclass(frozen=True)
class EllipticValues:
    E4: mpmath.mpc
    E6: mpmath.mpc
    Delta: mpmath.mpc
    J: mpmath.mpc


def eisenstein_and_J(z, policy: PrecisionPolicy | None = None) -> EllipticValues:
    """E4, E6, the weight-12 discriminant G2^3 - 27 G3^2, and J = E4^3/(E4^3-E6^2).

    E4^3 - E6^2 = 1728 q (1 + O(q)) cancels about log2(1/|1728 q|) bits of the
    sums' absolute series_tol, so all four are formed with that many more bits
    and rounded back; a count over the mantissa width raises NonConvergent."""
    with working_precision(policy) as pol:
        y = as_uhp(z).imag
        extra = max(0, int(mpmath.ceil((2 * mpmath.pi * y - mpmath.log(1728)) / mpmath.log(2))))
        if extra > pol.mantissa_bits:
            raise NonConvergent(f"J at Im z = {mpmath.nstr(y, 5)} cancels {extra} bits, "
                                f"more than the {pol.mantissa_bits}-bit mantissa")
        wide = PrecisionPolicy(pol.mantissa_bits + extra)
        with working_precision(wide):
            e4 = _eisenstein_value(4, z, wide)
            e6 = _eisenstein_value(6, z, wide)
            diff = e4 ** 3 - e6 ** 2
            values = (e4, e6, (64 * mpmath.pi ** 12 / 27) * diff, e4 ** 3 / diff)
        return EllipticValues(*(+v for v in values))
