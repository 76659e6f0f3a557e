"""The one-parameter period story: the Gauss equation with parameters
(1/12, 5/12; 1), the restricted fourth-order equation in the moduli coordinate,
its factorization W4 = W1 o W3, symmetric-square solutions, the Clausen-type
series identities, the Schwarz map branch on (0, 1), and the inverse-period
identity X(z, z) * J(z) = 25/27."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath

from .diffops import DiffOperator, IncompleteBasis, LogSeries, series_solve
from .elliptic import eisenstein_and_J
from .moduli import moduli_XYZ
from .numkernel import PrecisionPolicy, to_mpc, working_precision
from .polynomials import RationalFunction as RF
from .polynomials import FormalSeries, UniPoly


def hypergeom_coefficients(upper: Sequence, lower: Sequence, order: int) -> list[Fraction]:
    """Exact Taylor coefficients of pFq through t^order (inclusive)."""
    upper, lower = [Fraction(a) for a in upper], [Fraction(b) for b in lower]
    for b in lower:
        if b.denominator == 1 and b <= 0:
            raise ValueError(f"lower parameter {b} is a nonpositive integer")
    out = [Fraction(1)]
    for n in range(order):
        c = out[-1]
        for a in upper:
            c *= a + n
        for b in lower:
            c /= b + n
        c /= n + 1
        out.append(c)
    return out


# -------------------------------------------------------------- the operators


def gauss_operator() -> DiffOperator:
    """t(1-t) u'' + (1 - (3/2) t) u' - (5/144) u."""
    t = UniPoly([0, 1])
    return DiffOperator("t", [RF(Fraction(-5, 144)), RF(1 - Fraction(3, 2) * t),
                              RF(t * (1 - t))])


def restricted_ode_X() -> DiffOperator:
    """The rank-4 restriction of the two-variable system to the locus Y = 0,
    in the moduli coordinate X (monic in d^4/dX^4)."""
    X = UniPoly([0, 1])
    base = X * (81 * X ** 2 - 1155 * X + 1000)
    a3 = RF(3 * (243 * X ** 2 - 4060 * X + 2000), 2 * base)
    a2 = RF((2034 * X ** 2 - 40680 * X + 8000), 8 * X * base)
    a1 = RF(15 * (3 * X - 80), 8 * X * base)
    return DiffOperator("X", [RF(0), a1, a2, a3, RF(1)])


@dataclass(frozen=True)
class RestrictedODE:
    W4: DiffOperator
    W3: DiffOperator
    W1: DiffOperator
    restdiff3: DiffOperator


@functools.cache
def restricted_operators() -> RestrictedODE:
    """W4, its factors W1 o W3, and the third-order equation satisfied by the
    derivatives of the periods; all in the rescaled coordinate t = 27 X / 25."""
    t = UniPoly([0, 1])
    core = t * (t - 1) * (5 * t - 72)
    one, zero = RF(1), RF(0)

    w4 = DiffOperator("t", [
        zero,
        RF(25 * t - 720, 72 * t * core),
        RF(565 * t ** 2 - 12204 * t + 2592, 36 * t * core),
        RF(1620 * t ** 3 - 29232 * t ** 2 + 15552 * t, 72 * t * core),
        one,
    ])
    w3 = DiffOperator("t", [
        RF(72 - 5 * t, 72 * t ** 3 * (t - 1)),
        RF(5 * t - 36, 36 * t ** 2 * (t - 1)),
        RF(3, 2 * (t - 1)),
        one,
    ])
    w1 = DiffOperator("t", [
        RF(15 * t ** 2 - 298 * t + 216, t * (t - 1) * (5 * t - 72)),
        one,
    ])
    # W4 has no zeroth-order term, so W4 = restdiff3 o d/dt
    return RestrictedODE(W4=w4, W3=w3, W1=w1, restdiff3=DiffOperator("t", w4.coeffs[1:]))


# ------------------------------------------------------- series verifications


def gauss_frobenius_basis(order: int) -> tuple[LogSeries, LogSeries]:
    """(holomorphic solution, log solution) of the Gauss equation at t = 0."""
    basis = series_solve(gauss_operator(), 0, order)
    holo = [b for b in basis if b.log_degree() == 0]
    logs = [b for b in basis if b.log_degree() == 1]
    if len(holo) != 1 or len(logs) != 1:
        raise IncompleteBasis("unexpected Frobenius structure for the Gauss equation")
    return holo[0], logs[0]


def verify_symmetric_square(order: int) -> dict:
    """W3 annihilates t * y_i * y_j for the Frobenius basis y_1, y_2, including
    the log components; and s2^2 = s1 s3 exactly.  Each check reports the
    precision it reached as `checked_order`."""
    if order < 10:
        raise ValueError("order must be >= 10")
    w3 = restricted_operators().W3
    y1, y2 = gauss_frobenius_basis(order + 6)

    def times_t(ls: LogSeries) -> LogSeries:
        return LogSeries(ls.var, {l: s.shift_exponent(1) for l, s in ls.parts.items()})

    s1 = times_t(y1 * y1)
    s2 = times_t(y1 * y2)
    s3 = times_t(y2 * y2)
    report = {}
    for name, s in (("t*y1^2", s1), ("t*y1*y2", s2), ("t*y2^2", s3)):
        res = w3.apply(s)
        report[name] = {
            "annihilated": res.is_zero_to_precision(),
            "checked_order": min(int(c.prec) for c in res.parts.values()),
        }
    diff = s2 * s2 - s1 * s3
    report["s2^2 = s1*s3"] = {
        "holds": diff.is_zero_to_precision(),
        "checked_order": min(int(c.prec) for c in diff.parts.values()),
    }
    return report


def verify_clausen_and_S(order: int) -> dict:
    """Exact series identities around t = 0:
    3F2(1/6,1/2,5/6;1,1) = 2F1(1/12,5/12;1)^2 (Clausen),
    the displayed antiderivative identity, S annihilated by the third-order
    equation, and d/dt(antiderivative) = S."""
    if order < 10:
        raise ValueError("order must be >= 10")
    f16 = Fraction(1, 6)
    f12 = Fraction(1, 2)
    f56 = Fraction(5, 6)
    f76 = Fraction(7, 6)

    c2f1 = FormalSeries("t", 0, hypergeom_coefficients([Fraction(1, 12), Fraction(5, 12)], [1],
                                                       order))
    c3f2 = hypergeom_coefficients([f16, f12, f56], [1, 1], order)
    clausen_exact = (c2f1 * c2f1).coeffs == c3f2

    lhs = [a + Fraction(1, 5) * b for a, b in zip(
        hypergeom_coefficients([f16, f12, f56], [1, 2], order),
        hypergeom_coefficients([f76, f12, f56], [1, 2], order))]
    rhs = [Fraction(6, 5) * c for c in c3f2]
    antiderivative_exact = lhs == rhs

    s_coeffs = [a + Fraction(1, 5) * b for a, b in zip(
        c3f2, hypergeom_coefficients([f76, f12, f56], [1, 1], order))]
    s_series = FormalSeries("t", Fraction(0), s_coeffs)
    resid = restricted_operators().restdiff3.apply(s_series)
    s_annihilated = resid.is_zero_to_precision()

    anti = FormalSeries("t", Fraction(1), [Fraction(6, 5) * c for c in c3f2])
    derivative_matches = (anti.derivative() - s_series).is_zero_to_precision()

    return {
        "clausen_exact_to_order": order if clausen_exact else -1,
        "clausen": clausen_exact,
        "antiderivative_identity": antiderivative_exact,
        "S_annihilated": s_annihilated,
        "S_checked_order": int(min(c.prec for c in resid.parts.values())),
        "derivative_consistency": derivative_matches,
    }


# ----------------------------------------------------------------- Schwarz map


def schwarz_map(t, policy: PrecisionPolicy = PrecisionPolicy()) -> mpmath.mpc:
    """The branch of the inverse-J coordinate on (0, 1): the purely imaginary
    z0 with 1/J(z0) = t and Im z0 > 1, as the period ratio of signature 6
    (Berndt, Bhargava and Garvan, Trans. AMS 347 (1995)),
    z0 = i F(1/6, 5/6; 1; 1 - x) / F(1/6, 5/6; 1; x) with t = 4x(1 - x) and
    x < 1/2; by the quadratic transformation the denominator is the Gauss
    solution F(1/12, 5/12; 1; t)."""
    with working_precision(policy):
        tf = mpmath.mpf(to_mpc(t).real)
        if not (0 < tf < 1):
            raise ValueError("the single-valued branch needs t in (0, 1)")
        x = tf / (2 * (1 + mpmath.sqrt(1 - tf)))   # (1 - sqrt(1 - t)) / 2, without cancellation
        one = mpmath.mpf(1)
        return mpmath.mpc(0, mpmath.hyp2f1(one / 6, 5 * one / 6, 1, 1 - x)
                          / mpmath.hyp2f1(one / 12, 5 * one / 12, 1, tf))


def verify_diagonal_inverse_identity(samples,
                                     policy: PrecisionPolicy = PrecisionPolicy()) -> mpmath.mpf:
    """The worst |X(z, z) * J(z) - 25/27| over the diagonal sample points."""
    with working_precision(policy):
        target = mpmath.mpf(25) / 27
        worst = mpmath.mpf(0)
        for z in map(to_mpc, samples):
            x, _, _ = moduli_XYZ((z, z), policy)
            worst = max(worst, abs(x * eisenstein_and_J(z, policy) - target))
        return worst
