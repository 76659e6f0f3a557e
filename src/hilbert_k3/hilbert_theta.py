"""Genus-2 theta constants on the image of H x H inside the Siegel upper half
space, the ten even characteristics used for Q(sqrt 5), and the modular forms
g2, s5, s6, s10, s15 built from them.

The numerically risky object here is the 30-monomial weight-15 form; it is
transcribed into a data table and pinned down by the transformation checks in
verify_modularity / verify_mueller_relation rather than trusted blindly.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath

from .elliptic import NotInUpperHalfPlane
from .numkernel import (PrecisionPolicy, quadratic_constants, to_mpc,
                        working_precision)


class OddCharacteristic(ValueError):
    pass


@dataclass(frozen=True)
class UHPPair:
    z1: mpmath.mpc
    z2: mpmath.mpc

    def __post_init__(self):
        if not (self.z1.imag > 0 and self.z2.imag > 0):
            raise NotInUpperHalfPlane(f"both imaginary parts must be positive: {self}")


def as_pair(p, policy: PrecisionPolicy | None = None) -> UHPPair:
    if isinstance(p, UHPPair):
        return p
    z1, z2 = p
    with working_precision(policy):
        return UHPPair(to_mpc(z1), to_mpc(z2))


@dataclass(frozen=True)
class SiegelPoint:
    """Symmetric 2x2 matrix [[s1, s2], [s2, s3]] with positive definite
    imaginary part."""

    s1: mpmath.mpc
    s2: mpmath.mpc
    s3: mpmath.mpc

    def __post_init__(self):
        p, q, r = self.s1.imag, self.s2.imag, self.s3.imag
        if not (p > 0 and p * r - q * q > 0):
            raise ValueError("imaginary part is not positive definite")

    def imag_min_eigenvalue(self) -> mpmath.mpf:
        p, q, r = self.s1.imag, self.s2.imag, self.s3.imag
        return ((p + r) - mpmath.sqrt((p - r) ** 2 + 4 * q * q)) / 2


def psi(p, policy: PrecisionPolicy | None = None) -> SiegelPoint:
    """The embedding (z1, z2) -> (1/(2 sqrt5)) [[(1+sqrt5)z1 - (1-sqrt5)z2,
    2(z1-z2)], [2(z1-z2), (-1+sqrt5)z1 + (1+sqrt5)z2]]."""
    pair = as_pair(p, policy)
    with working_precision(policy):
        s5 = quadratic_constants(policy).sqrt5
        z1, z2 = pair.z1, pair.z2
        d = 2 * s5
        return SiegelPoint(
            s1=((1 + s5) * z1 - (1 - s5) * z2) / d,
            s2=2 * (z1 - z2) / d,
            s3=((-1 + s5) * z1 + (1 + s5) * z2) / d,
        )


# ------------------------------------------------------------------- the sum

Characteristic = tuple[tuple[int, int], tuple[int, int]]

# correspondence j <-> (a, b) for the ten even characteristics
THETA_CHARACTERISTICS: dict[int, Characteristic] = {
    0: ((0, 0), (0, 0)),
    1: ((1, 1), (0, 0)),
    2: ((0, 0), (1, 1)),
    3: ((1, 1), (1, 1)),
    4: ((0, 1), (0, 0)),
    5: ((1, 0), (0, 0)),
    6: ((0, 0), (0, 1)),
    7: ((1, 0), (0, 1)),
    8: ((0, 0), (1, 0)),
    9: ((0, 1), (1, 0)),
}

# diagonal factorisation theta_j(z, z) -> product of Jacobi constants
DIAGONAL_FACTORS: dict[int, tuple[str, str] | None] = {
    0: ("00", "00"), 1: ("10", "10"), 2: ("01", "01"), 3: None,
    4: ("00", "10"), 5: ("10", "00"), 6: ("00", "01"), 7: ("10", "01"),
    8: ("01", "00"), 9: ("01", "10"),
}


def check_characteristic(ch: Characteristic) -> None:
    a, b = ch
    if any(x not in (0, 1) for x in (*a, *b)):
        raise ValueError(f"characteristic entries must be 0/1: {ch}")
    if (a[0] * b[0] + a[1] * b[1]) % 2:
        raise OddCharacteristic(f"{ch} is odd")


def truncation_radius(lam_min: mpmath.mpf, series_tol) -> int:
    """Smallest integer R with exp(-pi lam_min (R-1)^2) < series_tol."""
    R = 1
    tol = mpmath.mpf(series_tol)
    while mpmath.exp(-mpmath.pi * lam_min * (R - 1) ** 2) >= tol:
        R += 1
    return R


def siegel_theta(Z: SiegelPoint, ch: Characteristic,
                 policy: PrecisionPolicy | None = None,
                 radius_multiplier: int = 1) -> mpmath.mpc:
    """theta(Z; a, b) = sum over g in Z^2 of
    exp(i pi (t(g + a/2) Z (g + a/2) + tg b)), Gaussian-truncated."""
    check_characteristic(ch)
    (a1, a2), (b1, b2) = ch
    with working_precision(policy) as pol:
        R = truncation_radius(Z.imag_min_eigenvalue(), pol.series_tol)
        R = R * radius_multiplier + 1
        ipi = mpmath.mpc(0, 1) * mpmath.pi
        total = mpmath.mpc(0)
        for g1 in range(-R, R + 1):
            u = g1 + mpmath.mpf(a1) / 2
            for g2 in range(-R, R + 1):
                v = g2 + mpmath.mpf(a2) / 2
                quad = Z.s1 * u * u + 2 * Z.s2 * u * v + Z.s3 * v * v
                sign = -1 if (g1 * b1 + g2 * b2) % 2 else 1
                total += sign * mpmath.exp(ipi * quad)
        return total


def theta_batch(p, policy: PrecisionPolicy | None = None) -> list[mpmath.mpc]:
    """All ten theta_j(z1, z2) at once, sharing the exponential tables."""
    pair = as_pair(p, policy)
    with working_precision(policy) as pol:
        Z = psi(pair, policy)
        R = truncation_radius(Z.imag_min_eigenvalue(), pol.series_tol) + 1
        ipi = mpmath.mpc(0, 1) * mpmath.pi

        gs = list(range(-R, R + 1))
        # quadratic factors exp(i pi s (g + a/2)^2) for shift a in {0, 1}
        e1 = {a: [mpmath.exp(ipi * Z.s1 * (g + mpmath.mpf(a) / 2) ** 2) for g in gs]
              for a in (0, 1)}
        e3 = {a: [mpmath.exp(ipi * Z.s3 * (g + mpmath.mpf(a) / 2) ** 2) for g in gs]
              for a in (0, 1)}
        # cross factor exp(2 i pi s2 u v) = w^((2g1+a1)(2g2+a2)) with w below
        w = mpmath.exp(ipi * Z.s2 / 2)
        kmax = (2 * R + 1) ** 2 + 1
        wpow_pos = [mpmath.mpc(1)]
        for _ in range(kmax):
            wpow_pos.append(wpow_pos[-1] * w)
        winv = 1 / w
        wpow_neg = [mpmath.mpc(1)]
        for _ in range(kmax):
            wpow_neg.append(wpow_neg[-1] * winv)

        def wpow(k: int) -> mpmath.mpc:
            return wpow_pos[k] if k >= 0 else wpow_neg[-k]

        out = []
        for j in range(10):
            (a1, a2), (b1, b2) = THETA_CHARACTERISTICS[j]
            total = mpmath.mpc(0)
            for i1, g1 in enumerate(gs):
                f1 = e1[a1][i1]
                k1 = 2 * g1 + a1
                sg1 = g1 * b1
                row = mpmath.mpc(0)
                for i2, g2 in enumerate(gs):
                    k = k1 * (2 * g2 + a2)
                    sign = -1 if (sg1 + g2 * b2) % 2 else 1
                    row += sign * e3[a2][i2] * wpow(k)
                total += f1 * row
            out.append(total)
        return out


def theta_j(j: int, p, policy: PrecisionPolicy | None = None) -> mpmath.mpc:
    """theta_j(z1, z2) = theta(psi(z1, z2); a, b) with (a, b) from the table."""
    if j not in THETA_CHARACTERISTICS:
        raise ValueError("characteristic index must be 0..9")
    return siegel_theta(psi(p, policy), THETA_CHARACTERISTICS[j], policy)


# ------------------------------------------------------------- Mueller forms


@dataclass(frozen=True)
class MuellerForms:
    g2: mpmath.mpc
    s5: mpmath.mpc
    s6: mpmath.mpc
    s10: mpmath.mpc
    s15: mpmath.mpc


def _prod(theta: list[mpmath.mpc], indices: str) -> mpmath.mpc:
    out = mpmath.mpc(1)
    for ch in indices:
        out *= theta[int(ch)]
    return out


# s15 = -2^-18 * sum sign * theta_{p9}^9 theta_{p5}^5 theta_{p1}, transcribed
# term by term; the transformation checks guard this table against typos.
S15_TABLE: tuple[tuple[int, str, str, str], ...] = (
    (+1, "07", "18", "24"), (-1, "25", "16", "09"), (+1, "58", "03", "46"),
    (-1, "09", "25", "16"), (+1, "09", "16", "25"), (-1, "67", "23", "89"),
    (+1, "18", "24", "07"), (-1, "24", "18", "07"), (-1, "46", "03", "58"),
    (-1, "24", "07", "18"), (-1, "89", "67", "23"), (-1, "07", "24", "18"),
    (+1, "89", "23", "67"), (-1, "49", "13", "57"), (+1, "16", "09", "25"),
    (-1, "03", "46", "58"), (+1, "16", "25", "09"), (-1, "46", "58", "03"),
    (-1, "25", "09", "16"), (-1, "57", "49", "13"), (+1, "67", "89", "23"),
    (+1, "58", "46", "03"), (+1, "57", "13", "49"), (-1, "23", "89", "67"),
    (+1, "18", "07", "24"), (+1, "03", "58", "46"), (+1, "23", "67", "89"),
    (+1, "49", "57", "13"), (-1, "13", "57", "49"), (+1, "13", "49", "57"),
)


def mueller_forms(p, policy: PrecisionPolicy | None = None,
                  theta: list[mpmath.mpc] | None = None) -> MuellerForms:
    """Evaluate g2, s5, s6, s10, s15 at (z1, z2)."""
    with working_precision(policy):
        th = theta if theta is not None else theta_batch(p, policy)
        g2 = (_prod(th, "0145") - _prod(th, "1279") - _prod(th, "3478")
              + _prod(th, "0268") + _prod(th, "3569"))
        all10 = _prod(th, "0123456789")
        s5 = all10 / 64
        s6 = (_prod(th, "012478") ** 2 + _prod(th, "012569") ** 2
              + _prod(th, "034568") ** 2 + _prod(th, "236789") ** 2
              + _prod(th, "134579") ** 2) / 256
        s10 = all10 ** 2 / 4096
        acc = mpmath.mpc(0)
        for sign, p9, p5, p1 in S15_TABLE:
            acc += sign * _prod(th, p9) ** 9 * _prod(th, p5) ** 5 * _prod(th, p1)
        s15 = -acc / 2 ** 18
        return MuellerForms(g2=g2, s5=s5, s6=s6, s10=s10, s15=s15)


def verify_mueller_relation(p, policy: PrecisionPolicy | None = None,
                            forms: MuellerForms | None = None) -> mpmath.mpf:
    """Residual of the ring relation among (g2, s6, s10, s15), relative to the
    largest monomial magnitude."""
    with working_precision(policy):
        f = forms if forms is not None else mueller_forms(p, policy)
        g2, s6, s10, s15 = f.g2, f.s6, f.s10, f.s15
        monomials = [
            s15 ** 2,
            -(5 ** 5) * s10 ** 3,
            mpmath.mpf(5 ** 3) / 2 * g2 ** 2 * s6 * s10 ** 2,
            -mpmath.mpf(1) / 2 ** 4 * g2 ** 5 * s10 ** 2,
            -mpmath.mpf(9 * 25) / 2 * g2 * s6 ** 3 * s10,
            mpmath.mpf(1) / 2 ** 3 * g2 ** 4 * s6 ** 2 * s10,
            2 * 27 * s6 ** 5,
            -mpmath.mpf(1) / 2 ** 4 * g2 ** 3 * s6 ** 4,
        ]
        total = sum(monomials)
        scale = max(abs(m) for m in monomials)
        return abs(total) / scale


def verify_modularity(p, policy: PrecisionPolicy | None = None) -> dict[str, mpmath.mpf]:
    """Transformation laws for g2 (weight 2), s6 (weight 6), s5 (alternating):
    translations by 1 and by the fundamental unit, the inversion
    z -> -1/z in both slots, and the slot swap."""
    pair = as_pair(p, policy)
    with working_precision(policy):
        qc = quadratic_constants(policy)
        z1, z2 = pair.z1, pair.z2
        base = mueller_forms(pair, policy)

        def rel(x, y):
            return abs(x - y) / max(abs(x), abs(y))

        out: dict[str, mpmath.mpf] = {}
        shift1 = mueller_forms((z1 + 1, z2 + 1), policy)
        out["g2_translation_1"] = rel(shift1.g2, base.g2)
        out["s6_translation_1"] = rel(shift1.s6, base.s6)

        shift_eps = mueller_forms((z1 + qc.eps, z2 + qc.eps_conj), policy)
        out["g2_translation_eps"] = rel(shift_eps.g2, base.g2)
        out["s6_translation_eps"] = rel(shift_eps.s6, base.s6)

        inv = mueller_forms((-1 / z1, -1 / z2), policy)
        out["g2_inversion_weight2"] = rel(inv.g2, (z1 * z2) ** 2 * base.g2)
        out["s6_inversion_weight6"] = rel(inv.s6, (z1 * z2) ** 6 * base.s6)

        swap = mueller_forms((z2, z1), policy)
        out["g2_swap_symmetric"] = rel(swap.g2, base.g2)
        out["s6_swap_symmetric"] = rel(swap.s6, base.s6)
        out["s15_swap_symmetric"] = rel(swap.s15, base.s15)
        out["s5_swap_alternating"] = rel(swap.s5, -base.s5)
        return out
