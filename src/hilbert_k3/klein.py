"""The four icosahedral invariant polynomials on P^2 and their degree-30
relation, built exactly over Q and checked by full sparse expansion."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import SparsePoly

ZETA_VARS = ("z0", "z1", "z2")


@dataclass(frozen=True)
class IcosahedralInvariants:
    A: SparsePoly
    B: SparsePoly
    C: SparsePoly
    D: SparsePoly  # coefficients in (1/12) Z


@functools.cache
def build_invariants() -> IcosahedralInvariants:
    """Exact transcription of the degree 2/6/10/15 invariants.

    The degree-15 polynomial is stated as 12*D; we divide by 12 once here so
    downstream formulas can use D itself.
    """
    V = ZETA_VARS
    z0 = SparsePoly.variable(V, "z0")
    z1 = SparsePoly.variable(V, "z1")
    z2 = SparsePoly.variable(V, "z2")

    A = z0 ** 2 + z1 * z2

    B = (8 * z0 ** 4 * z1 * z2
         - 2 * z0 ** 2 * z1 ** 2 * z2 ** 2
         + z1 ** 3 * z2 ** 3
         - z0 * (z1 ** 5 + z2 ** 5))

    C = (320 * z0 ** 6 * z1 ** 2 * z2 ** 2
         - 160 * z0 ** 4 * z1 ** 3 * z2 ** 3
         + 20 * z0 ** 2 * z1 ** 4 * z2 ** 4
         + 6 * z1 ** 5 * z2 ** 5
         - 4 * z0 * (z1 ** 5 + z2 ** 5)
         * (32 * z0 ** 4 - 20 * z0 ** 2 * z1 * z2 + 5 * z1 ** 2 * z2 ** 2)
         + z1 ** 10 + z2 ** 10)

    twelve_D = ((z1 ** 5 - z2 ** 5)
                * (-1024 * z0 ** 10 + 3840 * z0 ** 8 * z1 * z2
                   - 3840 * z0 ** 6 * z1 ** 2 * z2 ** 2
                   + 1200 * z0 ** 4 * z1 ** 3 * z2 ** 3
                   - 100 * z0 ** 2 * z1 ** 4 * z2 ** 4
                   + z1 ** 5 * z2 ** 5)
                + z0 * (z1 ** 10 - z2 ** 10)
                * (352 * z0 ** 4 - 160 * z0 ** 2 * z1 * z2 + 10 * z1 ** 2 * z2 ** 2)
                + (z1 ** 15 - z2 ** 15))
    D = twelve_D * Fraction(1, 12)

    return IcosahedralInvariants(A=A, B=B, C=C, D=D)


def quintic(A, B, C):
    """Klein's quintic -1728 B^5 + 720 A B^3 C - 80 A^2 B C^2 + 64 A^3 (5 B^2 - A C)^2
    + C^3, for polynomials or numbers: 144 D^2 on the invariants, 144 Z at
    (1, X, Y) on the moduli side, and minus the locus K2 in (X, Y)."""
    return (-1728 * B ** 5 + 720 * A * B ** 3 * C - 80 * A ** 2 * B * C ** 2
            + 64 * A ** 3 * (5 * B ** 2 - A * C) ** 2 + C ** 3)


def klein_relation_poly(A, B, C, D):
    """R = 144 D^2 - quintic(A, B, C), for polynomials or numbers."""
    return 144 * D ** 2 - quintic(A, B, C)


def verify_klein_relation() -> dict:
    """Expand the relation in the projective coordinates; exact zero expected."""
    inv = build_invariants()
    residual = klein_relation_poly(inv.A, inv.B, inv.C, inv.D)
    return {
        "exact_zero": residual.is_zero(),
        "residual_poly": residual,
        "term_counts": {
            "A": inv.A.term_count(),
            "B": inv.B.term_count(),
            "C": inv.C.term_count(),
            "D": inv.D.term_count(),
        },
    }


def swap_z1_z2(p: SparsePoly) -> SparsePoly:
    """Apply the coordinate swap z1 <-> z2 to the sparse representation."""
    return SparsePoly(p.vars, {(e0, e2, e1): c for (e0, e1, e2), c in p.terms.items()})
