import time
from fractions import Fraction

import pytest

from hilbert_k3.klein import (ZETA_VARS, build_invariants, klein_relation_poly,
                              swap_z1_z2, verify_klein_relation)
from hilbert_k3.polynomials import SparsePoly


def _oracle_eval(z0, z1, z2):
    """Independent evaluation of the four invariants by direct substitution
    into the displayed formulas (plain scalar arithmetic, no sparse machinery)."""
    A = z0 ** 2 + z1 * z2
    B = (8 * z0 ** 4 * z1 * z2 - 2 * z0 ** 2 * z1 ** 2 * z2 ** 2
         + z1 ** 3 * z2 ** 3 - z0 * (z1 ** 5 + z2 ** 5))
    C = (320 * z0 ** 6 * z1 ** 2 * z2 ** 2 - 160 * z0 ** 4 * z1 ** 3 * z2 ** 3
         + 20 * z0 ** 2 * z1 ** 4 * z2 ** 4 + 6 * z1 ** 5 * z2 ** 5
         - 4 * z0 * (z1 ** 5 + z2 ** 5)
         * (32 * z0 ** 4 - 20 * z0 ** 2 * z1 * z2 + 5 * z1 ** 2 * z2 ** 2)
         + z1 ** 10 + z2 ** 10)
    D12 = ((z1 ** 5 - z2 ** 5)
           * (-1024 * z0 ** 10 + 3840 * z0 ** 8 * z1 * z2
              - 3840 * z0 ** 6 * z1 ** 2 * z2 ** 2 + 1200 * z0 ** 4 * z1 ** 3 * z2 ** 3
              - 100 * z0 ** 2 * z1 ** 4 * z2 ** 4 + z1 ** 5 * z2 ** 5)
           + z0 * (z1 ** 10 - z2 ** 10)
           * (352 * z0 ** 4 - 160 * z0 ** 2 * z1 * z2 + 10 * z1 ** 2 * z2 ** 2)
           + z1 ** 15 - z2 ** 15)
    return A, B, C, Fraction(D12, 12) if isinstance(D12, int) else D12 / 12


def test_flagship_relation_exact_zero():
    t0 = time.time()
    rep = verify_klein_relation()
    assert rep["exact_zero"]
    assert rep["residual_poly"].is_zero()
    assert time.time() - t0 < 10


def test_first_invariant_shape():
    inv = build_invariants()
    z0 = SparsePoly.variable(ZETA_VARS, "z0")
    z1 = SparsePoly.variable(ZETA_VARS, "z1")
    z2 = SparsePoly.variable(ZETA_VARS, "z2")
    assert inv.A == z0 ** 2 + z1 * z2


@pytest.mark.parametrize("point", [(1, 0, 0), (0, 1, 1), (1, 1, 1), (1, 2, 3)])
def test_values_match_direct_substitution_oracle(point):
    inv = build_invariants()
    vals = {"z0": Fraction(point[0]), "z1": Fraction(point[1]), "z2": Fraction(point[2])}
    got = tuple(p.evaluate(vals) for p in (inv.A, inv.B, inv.C, inv.D))
    want = _oracle_eval(*(Fraction(x) for x in point))
    assert got == want


def test_frozen_fixture_values():
    # frozen from the direct-substitution oracle
    inv = build_invariants()
    at = lambda pt: tuple(p.evaluate({"z0": Fraction(pt[0]), "z1": Fraction(pt[1]),
                                      "z2": Fraction(pt[2])})
                          for p in (inv.A, inv.B, inv.C, inv.D))
    assert at((1, 0, 0)) == (1, 0, 0, 0)
    assert at((0, 1, 1)) == (1, 1, 8, 0)
    assert at((1, 1, 1)) == (2, 5, 52, 0)
    assert at((1, 2, 3)) == (7, -83, 8409, Fraction(-4389011, 12))


def test_homogeneity_per_term():
    inv = build_invariants()
    for poly, deg in ((inv.A, 2), (inv.B, 6), (inv.C, 10), (inv.D, 15)):
        for expo in poly.terms:
            assert sum(expo) == deg


def test_swap_symmetry():
    inv = build_invariants()
    assert swap_z1_z2(inv.A) == inv.A
    assert swap_z1_z2(inv.B) == inv.B
    assert swap_z1_z2(inv.C) == inv.C
    assert swap_z1_z2(inv.D) == -inv.D


def test_perturbed_relation_nonzero():
    inv = build_invariants()
    z0 = SparsePoly.variable(ZETA_VARS, "z0")
    residual = klein_relation_poly(inv.A, inv.B, inv.C, inv.D + z0 ** 15)
    assert not residual.is_zero()


def test_relation_rational_spot_check():
    inv = build_invariants()
    r = klein_relation_poly(inv.A, inv.B, inv.C, inv.D)
    assert r.evaluate({"z0": Fraction(1), "z1": Fraction(2), "z2": Fraction(3)}) == 0
    # the relation applied to the four values there, as `relation_at_rational_point` does
    values = (7, -83, 8409, Fraction(-4389011, 12))
    assert klein_relation_poly(*values) == 0
    assert klein_relation_poly(*values[:3], values[3] + 1) == -105336120
