import random
from fractions import Fraction

import pytest

from hilbert_k3.fibrations import (CHART_VARS, KodairaType, NonMinimal,
                                   classify_boundary_family, classify_fibers,
                                   family_charts_symbolic, kodaira_type, weierstrass_data)
from hilbert_k3.moduli import K2_LOCUS
from hilbert_k3.polynomials import SparsePoly, UniPoly

# The charts as the paper displays them, transcribed term by term: the oracles
# for the charts that family_charts_symbolic computes.


def displayed_discriminant_0() -> SparsePoly:
    """The finite-chart discriminant as displayed: y^8 (27 Y^2 + 32000 X^3 y
    - 7200 X Y y - ... - 16384 Y y^5)."""
    y = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    inner = (27 * Y ** 2 + 32000 * X ** 3 * y - 7200 * X * Y * y
             - 160000 * X ** 2 * y ** 2 + 32000 * Y * y ** 2 + 5760 * X * Y * y ** 2
             + 256000 * X ** 2 * y ** 3 - 76800 * Y * y ** 3
             - 102400 * X ** 2 * y ** 4 + 61440 * Y * y ** 4
             - 16384 * Y * y ** 5)
    return y ** 8 * inner


def displayed_discriminant_infinity() -> SparsePoly:
    y1 = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    inner = (-16384 * Y - 102400 * X ** 2 * y1 + 61440 * Y * y1
             + 256000 * X ** 2 * y1 ** 2 - 76800 * Y * y1 ** 2
             - 160000 * X ** 2 * y1 ** 3 + 32000 * Y * y1 ** 3 + 5760 * X * Y * y1 ** 3
             + 32000 * X ** 3 * y1 ** 4 - 7200 * X * Y * y1 ** 4
             + 27 * Y ** 2 * y1 ** 5)
    return y1 ** 11 * inner


def displayed_chart0_g2_g3() -> tuple[SparsePoly, SparsePoly]:
    y = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    g2 = -(20 * X * y ** 3 - Fraction(16, 3) * y ** 4 * (4 * y - 5) ** 2)
    g3 = -(Y * y ** 4 + Fraction(80, 3) * y ** 5 * (4 * y - 5) * X
           - Fraction(128, 27) * y ** 6 * (4 * y - 5) ** 3)
    return g2, g3


def displayed_chart_inf_h2_h3() -> tuple[SparsePoly, SparsePoly]:
    y1 = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    h2 = -(20 * X * y1 ** 5 - Fraction(256, 3) * y1 ** 2 + Fraction(640, 3) * y1 ** 3
           - Fraction(400, 3) * y1 ** 4)
    h3 = -(Y * y1 ** 8 + Fraction(320, 3) * X * y1 ** 6 - Fraction(400, 3) * X * y1 ** 7
           - Fraction(8192, 27) * y1 ** 3 + Fraction(10240, 9) * y1 ** 4
           - Fraction(12800, 9) * y1 ** 5 + Fraction(16000, 27) * y1 ** 6)
    return h2, h3


def test_computed_discriminants_match_displayed_up_to_constant():
    chart0, chart_inf = family_charts_symbolic()
    q0, r0 = chart0.disc.divmod_exact(displayed_discriminant_0())
    assert r0.is_zero()
    assert q0.terms == {(0, 0, 0): -1}  # frozen constant
    qi, ri = chart_inf.disc.divmod_exact(displayed_discriminant_infinity())
    assert ri.is_zero()
    assert qi.terms == {(0, 0, 0): -1}


def test_displayed_chart_polynomials_match_computed():
    chart0, chart_inf = family_charts_symbolic()
    g2d, g3d = displayed_chart0_g2_g3()
    assert chart0.g2 == g2d and chart0.g3 == g3d
    h2d, h3d = displayed_chart_inf_h2_h3()
    assert chart_inf.g2 == h2d and chart_inf.g3 == h3d


def _order_in_y(p):
    return min(e[2] for e in p.terms)


def test_symbolic_orders_of_vanishing():
    chart0, chart_inf = family_charts_symbolic()
    assert _order_in_y(chart0.disc) == 8
    assert _order_in_y(chart0.g2) == 3
    assert _order_in_y(chart0.g3) == 4
    assert _order_in_y(chart_inf.disc) == 11
    assert _order_in_y(chart_inf.g2) == 2
    assert _order_in_y(chart_inf.g3) == 3


def test_kodaira_table_rows():
    assert str(kodaira_type(3, 4, 8)) == "IV*"
    assert str(kodaira_type(2, 3, 11)) == "I5*"
    assert str(kodaira_type(0, 0, 1)) == "I1"
    assert str(kodaira_type(1, 1, 2)) == "II"
    assert str(kodaira_type(1, 2, 3)) == "III"
    assert str(kodaira_type(2, 2, 4)) == "IV"
    assert str(kodaira_type(2, 3, 6)) == "I0*"
    assert str(kodaira_type(3, 5, 9)) == "III*"
    assert str(kodaira_type(4, 5, 10)) == "II*"
    assert kodaira_type(0, 0, 3).euler == 3
    assert kodaira_type(2, 3, 9).euler == 9  # I3*
    with pytest.raises(NonMinimal):
        kodaira_type(4, 6, 12)


def test_euler_numbers():
    assert KodairaType("I_n", 5).euler == 5
    assert KodairaType("I_n*", 6).euler == 12
    assert KodairaType("II*").euler == 10
    assert KodairaType("smooth").euler == 0


def test_classification_fixture_generic():
    cfg = classify_fibers(Fraction(1), Fraction(1))
    assert cfg.multiset() == {"IV*": 1, "I1": 5, "I5*": 1}
    assert cfg.euler_total == 24 and cfg.is_k3


def test_classification_fixture_Y_zero():
    cfg = classify_fibers(Fraction(1), Fraction(0))
    assert cfg.multiset() == {"III*": 1, "I1": 3, "I6*": 1}
    assert cfg.euler_total == 24 and cfg.is_k3


def test_classification_fixture_on_quintic_locus():
    assert K2_LOCUS.evaluate({"X": Fraction(0), "Y": Fraction(-64)}) == 0
    cfg = classify_fibers(Fraction(0), Fraction(-64))
    assert cfg.multiset() == {"IV*": 1, "I1": 3, "I2": 1, "I5*": 1}
    assert cfg.euler_total == 24 and cfg.is_k3


def test_origin_is_not_k3():
    cfg = classify_fibers(Fraction(0), Fraction(0))
    assert cfg.degenerate
    assert cfg.euler_total < 24
    assert not cfg.is_k3


def test_boundary_family_generic():
    cfg = classify_boundary_family(Fraction(1))
    assert cfg.multiset() == {"IV*": 1, "I1": 5, "I5*": 1}
    assert cfg.euler_total == 24


def test_boundary_family_l_zero_frozen():
    # the l-chart model degenerates at l = 0; classifier output frozen
    cfg = classify_boundary_family(Fraction(0))
    assert cfg.multiset() == {"IV*": 1, "III": 1, "I1": 1}
    assert cfg.euler_total == 12
    assert not cfg.is_k3


def test_euler_always_24_on_open_region():
    rng = random.Random(53)
    count = 0
    while count < 5:
        x = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        y = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        if y == 0 or K2_LOCUS.evaluate({"X": x, "Y": y}) == 0:
            continue
        cfg = classify_fibers(x, y)
        assert cfg.euler_total == 24, (x, y, cfg.summary())
        count += 1


def test_finite_fiber_degree_bookkeeping():
    chart0, _ = weierstrass_data(Fraction(1), Fraction(1))
    v = chart0.disc.valuation()
    quintic = chart0.disc.divide_exact(UniPoly([0, 1]) ** v)
    cfg = classify_fibers(Fraction(1), Fraction(1))
    finite_counts = sum(p.count * p.type.n for p in cfg.placements
                        if p.type.tag == "I_n")
    assert finite_counts == quintic.degree() == 5
