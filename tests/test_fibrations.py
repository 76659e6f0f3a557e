import hashlib
import random
from fractions import Fraction

import pytest

from hilbert_k3.fibrations import (KodairaType, classify_boundary_family,
                                   classify_fibers, kodaira_type, weierstrass_data)
from hilbert_k3.moduli import K2_LOCUS
from hilbert_k3.polynomials import SparsePoly, UniPoly

# The charts as the paper displays them, transcribed term by term with X and Y
# symbolic: the oracles for the charts that weierstrass_data computes at a
# point.  The fiber coordinate is y in both charts.
CHART_VARS = ("X", "Y", "y")


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


# g2 is affine in X and g3 affine in X and in Y, so every chart polynomial,
# displayed or computed, has degree at most 3 in X and at most 2 in Y with
# coefficients in Q[y]; two of them that agree on a grid of 4 X-values times
# 3 Y-values agree identically.
GRID = [(Fraction(x), Fraction(y)) for x in (0, 1, Fraction(-2, 3), Fraction(5, 2))
        for y in (0, Fraction(1, 2), -3)]


def _at(p: SparsePoly, x: Fraction, y: Fraction) -> UniPoly:
    return p.evaluate({"X": x, "Y": y, "y": UniPoly([0, 1])})


def test_computed_discriminants_match_displayed_up_to_constant():
    for x, y in GRID:
        chart0, chart_inf = weierstrass_data(x, y)
        assert chart0.disc == -_at(displayed_discriminant_0(), x, y)  # frozen constant -1
        assert chart_inf.disc == -_at(displayed_discriminant_infinity(), x, y)


def test_displayed_chart_polynomials_match_computed():
    g2d, g3d = displayed_chart0_g2_g3()
    h2d, h3d = displayed_chart_inf_h2_h3()
    for x, y in GRID:
        chart0, chart_inf = weierstrass_data(x, y)
        assert chart0.g2 == _at(g2d, x, y) and chart0.g3 == _at(g3d, x, y)
        assert chart_inf.g2 == _at(h2d, x, y) and chart_inf.g3 == _at(h3d, x, y)


def test_symbolic_orders_of_vanishing():
    """The orders in y that the displayed charts show, at a generic point."""
    chart0, chart_inf = weierstrass_data(Fraction(3, 7), Fraction(-2, 5))
    assert chart0.disc.valuation() == 8
    assert chart0.g2.valuation() == 3
    assert chart0.g3.valuation() == 4
    assert chart_inf.disc.valuation() == 11
    assert chart_inf.g2.valuation() == 2
    assert chart_inf.g3.valuation() == 3


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
    # a non-minimal equation is classified after x -> t^2 x, z -> t^3 z
    assert str(kodaira_type(4, 6, 13)) == "I1"
    with pytest.raises(ValueError):
        kodaira_type(4, 6, 12)


def test_euler_numbers():
    """The Euler numbers of the classical table: n for I_n, n + 6 for I_n*,
    and 2, 3, 4, 6, 8, 9, 10 for II, III, IV, I0*, IV*, III*, II*."""
    assert kodaira_type(0, 0, 5) == KodairaType("I5", 5)
    assert kodaira_type(2, 3, 12) == KodairaType("I6*", 12)
    additive = {(1, 1, 2): 2, (1, 2, 3): 3, (2, 2, 4): 4, (2, 3, 6): 6,
                (3, 4, 8): 8, (3, 5, 9): 9, (4, 5, 10): 10}
    for valuations, euler in additive.items():
        assert kodaira_type(*valuations).euler == euler


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
    # the Euler number of I_n is n
    finite_counts = sum(p.count * p.type.euler for p in cfg.placements
                        if p.type.name[1:].isdigit())
    assert finite_counts == quintic.degree() == 5


def _placement_text(p) -> str:
    """'2 x I1 at roots of ...', or 'IV* at y=0' for a single fiber."""
    prefix = f"{p.count} x " if p.count > 1 else ""
    return f"{prefix}{p.type} at {p.location}"


def _configuration_digest(cfg) -> str:
    text = ";".join(_placement_text(p) for p in cfg.placements)
    return hashlib.sha256(f"{text}|{cfg.euler_total}|{cfg.degenerate}".encode()).hexdigest()


# sha256 of the placements, Euler total and degeneracy flag of each configuration
FIBER_DIGESTS = {
    "1 1": "cc3ae954289af2942c6e6e22b3643f90f15c4e6e32f82a8e3ea18edb176f62c6",
    "1 0": "026f573d77463cca3a81bccbc6a1b2cfebcf3bcad6d7f02afde224f8c64be494",
    "0 -64": "24c207df1a8fed5dbd639f03eb715c694418e15460ecc4e8836c3d5c33d6ea01",
    "0 0": "5bfeb3f998cbfb72cb1a25ff865bd9352ddc6830d2c011495d7f3ccccfa28760",
    "3/7 -2/5": "89be9c51e78b12eb3b34316dfaf76a6651273fd7c5f89985f6a966ff7a825caf",
    "1/10 1/10": "35d5ba2f8356bc38ba25cc22c3c405c5621a85aad67c8018ea092c030ea71c96",
    "2 5": "15ef86f79f8ae8826b87e45969e41393feeeafd01f73dda94fab893afaef2135",
    "-3 7/2": "17243b229580b827c4f12b18f795bc0e6e22bba71f65e6c1299f56617fb18e19",
}
BOUNDARY_DIGESTS = {
    "0": "7551b0eb94e5c117403df4ae49d7552894828da1ef2e2725db0d846501438890",
    "1": "7341c30984d66b0a7764a2f7291d03bc720012b409bb422169a35ee963623ea5",
    "3/7": "5f975038e26ba214668da66420320c3d3e45068a047e81db32c7e4c9bd8bf8f6",
}


@pytest.mark.parametrize("point", sorted(FIBER_DIGESTS))
def test_fiber_placements_are_pinned(point):
    x, y = map(Fraction, point.split())
    assert _configuration_digest(classify_fibers(x, y)) == FIBER_DIGESTS[point]


@pytest.mark.parametrize("l", sorted(BOUNDARY_DIGESTS))
def test_boundary_family_is_pinned(l):
    assert _configuration_digest(classify_boundary_family(Fraction(l))) == BOUNDARY_DIGESTS[l]
