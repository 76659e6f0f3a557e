import random
from fractions import Fraction

import mpmath
import pytest

from hilbert_k3.fibrations import (DegenerateSample, KodairaType, NonMinimal,
                                   OutsideParameterDomain, birational_transport,
                                   classify_boundary_family, classify_fibers,
                                   displayed_chart0_g2_g3, displayed_chart_inf_h2_h3,
                                   displayed_discriminant_0,
                                   displayed_discriminant_infinity,
                                   family_charts_symbolic, kodaira_type,
                                   lambda_mu_to_XY, surface_ABC_residual,
                                   weierstrass_data)
from hilbert_k3.moduli import K2_LOCUS
from hilbert_k3.numkernel import working_precision
from hilbert_k3.polynomials import UniPoly


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


def test_numeric_fallback_classification(policy):
    from hilbert_k3.fibrations import classify_fibers_numeric
    cfg = classify_fibers_numeric(mpmath.mpc(1, "0.5"), mpmath.mpc(2, "-0.3"), policy)
    assert not cfg.certified
    assert cfg.euler_total == 24
    assert cfg.multiset() == {"IV*": 1, "I1": 5, "I5*": 1}


def test_birational_transport_residual(policy):
    with working_precision(policy):
        r = birational_transport(1, Fraction(1, 100),
                                 (mpmath.mpc("0.7", "0.2"), mpmath.mpc("0.4", "-0.3")),
                                 policy)
        assert r < policy.verify_tol * 100


def test_transport_rejects_mu_zero(policy):
    with pytest.raises(OutsideParameterDomain):
        birational_transport(1, 0, (mpmath.mpc(1), mpmath.mpc(1)), policy)


def test_transport_degenerate_sample(policy):
    with pytest.raises(DegenerateSample):
        birational_transport(1, Fraction(1, 100), (mpmath.mpc(0), mpmath.mpc(1)), policy)


def test_lambda_mu_map_values(policy):
    with working_precision(policy):
        x, y = lambda_mu_to_XY(1, Fraction(1, 100), policy)
        # exact images of the rational map
        assert abs(x - mpmath.mpf(25) / 100 / (2 * mpmath.mpf("0.421875"))) < 1e-30
        shift = mpmath.mpf(3) / 4
        assert abs(y + 3125 * mpmath.mpf("0.0001") / shift ** 5) < 1e-30


def test_weight_scaling_maps_surface_points(policy):
    rng = random.Random(59)
    with working_precision(policy):
        A, B, C = mpmath.mpc(2), mpmath.mpc("0.5"), mpmath.mpc(-3)
        k = mpmath.mpc("1.3", "0.4")
        x, y = mpmath.mpc("0.8", "0.1"), mpmath.mpc("-0.6", "0.2")
        z = mpmath.sqrt(x ** 3 - 4 * (4 * y ** 3 - 5 * A * y ** 2) * x ** 2
                        + 20 * B * y ** 3 * x + C * y ** 4)
        assert surface_ABC_residual(A, B, C, (x, y, z), policy) < policy.verify_tol
        mapped = (k ** 6 * x, k ** 2 * y, k ** 9 * z)
        scaled = (k ** 2 * A, k ** 6 * B, k ** 10 * C)
        assert surface_ABC_residual(*scaled, mapped, policy) < policy.verify_tol * 10
