import random
from fractions import Fraction

import pytest

from hilbert_k3.diffops import (DiffOperator, IrregularSingular, NonRationalRoot,
                                indicial_exponents, series_solve)
from hilbert_k3.periods import (gauss_operator, hypergeom_coefficients,
                                restricted_ode_X, restricted_operators)
from hilbert_k3.polynomials import FormalSeries, RationalFunction, UniPoly


def _t():
    return UniPoly([0, 1])


def _const(c):
    return RationalFunction(c)


def _poly(terms: dict) -> UniPoly:
    """The polynomial sum c t^k over the (k, c) items."""
    dense = [Fraction(0)] * (max(terms) + 1)
    for k, c in terms.items():
        dense[k] = c
    return UniPoly(dense)


def test_compose_d_squared():
    d = DiffOperator("t", [_const(0), _const(1)])
    dd = d.compose(d)
    assert dd == DiffOperator("t", [_const(0), _const(0), _const(1)])


def test_compose_telescoping():
    plus = DiffOperator("t", [_const(1), _const(1)])
    minus = DiffOperator("t", [_const(-1), _const(1)])
    comp = plus.compose(minus)
    assert [repr(c) for c in comp.coeffs] == ["-1", "0", "1"]


def _random_operator(rng, order):
    coeffs = []
    for k in range(order + 1):
        poly = UniPoly()
        for _ in range(rng.randint(1, 3)):
            poly = poly + _poly({rng.randint(0, 2): Fraction(rng.randint(-4, 4))})
        coeffs.append(RationalFunction(poly))
    if coeffs[-1].is_zero():
        coeffs[-1] = _const(1)
    return DiffOperator("t", coeffs)


def _apply_rational(op: DiffOperator, f: RationalFunction) -> RationalFunction:
    """Independent oracle: sum_k c_k f^(k), term by term."""
    total = RationalFunction(0)
    d = f
    for k, c in enumerate(op.coeffs):
        if k > 0:
            d = d.derivative()
        total = total + c * d
    return total


def test_compose_agrees_with_sequential_application():
    rng = random.Random(3)
    for _ in range(6):
        p = _random_operator(rng, rng.randint(1, 3))
        q = _random_operator(rng, rng.randint(1, 3))
        comp = p.compose(q)
        for _ in range(5):
            poly = _poly({rng.randint(0, 4): Fraction(rng.randint(1, 5)),
                          rng.randint(0, 3): Fraction(rng.randint(-5, -1))})
            u = RationalFunction(poly)
            assert _apply_rational(comp, u) == _apply_rational(p, _apply_rational(q, u))


def test_euler_indicial():
    one = _const(1)
    d2 = DiffOperator("t", [_const(0), _const(0), one])
    assert indicial_exponents(d2, 0) == [Fraction(0), Fraction(1)]


def test_restricted_equation_riemann_scheme():
    eq = restricted_ode_X()
    assert indicial_exponents(eq, 0) == [0, 1, 1, 1]
    assert indicial_exponents(eq, "infinity") == sorted(
        [Fraction(0), Fraction(-5, 6), Fraction(-1, 2), Fraction(-1, 6)])


def test_irregular_singular_detected():
    t = _t()
    # u'' + t^-3 u = 0 violates the Fuchs bound at 0
    op = DiffOperator("t", [RationalFunction(1, t ** 3),
                            _const(0), _const(1)])
    with pytest.raises(IrregularSingular):
        indicial_exponents(op, 0)


def test_non_rational_root_reported():
    t = _t()
    # Euler operator with indicial rho^2 - 2
    op = DiffOperator("t", [_const(-2), RationalFunction(t), RationalFunction(t * t)])
    with pytest.raises(NonRationalRoot):
        indicial_exponents(op, 0)


def test_gauss_frobenius_basis():
    gauss = gauss_operator()
    basis = series_solve(gauss, 0, 12)
    assert len(basis) == 2
    holo = [b for b in basis if b.log_degree() == 0]
    logs = [b for b in basis if b.log_degree() == 1]
    assert len(holo) == 1 and len(logs) == 1
    s = holo[0].parts[0]
    assert s.coeffs[1] / s.coeffs[0] == Fraction(5, 144)
    # the log solution has the holomorphic one as its log coefficient
    lead = logs[0].parts[1]
    assert lead.coeffs[1] / lead.coeffs[0] == Fraction(5, 144)
    for b in basis:
        assert gauss.apply(b).is_zero_to_precision()


def test_w3_power_series_solution_matches_clausen_square():
    ode = restricted_operators()
    basis = series_solve(ode.W3, 0, 8)
    assert len(basis) == 3
    plain = [b for b in basis if b.log_degree() == 0]
    assert len(plain) == 1
    s = plain[0].parts[0]
    assert s.expo == 1
    # oracle: square the Gauss series independently and compare up to scale
    c = hypergeom_coefficients([Fraction(1, 12), Fraction(5, 12)], [1], 6)
    sq = [sum(c[i] * c[n - i] for i in range(n + 1)) for n in range(6)]
    scale = s.coeffs[0] / sq[0]
    for n in range(6):
        assert s.coeffs[n] == scale * sq[n]


def test_series_solve_residuals_for_repository_operators():
    ode = restricted_operators()
    for op in (ode.W3, ode.W4, ode.restdiff3, gauss_operator(), restricted_ode_X()):
        basis = series_solve(op, 0, 9)
        assert len(basis) == op.order
        for b in basis:
            assert op.apply(b).is_zero_to_precision()


def test_shift_and_rescale_consistency():
    gauss = gauss_operator()
    shifted = gauss.shift_variable(Fraction(1, 3))
    exps = indicial_exponents(shifted, 0)
    assert len(exps) == 2  # ordinary point: exponents {0, 1}
    assert exps == [0, 1]
    scaled = gauss.rescale_variable(Fraction(2))
    assert indicial_exponents(scaled, 0) == indicial_exponents(gauss, 0)


def test_formal_series_arithmetic_tracks_precision():
    a = FormalSeries("t", Fraction(1), [Fraction(1), Fraction(2)])
    b = FormalSeries("t", Fraction(0), [Fraction(1), Fraction(-1), Fraction(3)])
    prod = a * b
    assert prod.expo == 1
    assert prod.coefficient(1) == 1
    assert prod.coefficient(2) == 1
    d = a.derivative()
    assert d.coefficient(0) == 1
    assert d.coefficient(1) == 4


def _series_data(basis):
    return [{l: (s.expo, s.coeffs, s.prec) for l, s in b.parts.items()} for b in basis]


def test_non_reduced_coefficients_give_the_same_local_theory():
    """Coefficients stored with a common factor in numerator and denominator,
    such as t (t - 1) / (t (t - 1) (5t - 72)), give the same indicial
    exponents and Frobenius series as the reduced ones."""
    t = _t()
    m = t * (t - 1) * (5 * t - 72)
    f = RationalFunction(t * (t - 1), m)
    assert f.num.degree() == 2
    assert f.reduced() == (UniPoly([1]), 5 * t - 72)
    ode = restricted_operators()
    for op in (ode.W1, ode.W3):
        padded = DiffOperator("t", [RationalFunction(c.num * m, c.den * m) for c in op.coeffs])
        assert padded == op
        assert any(p.num != c.num for p, c in zip(padded.coeffs, op.coeffs))
        for point in (0, 1, Fraction(72, 5), "infinity"):
            assert indicial_exponents(padded, point) == indicial_exponents(op, point)
        for point in (0, 1):
            assert (_series_data(series_solve(padded, point, 6))
                    == _series_data(series_solve(op, point, 6)))
