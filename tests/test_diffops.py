import hashlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_k3.diffops import (DiffOperator, IrregularSingular, LogSeries,
                                NonRationalRoot, _horner, _local_theta_form, _rational_roots,
                                _taylor_table, indicial_exponents, series_solve)
from hilbert_k3.periods import (gauss_operator, hypergeom_coefficients,
                                restricted_ode_X, restricted_operators)
from hilbert_k3.polynomials import FormalSeries, RationalFunction, UniPoly


def _t():
    return UniPoly([0, 1])


def _const(c):
    return RationalFunction(c)


def _log_degree(b: LogSeries) -> int:
    """The highest power of log whose part does not vanish to its precision."""
    return max(l for l, s in b.parts.items() if not s.is_zero_to_precision())


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
    assert comp.coeffs == [_const(-1), _const(0), _const(1)]


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
    holo = [b for b in basis if _log_degree(b) == 0]
    logs = [b for b in basis if _log_degree(b) == 1]
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
    plain = [b for b in basis if _log_degree(b) == 0]
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
    a = FormalSeries(Fraction(1), [Fraction(1), Fraction(2)])
    b = FormalSeries(Fraction(0), [Fraction(1), Fraction(-1), Fraction(3)])
    prod = a * b
    assert prod.expo == 1
    assert prod.coeffs[:2] == [1, 1]
    d = a.derivative()
    assert d.expo == 0
    assert d.coeffs == [1, 4]


def _series_data(basis):
    return [{l: (s.expo, s.coeffs, s.prec) for l, s in b.parts.items()} for b in basis]


def test_non_reduced_coefficients_give_the_same_local_theory():
    """Coefficients given with a common factor in numerator and denominator,
    such as t (t - 1) / (t (t - 1) (5t - 72)), cancel in the constructor, so
    they give the same indicial exponents and Frobenius series as the
    reduced ones."""
    t = _t()
    m = t * (t - 1) * (5 * t - 72)
    f = RationalFunction(t * (t - 1), m)
    assert (f.num, f.den) == (UniPoly([1]), 5 * t - 72)
    ode = restricted_operators()
    for op in (ode.W1, ode.W3):
        padded = DiffOperator("t", [RationalFunction(c.num * m, c.den * m) for c in op.coeffs])
        assert padded == op
        for point in (0, 1, Fraction(72, 5), "infinity"):
            assert indicial_exponents(padded, point) == indicial_exponents(op, point)
        for point in (0, 1):
            assert (_series_data(series_solve(padded, point, 6))
                    == _series_data(series_solve(op, point, 6)))


def _theta_operator(qs: list[UniPoly]) -> DiffOperator:
    """sum_j t^j q_j(theta) with theta = t d/dt.  The falling factorial
    theta (theta - 1) ... (theta - i + 1) is t^i D^i, and q has the
    coefficient Delta^i q(0) / i! on the i-th falling factorial."""
    coeffs = [UniPoly()] * (max(q.degree() for q in qs) + 1)
    for j, q in enumerate(qs):
        for i in range(q.degree() + 1):
            a = sum((-1) ** (i - m) * math.comb(i, m) * q(m)
                    for m in range(i + 1)) / math.factorial(i)
            coeffs[i] = coeffs[i] + UniPoly([0] * (i + j) + [a])
    return DiffOperator("t", [RationalFunction(c) for c in coeffs])


RHO = UniPoly([0, 1])


@pytest.mark.parametrize("qs, exponents, expected", [
    # exponents 3 > 1 = 1 > 0 in one class: every collision carries a log
    ([RHO * (RHO - 1) ** 2 * (RHO - 3), RHO ** 2 + 1], [0, 1, 1, 3],
     [(0, 3), (1, 1), (2, 1), (3, 0)]),
    # q_1 vanishes at 2, so the collision of 1 with 3 needs no log
    ([RHO * (RHO - 1) ** 2 * (RHO - 3), RHO - 2], [0, 1, 1, 3],
     [(0, 3), (0, 1), (1, 1), (2, 0)]),
    # a triple exponent below a simple one, at half-integers
    ([(RHO - Fraction(1, 2)) ** 3 * (RHO - Fraction(5, 2)), RHO ** 2 + 1],
     [Fraction(1, 2)] * 3 + [Fraction(5, 2)],
     [(0, Fraction(5, 2)), (1, Fraction(1, 2)), (2, Fraction(1, 2)), (3, Fraction(1, 2))]),
], ids=["logs-at-every-collision", "collision-without-log", "half-integer-triple"])
def test_frobenius_basis_at_resonance(qs, exponents, expected):
    """Exponents that differ by integers, with multiplicities: a full basis
    with the expected (log degree, leading exponent) pairs, each solution
    annihilated to its truncation order.  Jets one term shorter than
    `series_solve` builds lose the last solution of a resonant exponent."""
    op = _theta_operator(qs)
    assert indicial_exponents(op, 0) == exponents
    basis = series_solve(op, 0, 12)
    assert len(basis) == op.order
    assert [(_log_degree(b), min(s.expo for s in b.parts.values())) for b in basis] == expected
    for b in basis:
        assert op.apply(b).is_zero_to_precision()


@st.composite
def _resonant_operators(draw):
    """(op, mult): q_0 = prod (rho - r - k)^m over up to three integer offsets k
    of one base r, total order <= 5, and a random q_1 of degree <= the order;
    mult maps each root r + k to m."""
    base = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 3)]))
    offsets = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    mults = draw(st.lists(st.integers(1, 3), min_size=len(offsets), max_size=len(offsets))
                 .filter(lambda ms: sum(ms) <= 5))
    mult = {base + k: m for k, m in zip(offsets, mults)}
    q0 = UniPoly([1])
    for root, m in mult.items():
        q0 = q0 * (RHO - root) ** m
    q1 = UniPoly(draw(st.lists(st.integers(-3, 3), max_size=sum(mult.values()) + 1)))
    return _theta_operator([q0, q1]), mult


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_resonant_operators())
def test_frobenius_selection_gives_each_root_its_log_ladder(case):
    """The basis the Frobenius method fixes, in `series_solve`'s order: the
    roots from highest to lowest, and a root of multiplicity m gives m
    solutions whose lowest terms are t^root log^l for l = 0, ..., m - 1,
    whatever q_1 does at the resonances, each annihilated to its truncation
    order."""
    op, mult = case
    basis = series_solve(op, 0, 8)
    assert len(basis) == op.order
    lowest = []
    for b in basis:
        assert op.apply(b).is_zero_to_precision()
        expo = min(s.valuation() for s in b.parts.values())
        logs = [l for l, s in b.parts.items() if s.valuation() == expo]
        assert len(logs) == 1
        lowest.append((expo, logs[0]))
    assert lowest == [(r, l) for r in sorted(mult, reverse=True) for l in range(mult[r])]


def _basis_digest(basis) -> str:
    h = hashlib.sha256()
    for b in basis:
        for l in sorted(b.parts):
            s = b.parts[l]
            h.update(f"{l}|{s.expo}|{s.prec}|{','.join(str(c) for c in s.coeffs)};".encode())
        h.update(b"#")
    return h.hexdigest()


# sha256 of every exponent, precision and coefficient of the order-40 bases
FROBENIUS_DIGESTS = {
    "0": "c1e2e48a58567b91813c61194f7b1ece58bf06c72902310c031a2e4e0c2f5e29",
    "25/27": "67a3046e592f8cd35df4f63623df22ea5cb933f3e6c439a72d82511fd45cfff8",
    "40/3": "56e62f6bb7a139f4e2131d343adc2e484a3d9e2a0a75b81249b8e897374bef5f",
    "infinity": "e832324043880f59e1e1b7f4ef258b4fdcfd42feb3e73e5135b89209cf6f54ec",
    "gauss": "609a6dd1cd4482f3cc83f8e84e2a3b97dbc26775df99692d5df773f24cbb7c41",
}


@pytest.mark.parametrize("point", sorted(FROBENIUS_DIGESTS))
def test_frobenius_outputs_are_pinned(point):
    """The restricted equation at its four singular points and the Gauss
    equation at 0, to order 40, reproduce the recorded coefficients exactly."""
    if point == "gauss":
        local = gauss_operator()
    elif point == "infinity":
        local = restricted_ode_X().invert_variable()
    else:
        local = restricted_ode_X().shift_variable(Fraction(point))
    assert _basis_digest(series_solve(local, 0, 40)) == FROBENIUS_DIGESTS[point]


def _taylor_oracle(p: UniPoly, x: Fraction, n: int) -> list[Fraction]:
    """The first n Taylor coefficients p^(k)(x) / k! at x."""
    out = []
    for k in range(n):
        out.append(p(x) / math.factorial(k))
        p = p.derivative()
    return out


def _taylor_values(p: UniPoly, x: Fraction, n: int) -> list[Fraction]:
    """The first n Taylor coefficients at x from `_taylor_table`, checking
    that it holds n tables of ints."""
    den = p.scale.denominator
    table = _taylor_table(p, n, den)
    assert len(table) == n and all(type(a) is int for row in table for a in row)
    return [Fraction(_horner(row, x)) / den for row in table]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=9), max_size=7),
       st.fractions(min_value=-20, max_value=20, max_denominator=12),
       st.integers(min_value=0, max_value=10))
def test_taylor_matches_derivatives_over_factorials(coeffs, x, n):
    """The Taylor table of p(s + eps) known to eps^n, at s = x, holds the
    first n Taylor coefficients."""
    p = UniPoly(coeffs)
    assert _taylor_values(p, x, n) == _taylor_oracle(p, x, n)


@pytest.mark.parametrize("p, x, n", [
    (UniPoly(), Fraction(3, 7), 4),
    (UniPoly([5]), Fraction(-1, 2), 3),
    (UniPoly([1, -2, 0, 3]), Fraction(5, 3), 9),
    (UniPoly([Fraction(1, 2), 7, 1]), Fraction(2), 0),
])
def test_taylor_edge_cases(p, x, n):
    """The zero polynomial, a constant, n past the degree, n = 0, and
    non-integer points: the table stores ints, none at or past eps^n."""
    out = _taylor_values(p, x, n)
    assert out == _taylor_oracle(p, x, n)
    assert len(out) == n


# -------------------------------- the recurrence in FormalSeries arithmetic


def _jet(p: UniPoly, x: Fraction, prec: int) -> FormalSeries:
    """p(x + eps), known to eps^prec."""
    return FormalSeries(0, p.affine(1, x), prec)


def _eps_coefficient(jet: FormalSeries, k: int) -> Fraction:
    """The coefficient of eps^k, for k below the jet's precision."""
    i, ints = k - jet.expo, jet.poly.ints
    return jet.poly.scale * ints[i] if 0 <= i < len(ints) else Fraction(0)


def _formal_series_solve(op: DiffOperator, point, order: int) -> list[LogSeries]:
    """The Frobenius basis of `series_solve`, with the jets c_n held as
    FormalSeries in eps, so their precision is the one that FormalSeries
    products and inverses track: a reference for the integer recurrence."""
    q = _local_theta_form(op, point)
    classes: dict[Fraction, list[tuple[Fraction, int]]] = {}
    for root, mult in sorted(_rational_roots(q[0])):
        classes.setdefault(root % 1, []).append((root, mult))
    solutions = []
    for cls in classes.values():
        top = cls[-1][0]
        above = 0
        for root, mult in reversed(cls):
            n_terms = order + int(top - root) + 1
            jets = [FormalSeries(0, [0] * above + [1], 2 * above + mult)]
            for n in range(1, n_terms):
                acc = FormalSeries(0, UniPoly(), jets[-1].prec)
                for j in range(1, min(n, len(q) - 1) + 1):
                    prev = jets[n - j]
                    acc = acc + _jet(q[j], root + n - j, prev.prec) * prev
                c = -(acc * _jet(q[0], root + n, acc.prec).inverse())
                if c.valuation() < 0:
                    raise ValueError("jet division would produce a pole")
                jets.append(c)
            usable = min(c.prec for c in jets)
            for k in range(above, min(above + mult, usable)):
                solutions.append(LogSeries({
                    l: FormalSeries(root, [_eps_coefficient(c, k - l) for c in jets])
                    * Fraction(1, math.factorial(l)) for l in range(k + 1)}))
            above += mult
    if len(solutions) != op.order:
        raise AssertionError(f"got {len(solutions)} of {op.order}")
    return solutions


@st.composite
def _composed_operators(draw):
    """A composition of 1-4 first-order operators t (1 + c t) D - r + a t + b t^2,
    whose exponents r differ by integers, repeats included."""
    base = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-2, 3)]))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    op = None
    for _ in range(draw(st.integers(1, 4))):
        r = base + draw(st.integers(0, 3))
        c, a, b = draw(small), draw(small), draw(small)
        first = DiffOperator("t", [RationalFunction(UniPoly([-r, a, b])),
                                   RationalFunction(UniPoly([0, 1, c]))])
        op = first if op is None else op.compose(first)
    return op


def _solved(solve, op, order):
    """Each part's exponent, precision and coefficients, or the exception type."""
    try:
        basis = solve(op, 0, order)
    except Exception as exc:
        return type(exc)
    return [{l: (s.expo, s.prec, s.poly.ints, s.poly.scale) for l, s in b.parts.items()}
            for b in basis]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_composed_operators(), st.integers(min_value=3, max_value=14))
def test_integer_recurrence_matches_formal_series(op, order):
    """The integer recurrence gives the FormalSeries recurrence's basis, part
    for part, or raises the same exception."""
    assert _solved(series_solve, op, order) == _solved(_formal_series_solve, op, order)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_composed_operators(), st.integers(min_value=3, max_value=14))
def test_frobenius_invariant_leaves_series_solve_nothing_to_check(op, order):
    """The invariant stated above the recurrence, in FormalSeries arithmetic:
    q_0(root + n + eps) does not vanish to its precision, no quotient has a
    pole, and every jet is known to at least above + mult terms.  So
    series_solve returns a basis of the operator's order."""
    q = _local_theta_form(op, 0)
    classes: dict[Fraction, list[tuple[Fraction, int]]] = {}
    for root, mult in sorted(_rational_roots(q[0])):
        classes.setdefault(root % 1, []).append((root, mult))
    for cls in classes.values():
        above = 0
        for root, mult in reversed(cls):
            jets = [FormalSeries(0, [0] * above + [1], 2 * above + mult)]
            for n in range(1, order + int(cls[-1][0] - root) + 1):
                acc = FormalSeries(0, UniPoly(), jets[-1].prec)
                for j in range(1, min(n, len(q) - 1) + 1):
                    acc = acc + _jet(q[j], root + n - j, jets[n - j].prec) * jets[n - j]
                q0 = _jet(q[0], root + n, acc.prec)
                assert not q0.is_zero_to_precision()
                jets.append(-(acc * q0.inverse()))
                assert jets[-1].valuation() >= 0
            assert min(c.prec for c in jets) >= above + mult
            above += mult
    assert len(series_solve(op, 0, order)) == op.order


def test_rational_roots_finds_a_denominator_above_1e9():
    big = Fraction(3, 1_000_000_007)
    p = UniPoly([-big, 1]) * UniPoly([Fraction(7, 2), 1]) ** 2 * UniPoly([0, 1])
    assert sorted(_rational_roots(p)) == [(Fraction(-7, 2), 2), (0, 1), (big, 1)]


def test_rational_roots_reject_an_irreducible_quadratic():
    with pytest.raises(NonRationalRoot):
        _rational_roots(UniPoly([-2, 0, 1]))
    with pytest.raises(NonRationalRoot):
        _rational_roots(UniPoly([-2, 0, 1]) * UniPoly([Fraction(-1, 3), 1]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.fractions(min_value=-12, max_value=12, max_denominator=12),
                          st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=4),
       st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
def test_rational_roots_agree_with_sympy(factors, lead):
    """Products of rational linear factors, times a constant: the roots and
    their multiplicities against sympy's."""
    p = UniPoly([lead])
    for root, mult in factors:
        p = p * UniPoly([-root, 1]) ** mult
    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coefficients())]
    want = {Fraction(int(r.p), int(r.q)): m for r, m in sympy.roots(sympy.Poly(coeffs, x)).items()}
    got = _rational_roots(p)
    assert len(got) == len({r for r, _ in got})
    assert dict(got) == want
