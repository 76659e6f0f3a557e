"""Property tests for the exact primitives in `polynomials`: the dense
univariate kernel and the one-variable rational functions against sympy,
`FormalSeries` (scale times primitive ints) against sympy, and Gauss-Jordan
directly and through `taylor_basis`."""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import QQ
from sympy.polys.ring_series import rs_mul, rs_series_inversion
from sympy.polys.rings import ring

from hilbert_k3 import pde
from hilbert_k3.lattice import mat_identity, mat_mul
from hilbert_k3.pde import InconsistentReduction, taylor_basis
from hilbert_k3.polynomials import (FormalSeries, RationalFunction, SparsePoly, UniPoly,
                                    gauss_jordan)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

x = sympy.Symbol("x")
rationals = st.fractions(min_value=-40, max_value=40, max_denominator=9)
polys = st.lists(rationals, max_size=7).map(UniPoly)
nonzero_polys = polys.filter(bool)
small_polys = st.lists(rationals, max_size=3).map(UniPoly)
units = st.lists(rationals, min_size=1, max_size=6).filter(lambda c: c[0] != 0)


def rational(c: Fraction) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def oracle(p: UniPoly) -> sympy.Poly:
    coeffs = [rational(c) for c in reversed(p.coefficients())]
    return sympy.Poly(coeffs or [0], x, domain="QQ")


def is_primitive(p: UniPoly) -> bool:
    """Coprime integer coefficients with a positive leading one."""
    coeffs = p.coefficients()
    return (all(c.denominator == 1 for c in coeffs) and coeffs[-1] > 0
            and sympy.gcd_list([int(c) for c in coeffs]) == 1)


def rf_oracle(f: RationalFunction) -> tuple[sympy.Poly, sympy.Poly]:
    return oracle(f.num), oracle(f.den)


def rf_expr(f: RationalFunction) -> sympy.Expr:
    return oracle(f.num).as_expr() / oracle(f.den).as_expr()


def same(f: RationalFunction, pair: tuple[sympy.Poly, sympy.Poly]) -> bool:
    """f equals num / den, by cross-multiplication in sympy."""
    num, den = pair
    return oracle(f.num) * den == num * oracle(f.den)


rational_functions = st.builds(RationalFunction, polys, nonzero_polys)
small_rational_functions = st.builds(RationalFunction, small_polys, small_polys.filter(bool))


@PROPERTY
@given(polys, polys)
def test_unipoly_ring_operations_match_sympy(a, b):
    assert oracle(a * b) == oracle(a) * oracle(b)
    assert oracle(a + b) == oracle(a) + oracle(b)
    assert oracle(a - b) == oracle(a) - oracle(b)
    assert not (a - a)


@PROPERTY
@given(polys, nonzero_polys)
def test_unipoly_divmod_matches_sympy(a, b):
    r = a % b
    assert oracle(r) == sympy.rem(oracle(a), oracle(b))
    assert (a * b).divide_exact(b) == a
    if r:
        with pytest.raises(ValueError):
            a.divide_exact(b)


@PROPERTY
@given(nonzero_polys, polys, nonzero_polys)
def test_unipoly_gcd_matches_sympy(a, b, c):
    a, b = a * c, b * c
    g = a.gcd(b)
    expected = sympy.gcd(oracle(a), oracle(b))
    assert oracle(g).monic() == expected
    assert is_primitive(g)


@PROPERTY
@given(polys)
def test_unipoly_derivative_and_content(a):
    assert oracle(a.derivative()) == oracle(a).diff(x)
    if a:
        # a = content(a) * primitive(a), up to sign
        assert is_primitive(a.primitive())
        lead = a.coefficients()[-1] / a.primitive().coefficients()[-1]
        assert a.primitive() * lead == a


@PROPERTY
@given(st.lists(st.tuples(nonzero_polys, st.integers(min_value=1, max_value=3)), max_size=3),
       rationals.filter(bool))
def test_unipoly_squarefree_matches_sympy(factors, c):
    p = UniPoly([c])
    for f, m in factors:
        p = p * f ** m
    parts = p.squarefree()
    rebuilt = UniPoly([1])
    for f, m in parts:
        assert f.degree() > 0 and is_primitive(f)
        rebuilt = rebuilt * f ** m
    assert rebuilt == p.primitive()
    expected = {m: sympy.Poly(g, x).monic() for g, m in sympy.sqf_list(oracle(p))[1]}
    assert {m: oracle(f).monic() for f, m in parts} == expected


@PROPERTY
@given(polys, rationals, rationals)
def test_unipoly_affine_matches_sympy(p, a, b):
    expected = oracle(p).as_expr().subs(x, rational(a) * x + rational(b))
    assert oracle(p.affine(a, b)) == sympy.Poly(sympy.expand(expected), x, domain="QQ")


@PROPERTY
@given(polys, st.integers(min_value=0, max_value=3))
def test_unipoly_reverse_and_valuation_match_sympy(p, extra):
    n = max(p.degree(), 0) + extra
    expected = sympy.expand(x ** n * oracle(p).as_expr().subs(x, 1 / x))
    assert oracle(p.reverse(n)) == sympy.Poly(expected, x, domain="QQ")
    if p:
        lowest = min(m[0] for m in oracle(p).monoms())
        assert p.valuation() == lowest
        assert p.reverse(n).degree() == n - lowest
        assert p.reverse(n).reverse(n) == p
    else:
        with pytest.raises(ValueError):
            p.valuation()


@PROPERTY
@given(polys, nonzero_polys, rationals.filter(bool))
def test_rational_function_canonical_form(a, b, c):
    f = RationalFunction(a, b)
    assert same(f, (oracle(a), oracle(b)))
    num, den = f.reduced()
    assert same(f, (oracle(num), oracle(den)))
    assert is_primitive(den)
    assert sympy.gcd(oracle(num), oracle(den)).degree() <= 0
    # the same function from a scaled, unreduced pair has the same reduced form
    g = RationalFunction(a * b * c, b * b * c)
    assert g.reduced() == (num, den) and g == f


@PROPERTY
@given(small_polys, small_polys.filter(bool), small_polys.filter(bool),
       small_rational_functions, small_rational_functions, st.booleans())
def test_rational_function_equality_across_arithmetic_paths(a, b, c, h, k, reuse):
    """a / (b c) built in one step and as a / b / c: the results of further
    arithmetic reach their stored pairs by different sums, products and
    quotients, yet compare equal exactly when sympy says the functions are
    equal."""
    k = h if reuse else k
    p = (RationalFunction(a, b * c) + h) * h
    q = (RationalFunction(a, b) / c + k) * k
    assert (p == q) == (sympy.cancel(rf_expr(p) - rf_expr(q)) == 0)
    assert (p == q) == (p.reduced() == q.reduced())
    if not k.is_zero():
        assert (p * k) / k == p


def stored_reduced(f: RationalFunction) -> bool:
    """num and den coprime, den primitive with a positive leading coefficient:
    the form that `==` reads."""
    return f.num.gcd(f.den).degree() == 0 and is_primitive(f.den)


@PROPERTY
@given(rational_functions, rational_functions)
def test_rational_function_arithmetic_matches_sympy(f, g):
    """Each result equals sympy's and is stored reduced."""
    (fn, fd), (gn, gd) = rf_oracle(f), rf_oracle(g)
    results = [(f + g, (fn * gd + gn * fd, fd * gd)),
               (f + g * -1, (fn * gd - gn * fd, fd * gd)),
               (f * g, (fn * gn, fd * gd)),
               (f.derivative(), (fn.diff(x) * fd - fn * fd.diff(x), fd * fd))]
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f / g
    else:
        results.append((f / g, (fn * gd, fd * gn)))
    for h, pair in results:
        assert same(h, pair)
        assert stored_reduced(h)


@st.composite
def series(draw):
    """x^expo (c_0 + c_1 x + ...) known to x^prec, with prec at or past the
    last given coefficient."""
    coeffs = draw(st.lists(rationals, max_size=5))
    expo = draw(st.integers(min_value=-3, max_value=3))
    return FormalSeries(expo, coeffs, expo + len(coeffs) + draw(st.integers(0, 2)))


QX, qx = ring("x", QQ)


def ring_poly(coeffs: list):
    """Rational coefficients, constant term first, as an element of QX."""
    return QX.from_list([QQ(c.numerator, c.denominator) for c in reversed(coeffs)])


def truncated(shift: int, factors: list[list], den: list, expo: int, prec: int) -> list:
    """The coefficients of x^expo ... x^(prec - 1) of x^shift times the
    product of the coefficient lists `factors` over the unit `den`, as power
    series in sympy's ring Q[x] truncated at x^(prec - shift)."""
    n = prec - shift
    if n <= 0:
        return [Fraction(0)] * (prec - expo)
    out = rs_series_inversion(ring_poly(den), qx, n)
    for f in factors:
        out = rs_mul(out, ring_poly(f), qx, n)
    c = [out.get((k - shift,), 0) if k >= shift else 0 for k in range(expo, prec)]
    return [Fraction(int(a.numerator), int(a.denominator)) for a in c]


@PROPERTY
@given(units, st.integers(min_value=1, max_value=9))
def test_series_inverse_over_fractions(a, n):
    """A unit known to x^n times its inverse is 1 to x^n."""
    s = FormalSeries(0, a, n)
    one = s * s.inverse()
    assert (one.expo, one.prec) == (0, n)
    assert one.coeffs == [1] + [0] * (n - 1)


@PROPERTY
@given(st.lists(rationals, max_size=7), units, st.integers(min_value=1, max_value=9))
def test_series_divide_over_fractions_matches_sympy(a, b, n):
    """a / b to n terms, as a times the inverse of b and as multiply_rational
    by 1 / b, is a times the inverse of b modulo x^n."""
    inverse = sympy.invert(oracle(UniPoly(b)), sympy.Poly(x ** n, x, domain="QQ"))
    expected = (oracle(UniPoly(a)) * inverse).rem(sympy.Poly(x ** n, x, domain="QQ"))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    want = (coeffs + [0] * n)[:n]
    num = FormalSeries(0, a, n)
    by_inverse = num * FormalSeries(0, b, n).inverse()
    assert by_inverse.prec == n
    assert [coefficient(by_inverse, k) for k in range(n)] == want
    by_rational = num.multiply_rational(RationalFunction(1, UniPoly(b)))
    assert (by_rational.expo, by_rational.coeffs) == (0, want)


def test_series_divide_edge_cases():
    """A quotient known to x^0 holds nothing; dividing by a series that
    vanishes to its precision raises, whether it stores nothing or zeros."""
    q = FormalSeries(0, [Fraction(1)], 0) * FormalSeries(0, [Fraction(2)]).inverse()
    assert (q.prec, q.coeffs) == (0, [])
    for zero in (FormalSeries(0, [], 3), FormalSeries(0, [0, 0, 0])):
        with pytest.raises(ZeroDivisionError):
            zero.inverse()


@PROPERTY
@given(series(), units, units, st.integers(min_value=-2, max_value=2))
def test_multiply_rational_matches_sympy(s, num, den, k):
    """s * x^k num / den with num and den units: a pole of order v = -k at 0
    lowers the exponent and the precision by v; a numerator of valuation
    w = k keeps the exponent and raises the precision by w."""
    w, v = max(k, 0), max(-k, 0)
    f = RationalFunction(UniPoly([0] * w + num), UniPoly([0] * v + den))
    out = s.multiply_rational(f)
    assert (out.expo, out.prec) == (s.expo - v, s.prec + w - v)
    assert out.coeffs == truncated(s.expo + k, [s.coeffs, num], den, out.expo, out.prec)


@PROPERTY
@given(series(), units, st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=5))
def test_division_by_positive_valuation_loses_that_many_terms(a, b, v, n):
    """Dividing by b known to x^(v + n), of valuation v (the epsilon-jet case),
    gives a quotient known to v fewer terms past the numerator's valuation
    than the numerator; a numerator below valuation v gives a pole, which is
    a negative valuation."""
    d = FormalSeries(0, [0] * v + b, v + n)
    if a.is_zero_to_precision() or n == 0:
        return
    q = a * d.inverse()
    assert q.prec == min(a.prec - v, n - v + a.valuation())
    assert q.valuation() == a.valuation() - v
    assert ([coefficient(q, k) for k in range(q.expo, q.prec)]
            == truncated(a.expo - v, [a.coeffs], b, q.expo, q.prec))
    assert (q.valuation() < 0) == (a.valuation() < v)


def stored_as_scale_times_primitive_ints(s: FormalSeries) -> bool:
    """Primitive ints with a positive leading entry, or none with scale 0,
    and no int stored at or past prec."""
    ints, scale = s.poly.ints, s.poly.scale
    if not ints:
        return scale == 0
    return (all(type(a) is int for a in ints) and ints[-1] > 0
            and math.gcd(*ints) == 1 and s.expo + len(ints) <= s.prec)


@PROPERTY
@given(series(), series(), rationals.filter(bool), rational_functions)
def test_formal_series_storage_contract(a, b, c, f):
    """Every result stores a scale times primitive ints below its precision,
    and a constant multiple shares the ints."""
    results = [a, a + b, a - b, a * b, a * c, a.derivative(), a.shift_exponent(2),
               a.multiply_rational(f)]
    if not a.is_zero_to_precision():
        results.append(a.inverse())
    assert all(stored_as_scale_times_primitive_ints(s) for s in results)
    if not a.is_zero_to_precision():
        assert (a * c).poly.ints is a.poly.ints


@PROPERTY
@given(rational_functions, rationals)
def test_rational_function_mixes_with_rational_constants(f, r):
    fn, fd = rf_oracle(f)
    c = rational(r)
    assert same(f + r, (fn + c * fd, fd)) and same(r + f, (fn + c * fd, fd))
    assert same(f * r, (c * fn, fd)) and same(r * f, (c * fn, fd))
    if r:
        assert same(f / r, (fn, c * fd))
    if not f.is_zero():
        assert same(RationalFunction(r) / f, (c * fd, fn))


def coefficient(s: FormalSeries, k: int):
    """The coefficient of x^k, which must lie below the precision; one that
    is not stored reads as 0."""
    assert k < s.prec
    n = k - s.expo
    return s.coeffs[n] if 0 <= n < len(s.coeffs) else Fraction(0)


def laurent(s: FormalSeries):
    return sum((rational(c) * x ** (s.expo + n) for n, c in enumerate(s.coeffs)),
               sympy.Integer(0))


@PROPERTY
@given(series(), series())
def test_formal_series_sum_and_product_follow_the_precision_rules(a, b):
    total, product = a + b, a * b
    assert total.prec == min(a.prec, b.prec)
    assert product.prec == min(a.prec + b.valuation(), b.prec + a.valuation())
    exact_sum = sympy.expand(laurent(a) + laurent(b))
    exact_product = sympy.expand(laurent(a) * laurent(b))
    for k in range(min(a.expo, b.expo) - 1, total.prec):
        assert coefficient(total, k) == exact_sum.coeff(x, k)
    for k in range(a.expo + b.expo - 1, product.prec):
        assert coefficient(product, k) == exact_product.coeff(x, k)
    # no coefficient is stored at or past the precision
    assert product.expo + len(product.poly.ints) <= product.prec


@PROPERTY
@given(series().filter(lambda s: not s.is_zero_to_precision()))
def test_formal_series_inverse_over_fractions(s):
    v = s.valuation()
    inv = s.inverse()
    assert inv.expo == inv.valuation() == -v
    one = s * inv
    assert one.prec == s.prec - v
    assert [coefficient(one, k) for k in range(one.prec)] == [1] + [0] * (one.prec - 1)


def test_formal_series_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FormalSeries(1, [Fraction(0), Fraction(0)]).inverse()


@st.composite
def unimodular_matrices(draw):
    """Products of random elementary integer matrices (det +-1)."""
    size = draw(st.integers(min_value=2, max_value=5))
    m = [list(row) for row in mat_identity(size)]
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        if i == j:
            m[i] = [-v for v in m[i]]
        else:
            k = draw(st.integers(-3, 3))
            m[i] = [u + k * v for u, v in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


def _gauss_jordan_inverse(g):
    """The pivots of [g | I] reduced by gauss_jordan, and its right block."""
    n = len(g)
    aug = [list(g[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    return gauss_jordan(aug, n), [row[n:] for row in aug]


@PROPERTY
@given(unimodular_matrices())
def test_gauss_jordan_inverts_unimodular_matrices(g):
    pivots, inv = _gauss_jordan_inverse(g)
    assert pivots == list(range(len(g)))
    assert inv == sympy.Matrix(g).inv().tolist()
    assert all(x.denominator == 1 for row in inv for x in row)
    assert mat_mul(g, tuple(tuple(int(x) for x in row) for row in inv)) == mat_identity(len(g))


def test_gauss_jordan_ranks_singular_and_non_unimodular_matrices():
    pivots, _ = _gauss_jordan_inverse(((1, 2), (2, 4)))
    assert pivots == [0]
    pivots, inv = _gauss_jordan_inverse(((2, 0), (0, 1)))
    assert pivots == [0, 1]
    assert inv == [[Fraction(1, 2), 0], [0, 1]]


def _toy_system(monkeypatch, e1, e2):
    """Replace the cleared system by u_XX = e1 and u_YY = e2, each given as
    {jet: coefficient polynomial in (X, Y)}."""
    lead = SparsePoly.const(("X", "Y"), -1)
    equations = tuple(((lead, jet),) + tuple((c, j) for j, c in rhs.items())
                      for jet, rhs in (((2, 0), e1), ((0, 2), e2)))
    monkeypatch.setattr(pde, "_cleared_equations", lambda: equations)


def test_level_system_underdetermined_raises(monkeypatch):
    # L1 M1 = 1 makes the third-order level system singular (its mixed
    # 2x2 block has determinant 1 - L1 M1), with a consistent right side
    one = SparsePoly.const(("X", "Y"), 1)
    _toy_system(monkeypatch, {(1, 1): one}, {(1, 1): one})
    with pytest.raises(InconsistentReduction, match="underdetermined"):
        taylor_basis((0, 0), 6)


def test_level_system_inconsistent_raises(monkeypatch):
    # u_XX = Y u and u_YY = 0 give u_XXYY = 2 u_Y = 0 at fourth order
    _toy_system(monkeypatch, {(0, 0): SparsePoly.variable(("X", "Y"), "Y")}, {})
    with pytest.raises(InconsistentReduction, match="inconsistent"):
        taylor_basis((0, 0), 6)
