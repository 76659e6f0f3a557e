"""Property tests for the exact primitives in `polynomials`: the dense
univariate kernel and the one-variable rational functions against sympy, the
truncated-series pair and `FormalSeries` over Fractions and over rational
functions of X, and Gauss-Jordan through both of its callers."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_k3 import pde
from hilbert_k3.lattice import mat_identity, mat_inverse_int, mat_mul
from hilbert_k3.pde import InconsistentReduction, taylor_solutions
from hilbert_k3.polynomials import (FormalSeries, RationalFunction, SparsePoly, UniPoly,
                                    series_divide, series_inverse, series_mul)

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
# smaller ones, as the coefficients of FormalSeries
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
    q, r = a.divmod(b)
    sq, sr = sympy.div(oracle(a), oracle(b))
    assert (oracle(q), oracle(r)) == (sq, sr)
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
    """a / (b c) stored as one factor and as the two factors b and c: the
    results of further arithmetic keep different factors, yet compare equal
    exactly when sympy says the functions are equal."""
    k = h if reuse else k
    p = (RationalFunction(a, b * c) + h) * h
    q = (RationalFunction(a, b) / c + k) * k
    assert (p == q) == (sympy.cancel(rf_expr(p) - rf_expr(q)) == 0)
    assert (p == q) == (p.reduced() == q.reduced())
    if k:
        assert (p * k) / k == p


@PROPERTY
@given(rational_functions, rational_functions)
def test_rational_function_arithmetic_matches_sympy(f, g):
    (fn, fd), (gn, gd) = rf_oracle(f), rf_oracle(g)
    assert same(f + g, (fn * gd + gn * fd, fd * gd))
    assert same(f - g, (fn * gd - gn * fd, fd * gd))
    assert same(f * g, (fn * gn, fd * gd))
    assert same(f.derivative(), (fn.diff(x) * fd - fn * fd.diff(x), fd * fd))
    if g.is_zero():
        with pytest.raises(ZeroDivisionError):
            f / g
    else:
        assert same(f / g, (fn * gd, fd * gn))


@PROPERTY
@given(units, st.integers(min_value=0, max_value=9))
def test_series_inverse_over_fractions(a, n):
    assert series_mul(a, series_inverse(a, n), n) == [1, *[0] * n][:n]


@PROPERTY
@given(st.lists(polys, min_size=1, max_size=4), nonzero_polys,
       st.integers(min_value=1, max_value=5))
def test_series_inverse_over_rational_functions(nums, den, n):
    if not nums[0]:
        nums[0] = UniPoly([1])
    a = [RationalFunction(num, den) for num in nums]
    product = series_mul(a, series_inverse(a, n), n)
    assert product == [1] + [0] * (n - 1)


@PROPERTY
@given(st.lists(rationals, max_size=7), units, st.integers(min_value=1, max_value=9))
def test_series_divide_over_fractions_matches_sympy(a, b, n):
    """a / b to n terms is a times the inverse of b modulo x^n."""
    inverse = sympy.invert(oracle(UniPoly(b)), sympy.Poly(x ** n, x, domain="QQ"))
    expected = (oracle(UniPoly(a)) * inverse).rem(sympy.Poly(x ** n, x, domain="QQ"))
    coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
    assert series_divide(a, b, n) == (coeffs + [0] * n)[:n]


@PROPERTY
@given(st.lists(small_rational_functions, max_size=4),
       st.lists(small_rational_functions, min_size=1, max_size=4).filter(lambda b: b[0]),
       st.integers(min_value=0, max_value=5))
def test_series_divide_over_rational_functions(a, b, n):
    q = series_divide(a, b, n)
    assert len(q) == n
    assert series_mul(q, b, n) == (a + [RationalFunction(0)] * n)[:n]


def test_series_divide_edge_cases():
    assert series_divide([Fraction(1)], [Fraction(2)], 0) == []
    with pytest.raises(ZeroDivisionError):
        series_divide([Fraction(1)], [Fraction(0), Fraction(1)], 3)
    with pytest.raises(ZeroDivisionError):
        series_divide([Fraction(1)], [], 3)


@st.composite
def series(draw, coefficients):
    """x^expo (c_0 + c_1 x + ...) known to x^prec, with prec at or past the
    last stored coefficient."""
    coeffs = draw(st.lists(coefficients, max_size=5))
    expo = draw(st.integers(min_value=-3, max_value=3))
    return FormalSeries("x", expo, coeffs, expo + len(coeffs) + draw(st.integers(0, 2)))


@PROPERTY
@given(rational_functions, rationals)
def test_rational_function_mixes_with_rational_constants(f, r):
    fn, fd = rf_oracle(f)
    c = rational(r)
    assert same(f + r, (fn + c * fd, fd)) and same(r + f, (fn + c * fd, fd))
    assert same(f - r, (fn - c * fd, fd))
    assert same(r - f, (c * fd - fn, fd))
    assert same(f * r, (c * fn, fd)) and same(r * f, (c * fn, fd))
    if r:
        assert same(f / r, (fn, c * fd))
    if f:
        assert same(r / f, (c * fd, fn))


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
@given(series(rationals), series(rationals))
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
    assert product.expo + len(product.coeffs) <= product.prec


@PROPERTY
@given(series(rationals).filter(lambda s: not s.is_zero_to_precision()))
def test_formal_series_inverse_over_fractions(s):
    v = s.valuation()
    inv = s.inverse()
    assert inv.expo == inv.valuation() == -v
    one = s * inv
    assert one.prec == s.prec - v
    assert [coefficient(one, k) for k in range(one.prec)] == [1] + [0] * (one.prec - 1)


@PROPERTY
@given(series(small_rational_functions), series(small_rational_functions))
def test_formal_series_sum_and_product_over_rational_functions(a, b):
    def coeff(s, k):
        c = coefficient(s, k)
        return c if c else RationalFunction(0)

    total, product = a + b, a * b
    assert total.prec == min(a.prec, b.prec)
    assert product.prec == min(a.prec + b.valuation(), b.prec + a.valuation())
    for k in range(min(a.expo, b.expo), total.prec):
        assert coeff(total, k) == coeff(a, k) + coeff(b, k)
    for k in range(a.expo + b.expo, product.prec):
        # a term past either precision multiplies a coefficient below the
        # other's valuation, which is known to be zero
        expected = RationalFunction(0)
        for i in range(max(a.expo, k - b.prec + 1), min(a.prec, k - b.expo + 1)):
            expected = expected + coeff(a, i) * coeff(b, k - i)
        assert coeff(product, k) == expected


@PROPERTY
@given(series(small_rational_functions).filter(lambda s: not s.is_zero_to_precision()))
def test_formal_series_inverse_over_rational_functions(s):
    v = s.valuation()
    inv = s.inverse()
    assert inv.expo == inv.valuation() == -v
    one = s * inv
    assert one.prec == s.prec - v
    assert [coefficient(one, k) for k in range(one.prec)] == [1] + [0] * (one.prec - 1)


def test_formal_series_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        FormalSeries("x", 1, [Fraction(0), Fraction(0)]).inverse()


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


@PROPERTY
@given(unimodular_matrices())
def test_gauss_jordan_inverts_unimodular_matrices(g):
    inv = mat_inverse_int(g)
    assert [list(row) for row in inv] == sympy.Matrix(g).inv().tolist()
    assert mat_mul(g, inv) == mat_identity(len(g))


def test_mat_inverse_int_rejects_singular_and_non_unimodular():
    with pytest.raises(ValueError):
        mat_inverse_int(((1, 2), (2, 4)))
    with pytest.raises(ValueError):
        mat_inverse_int(((2, 0), (0, 1)))


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
        taylor_solutions((0, 0), [(1, 1, 1, 1)], 6)


def test_level_system_inconsistent_raises(monkeypatch):
    # u_XX = Y u and u_YY = 0 give u_XXYY = 2 u_Y = 0 at fourth order
    _toy_system(monkeypatch, {(0, 0): SparsePoly.variable(("X", "Y"), "Y")}, {})
    with pytest.raises(InconsistentReduction, match="inconsistent"):
        taylor_solutions((0, 0), [(1, 1, 1, 1)], 6)
