import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_k3.klein import build_invariants
from hilbert_k3.polynomials import FIELD, RationalFunction, SparsePoly, UniPoly

V = ("z0", "z1", "z2")
T = UniPoly([0, 1])


def _vars():
    return (SparsePoly.variable(V, "z0"), SparsePoly.variable(V, "z1"),
            SparsePoly.variable(V, "z2"))


def test_multiply_by_zero():
    z0, z1, z2 = _vars()
    p = z0 ** 2 + z1 * z2
    assert (p * SparsePoly.zero(V)).is_zero()
    assert (p * 0).is_zero()


def test_binomial_square():
    z0, z1, z2 = _vars()
    p = (z0 ** 2 + z1 * z2) ** 2
    expected = z0 ** 4 + 2 * z0 ** 2 * z1 * z2 + z1 ** 2 * z2 ** 2
    assert p == expected


def _naive_product_terms(a: SparsePoly, b: SparsePoly) -> dict:
    # independent expansion oracle: plain double loop over stored terms
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return {k: v for k, v in out.items() if v != 0}


def test_B_squared_term_count_regression():
    inv = build_invariants()
    oracle = _naive_product_terms(inv.B, inv.B)
    direct = inv.B * inv.B
    assert direct.terms == oracle
    # frozen fixture from the oracle expansion
    assert direct.term_count() == 13
    assert max(sum(e) for e in direct.terms) == 12


def _random_poly(rng, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        expo = tuple(rng.randint(0, max_deg) for _ in V)
        terms[expo] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return SparsePoly(V, terms)


def test_ring_axioms_randomized():
    rng = random.Random(5)
    for _ in range(25):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_gcd_primitive_normalization():
    t = T
    a = 6 * (t + 1) * Fraction(1, 5)
    b = -4 * (t + 1)
    g = a.gcd(b)
    assert g == t + 1


def test_squarefree_decomposition():
    t = T
    f = (t - 1) ** 2 * (t + 2) * t ** 3
    parts = f.squarefree()
    got = {m: p.format("t") for p, m in parts}
    assert got == {1: "t + 2", 2: "t - 1", 3: "t"}
    rebuilt = UniPoly([1])
    for p, m in parts:
        rebuilt = rebuilt * p ** m
    assert rebuilt == f.primitive()


def test_rational_function_reduction_and_sign():
    t = T
    r = RationalFunction(t ** 2 - 1, t + 1)
    assert r.reduced() == (t - 1, UniPoly([1]))
    # canonical sign: denominator leading coefficient positive
    r2 = RationalFunction(t, -2 * (t + 1))
    assert r2.reduced()[1].coefficients()[-1] > 0
    assert r2 == RationalFunction(-t, 2 * (t + 1))


def test_rational_function_arithmetic():
    t = T
    a = RationalFunction(t, t + 1)
    b = RationalFunction(t + 1, t)
    s = a + b
    assert s == RationalFunction(t * t + (t + 1) * (t + 1), t * (t + 1))
    assert (a * b) == RationalFunction(1)
    assert (a / a) == RationalFunction(1)
    d = a.derivative()
    assert d == RationalFunction(UniPoly([1]), (t + 1) ** 2)


def test_shift_and_compose():
    t = T
    p = t ** 3 - 2 * t + 1
    q = p.affine(1, 1)
    # q(t) = p(t + 1)
    for x in (Fraction(0), Fraction(2), Fraction(-3, 2)):
        assert q(x) == p(x + 1)


rationals = st.fractions(min_value=-40, max_value=40, max_denominator=9)
two_variable_polys = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)),
    rationals, max_size=8).map(lambda terms: SparsePoly(("X", "Y"), terms))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(two_variable_polys, st.sampled_from(["X", "Y"]), rationals, rationals)
def test_rows_sum_back_to_the_polynomial(p, outer, x, y):
    rows = p.rows(outer)
    inner, at = (x, y) if outer == "Y" else (y, x)
    total = sum((r(inner) * at ** j for j, r in enumerate(rows)), Fraction(0))
    assert total == p.evaluate({"X": x, "Y": y})
    # no trailing zero row: the last one holds the top power of `outer`
    assert bool(rows) == (not p.is_zero()) and (not rows or rows[-1])


integer_two_variable_polys = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
    st.integers(min_value=-30, max_value=30), max_size=8).map(
        lambda terms: SparsePoly(("X", "Y"), terms))


def _lex_leading(p: SparsePoly):
    """The leading exponent in lex order, Y before X."""
    return max(p.terms, key=lambda e: e[::-1])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(two_variable_polys, two_variable_polys.filter(bool))
def test_divmod_exact_contract(p, d):
    """p == q d + r, and the leading term of d does not divide r's (lex,
    Y before X); so r is zero when d divides p."""
    q, r = p.divmod_exact(d)
    assert q * d + r == p
    if r:
        assert any(a < b for a, b in zip(_lex_leading(r), _lex_leading(d)))
    assert (p * d).divmod_exact(d) == (p, SparsePoly.zero(("X", "Y")))


# Klein's three variables and the five of the lattice's symbolic proof
MANY_VARIABLES = (V, ("z1", "z2", "w1", "w2", "s"))


def _polys_in(variables):
    return st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * len(variables)),
                           rationals, max_size=6).map(lambda terms: SparsePoly(variables, terms))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(MANY_VARIABLES).flatmap(
    lambda v: st.tuples(_polys_in(v), _polys_in(v).filter(bool))))
def test_packed_products_and_division_beyond_two_variables(pair):
    """The packed product is the term-by-term expansion, and the division
    contract holds as in two variables (lex, the last variable first)."""
    p, d = pair
    assert (p * d).terms == _naive_product_terms(p, d)
    q, r = p.divmod_exact(d)
    assert q * d + r == p
    if r:
        assert any(a < b for a, b in zip(_lex_leading(r), _lex_leading(d)))
    assert (p * d).divmod_exact(d) == (p, SparsePoly.zero(p.vars))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(MANY_VARIABLES).flatmap(lambda v: st.tuples(
    st.just(v), _polys_in(v).filter(bool), st.integers(0, len(v) - 1), st.integers(0, 3),
    st.integers(0, 6))))
def test_divide_power_is_repeated_division_by_a_variable(case):
    """divide_power(i, limit) on p x^k, x the i-th variable, gives what
    dividing by x as often as it divides, at most limit times, gives."""
    variables, p, i, k, limit = case
    x = SparsePoly.variable(variables, variables[i])
    p = p * x ** k
    q, e = p, 0
    while e < limit and not (qr := q.divmod_exact(x))[1]:
        q, e = qr[0], e + 1
    assert p.divide_power(i, limit) == (q, e)


@pytest.mark.parametrize("variables", [("X", "Y")] + list(MANY_VARIABLES))
def test_an_exponent_past_its_field_raises_and_never_wraps(variables):
    """An exponent of 2^(FIELD - 1) in the constructor, and a product or a
    division step whose exponents sum past a field, each raise OverflowError
    in every variable, instead of carrying into the next one."""
    top = 1 << (FIELD - 1)
    n = len(variables)
    for i in range(n):
        def power(e, j=i):
            return SparsePoly(variables, {tuple(e if k == j else 0 for k in range(n)): 1})

        with pytest.raises(OverflowError):
            power(top)
        assert power(top // 2) * power(top // 2 - 1) == power(top - 1)
        with pytest.raises(OverflowError):
            power(top // 2) * power(top // 2)
        with pytest.raises(OverflowError):
            power(top - 1) * power(1)
    # lead Y of Y + X^(top - 1) divides X Y, and the step adds X^top to the
    # remainder
    X, Y = (SparsePoly.variable(("X", "Y"), v) for v in ("X", "Y"))
    with pytest.raises(OverflowError):
        (X * Y).divmod_exact(Y + X ** (top - 1))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(integer_two_variable_polys, integer_two_variable_polys,
       integer_two_variable_polys, st.sampled_from([1, -1]))
def test_division_by_a_unit_lead_keeps_integers(p, low, extra, sign):
    """A divisor that leads with +-1 in lex order gives int quotient and
    remainder coefficients for an integer dividend."""
    Y = SparsePoly.variable(("X", "Y"), "Y")
    d = sign * Y ** 5 + low
    for dividend in (p * d, p * d + extra):
        q, r = dividend.divmod_exact(d)
        assert all(type(c) is int for c in q.terms.values())
        assert all(type(c) is int for c in r.terms.values())
    assert (p * d).divmod_exact(d)[0] == p


@settings(derandomize=True, deadline=None, max_examples=60)
@given(two_variable_polys, two_variable_polys)
def test_integral_coefficients_are_stored_as_int(a, b):
    def stored_right(p: SparsePoly) -> bool:
        return all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.terms.values())

    results = [a + b, a - b, -a, a * b, a * 6, a * Fraction(1, 2), a.derivative("X"),
               a.derivative("Y"), SparsePoly(("X", "Y"), {(1, 0): Fraction(4, 2)})]
    if b:
        results += a.divmod_exact(b)
    assert all(stored_right(p) for p in results + [a, b])


def test_rows_needs_exactly_two_variables():
    z0, z1, z2 = _vars()
    with pytest.raises(ValueError):
        (z0 * z1 + z2).rows("z0")
    with pytest.raises(ValueError):
        SparsePoly.variable(("X",), "X").rows("X")
    assert SparsePoly.zero(("X", "Y")).rows("Y") == []


def test_valuation_and_divide_power():
    t = T
    f = t ** 3 * (t - 1)
    assert f.valuation() == 3
    assert f.divide_exact(t ** 3) == t - 1
    with pytest.raises(ValueError):
        f.divide_exact(t ** 4)
