import ast
import dataclasses
import functools
import hashlib
import json
import math
import operator
import random
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbert_k3 import cli, moduli, pde
from hilbert_k3.moduli import K2_LOCUS, RankDeficient
from hilbert_k3.numkernel import PrecisionPolicy, to_mpf, working_precision
from hilbert_k3.pde import (SINGULAR_BASE, EliminationFailed, InconsistentReduction, Quotient,
                            SingularBasePoint, _BaseFraction,
                            _cleared_equations, _eigenvalue_signs, _jet_reducer, _shifted, _truncated_product,
                            build_pde, developing_map_match, eliminate_to_restricted_ode,
                            estimate_singular_distance, quadric_from_grids,
                            quadric_image_test, taylor_basis,
                            taylor_solutions, verify_mixed_jet_compatibility,
                            verify_pde_restriction)
from hilbert_k3.periods import restricted_ode_X, restricted_operators
from hilbert_k3.polynomials import SparsePoly

V = ("X", "Y")
BASE = (Fraction(1, 10), Fraction(1, 10))


def _stored_in_lowest_terms(c) -> bool:
    """The stored numerator and denominator are coprime, so the denominator
    has the reduced degree, and its factors are square-free and pairwise
    coprime."""
    fs = list(c.factors)
    return (c.num.gcd(c.den).degree() == 0
            and all(f.gcd(f.derivative()).degree() == 0 for f in fs)
            and all(f.gcd(g).degree() == 0 for i, f in enumerate(fs) for g in fs[i + 1:]))


def _is_normal(f: _BaseFraction) -> bool:
    """The numerator is a primitive integer polynomial that no base factor of
    the denominator divides; zero has scale 0 and no denominator."""
    coeffs = list(f.num.terms.values())
    if not coeffs:
        return f.scale == 0 and f.den == (0, 0, 0, 0)
    return (all(type(c) is int for c in coeffs) and math.gcd(*coeffs) == 1
            and all(f.num.divmod_exact(g)[1] for g, e in zip(SINGULAR_BASE, f.den) if e))


def test_stored_denominators_have_the_reduced_degrees():
    """Every reduced jet is stored in lowest terms over the singular base, and
    so is every coefficient of the eliminated equation: stored factors that
    share roots would multiply up, as the eliminated equation once stored
    denominators of degree 9 against a reduced 3 or 4."""
    eliminated = eliminate_to_restricted_ode()
    table = _jet_reducer().table
    assert (4, 0) in table
    entries = [c for vec in table.values() for c in vec if c]
    assert len(entries) > 25
    assert all(_is_normal(c) for c in entries)
    ode = restricted_operators()
    coefficients = list(eliminated.coeffs) + list(ode.W1.compose(ode.W3).coeffs)
    assert all(_stored_in_lowest_terms(c) for c in coefficients)


def test_coefficients_exact_transcription():
    pde = build_pde()
    X = SparsePoly.variable(V, "X")
    Y = SparsePoly.variable(V, "Y")
    S = 36 * X ** 2 - 32 * X - Y
    # L1 * S = -20 (4 X^2 + 3 X Y - 4 Y) and Q1 = -2 (9 X - 10) / (25 X Y S),
    # by cross-multiplication
    assert pde.L1.num * S == -20 * (4 * X ** 2 + 3 * X * Y - 4 * Y) * pde.L1.den
    assert pde.Q1.num * (25 * X * Y * S) == -2 * (9 * X - 10) * pde.Q1.den
    # every denominator vanishes on the common singular locus
    for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1"):
        den = getattr(pde, name).den
        _, rem = den.divmod_exact(S)
        assert rem.is_zero(), name



def _to_sympy(p, x, y):
    """p(x, y) as a sympy expression."""
    import sympy
    return sum((sympy.Rational(c.numerator, c.denominator) * x ** e[0] * y ** e[1]
                for e, c in p.terms.items()), sympy.Integer(0))


def test_coefficients_in_lowest_terms():
    import sympy
    xs, ys = sympy.symbols("X Y")
    pde = build_pde()
    for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1"):
        q = getattr(pde, name)
        assert sympy.gcd(_to_sympy(q.num, xs, ys), _to_sympy(q.den, xs, ys)).is_number, name


def test_cleared_coefficients_clear_every_denominator():
    """Each cleared coefficient times its denominator is its numerator times
    the multiplier of its equation, X^2 Y S for E1 and 25 X Y^2 S for E2."""
    pde = build_pde()
    X = SparsePoly.variable(V, "X")
    Y = SparsePoly.variable(V, "Y")
    S = 36 * X ** 2 - 32 * X - Y
    e1, e2 = _cleared_equations()
    for eq, multiplier, lead, names in ((e1, X ** 2 * Y * S, (2, 0), ("L1", "A1", "B1", "P1")),
                                        (e2, 25 * X * Y ** 2 * S, (0, 2), ("M1", "C1", "D1", "Q1"))):
        assert eq[0] == (-multiplier, lead)
        assert [jet for _, jet in eq[1:]] == [(1, 1), (1, 0), (0, 1), (0, 0)]
        for name, (c, _) in zip(names, eq[1:]):
            q = getattr(pde, name)
            assert c * q.den == q.num * multiplier, name


@pytest.mark.parametrize("base", [BASE, (Fraction(3, 17), Fraction(5, 23))])
def test_shifted_matches_sympy_expansion(base):
    """The Taylor triangle of p at the base is the expansion of
    p(x0 + dX, y0 + dY) in sympy, for the quintic locus and every cleared
    coefficient."""
    import sympy
    dx, dy = sympy.symbols("dX dY")
    x0, y0 = (sympy.Rational(c.numerator, c.denominator) for c in base)
    polys = [K2_LOCUS] + [c for eq in _cleared_equations() for c, _ in eq]
    for p in polys:
        expanded = sympy.Poly(_to_sympy(p, x0 + dx, y0 + dy), dx, dy).as_dict()
        expected = {e: Fraction(int(c.p), int(c.q)) for e, c in expanded.items() if c}
        assert _shifted(p, base) == expected, p


def test_elimination_matches_restricted_equation():
    eliminated = eliminate_to_restricted_ode()
    assert eliminated == restricted_ode_X().monic()
    assert eliminated.coeffs[0].is_zero()


def test_eliminated_equation_transports_to_W4():
    from hilbert_k3.periods import restricted_operators
    transported = eliminate_to_restricted_ode().rescale_variable(
        Fraction(25, 27)).monic().rename_variable("t")
    assert transported == restricted_operators().W4


def test_pde_restriction_report():
    rep = verify_pde_restriction()
    assert rep["matches_restricted_ode"]
    assert rep["no_zeroth_order_term"]
    assert rep["order"] == 4


def test_mixed_jet_compatibility():
    """Both routes to u_XXYY give the same four coefficients in Q(X, Y): each
    of the four free-jet components is compared as an identity."""
    rep = verify_mixed_jet_compatibility()
    assert rep["consistent"]
    assert rep["compared_orders"] == 4


def _bf_expr(f: _BaseFraction, xs, ys):
    """f as a sympy expression."""
    import sympy
    den = sympy.Integer(1)
    for g, e in zip(SINGULAR_BASE, f.den):
        den *= _to_sympy(g, xs, ys) ** e
    return sympy.Rational(f.scale.numerator, f.scale.denominator) * _to_sympy(f.num, xs, ys) / den


def _monomial(powers) -> SparsePoly:
    return functools.reduce(operator.mul, (g ** e for g, e in zip(SINGULAR_BASE, powers)))


def _base_fraction(num: SparsePoly, powers, scale: Fraction) -> _BaseFraction:
    """scale num / prod f_i^powers[i], through the public operations."""
    return _BaseFraction.of(scale, num) * _BaseFraction.of(1, _monomial(powers)).inverse()


base_fractions = st.builds(
    _base_fraction,
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-6, 6),
                    max_size=4).map(lambda terms: SparsePoly(V, terms)),
    st.tuples(*[st.integers(0, 2)] * 4),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool))


@settings(derandomize=True, deadline=None, max_examples=15)
@given(base_fractions, base_fractions)
def test_base_fraction_arithmetic_matches_sympy(a, b):
    """+, -, x and both partial derivatives agree with sympy's cancel, and
    every result is stored in lowest terms."""
    import sympy
    xs, ys = sympy.symbols("X Y")
    ea, eb = _bf_expr(a, xs, ys), _bf_expr(b, xs, ys)
    assert _is_normal(a) and _is_normal(b)
    for got, want in ((a + b, ea + eb), (a - b, ea - eb), (a * b, ea * eb), (a - a, 0),
                      (a.derivative("X"), sympy.diff(ea, xs)),
                      (a.derivative("Y"), sympy.diff(ea, ys))):
        assert sympy.cancel(_bf_expr(got, xs, ys) - want) == 0
        assert _is_normal(got)


def test_derivative_cancels_a_factor_free_of_its_variable():
    """d/dY of (1 + X Y) / X is 1: the derivative keeps the exponent of X,
    which does not depend on Y, and X then divides the new numerator."""
    X, Y = SINGULAR_BASE[:2]
    f = _BaseFraction.of(1, 1 + X * Y) * _BaseFraction.of(1, X).inverse()
    d = f.derivative("Y")
    assert (d.scale, d.num, d.den) == (1, SparsePoly.const(V, 1), (0, 0, 0, 0))


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
       st.tuples(*[st.integers(0, 3)] * 4))
def test_base_fraction_inverse_of_a_base_monomial(c, powers):
    import sympy
    xs, ys = sympy.symbols("X Y")
    mono = _BaseFraction.of(c, _monomial(powers))
    inv = mono.inverse()
    assert inv.den == powers and set(inv.num.terms) == {(0, 0)}
    assert sympy.cancel(_bf_expr(inv, xs, ys) * _bf_expr(mono, xs, ys)) == 1
    assert _is_normal(inv)


@pytest.fixture
def patched_system(monkeypatch):
    """Installs a replacement for build_pde, with the cached system and
    reducer cleared before and after."""
    build_pde.cache_clear()
    _jet_reducer.cache_clear()

    def install(system):
        monkeypatch.setattr(pde, "build_pde", lambda: system)
    yield install
    build_pde.cache_clear()
    _jet_reducer.cache_clear()


def test_mixed_jet_check_fails_on_a_perturbed_system(patched_system):
    """P1 + 1 keeps every denominator in the singular base but breaks
    integrability, and the exact check sees it.  (L1 + 1 would also move
    1 - L1 M1 out of the base, so the elimination would raise instead.)"""
    system = build_pde()
    p1 = system.P1
    patched_system(dataclasses.replace(system, P1=Quotient(p1.num + p1.den, p1.den)))
    assert verify_mixed_jet_compatibility()["consistent"] is False


def test_denominator_outside_the_base_is_a_fail_row(patched_system, capsys):
    system = build_pde()
    q1 = system.Q1
    X = SparsePoly.variable(V, "X")
    patched_system(dataclasses.replace(system, Q1=Quotient(q1.num, q1.den * (X + 1))))
    with pytest.raises(EliminationFailed, match=r"lies outside the singular base") as err:
        verify_mixed_jet_compatibility()
    # the message names the factor by its terms, {exponents: coefficient}
    named = re.search(r"the factor (\{.*\}) lies", str(err.value)).group(1)
    assert ast.literal_eval(named) == (X + 1).terms
    _jet_reducer.cache_clear()
    assert cli.main(["verify", "pde-restriction"]) == 1
    rows = json.loads(capsys.readouterr().out)["checks"]
    assert [(r["name"], r["status"]) for r in rows] == [("error", "fail")]
    assert rows[0]["residual"] == f"EliminationFailed: {err.value}"


def _residual_series(grid, base, order):
    """Independent substitute-back oracle in sympy: both equations of the
    system with the grid's polynomial u, each residual over a common
    denominator, whose numerator is expanded at the base; the denominator
    does not vanish there, so the residual vanishes to total order
    order - 2 when the numerator does.  Returns the two numerators'
    coefficients {(i, j): c} in dX, dY and the cut order - 2."""
    import sympy
    X, Y, dx, dy = sympy.symbols("X Y dX dY")
    x0, y0 = (sympy.Rational(c.numerator, c.denominator) for c in base)
    pde = build_pde()
    coeff = {name: _to_sympy(getattr(pde, name).num, X, Y) / _to_sympy(getattr(pde, name).den, X, Y)
             for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1")}
    u = sum(sympy.Rational(c.numerator, c.denominator) * (X - x0) ** i * (Y - y0) ** j
            for (i, j), c in grid.items())
    ux, uy, uxy = sympy.diff(u, X), sympy.diff(u, Y), sympy.diff(u, X, Y)

    def numerator(lhs, lead, cA, cB, cP):
        residual = lhs - (coeff[lead] * uxy + coeff[cA] * ux + coeff[cB] * uy + coeff[cP] * u)
        num, den = sympy.fraction(sympy.together(residual))
        assert den.subs({X: x0, Y: y0}) != 0
        shifted = sympy.Poly(num.subs({X: x0 + dx, Y: y0 + dy}), dx, dy)
        return {e: Fraction(int(c.p), int(c.q)) for e, c in shifted.as_dict().items()}

    e1 = numerator(sympy.diff(u, X, 2), "L1", "A1", "B1", "P1")
    e2 = numerator(sympy.diff(u, Y, 2), "M1", "C1", "D1", "Q1")
    return e1, e2, order - 2


def test_taylor_solution_substitute_back():
    grid = taylor_solutions(BASE, [(1, 0, 0, 0)], 8)[0]
    e1, e2, cut = _residual_series(grid, BASE, 8)
    for res in (e1, e2):
        assert any(i + j > cut for i, j in res)
        for (i, j), c in res.items():
            if i + j <= cut:
                assert c == 0, ((i, j), c)


def test_taylor_solution_linearity():
    a = taylor_solutions(BASE, [(1, 2, 3, 4)], 6)[0]
    b = taylor_solutions(BASE, [(5, -1, 2, 0)], 6)[0]
    ab = taylor_solutions(BASE, [(6, 1, 5, 4)], 6)[0]
    assert all(ab[k] == a[k] + b[k] for k in ab)


def test_basis_jet_matrix_full_rank():
    basis = taylor_basis(BASE, 4)
    jets = [(0, 0), (1, 0), (0, 1), (1, 1)]
    matrix = [[g.get(j, Fraction(0)) for j in jets] for g in basis.grids]
    assert matrix == [[1 if r == c else 0 for c in range(4)] for r in range(4)]


def test_integrability_at_random_bases():
    rng = random.Random(61)
    checked = 0
    while checked < 5:
        base = (Fraction(rng.randint(1, 9), rng.randint(10, 20)),
                Fraction(rng.randint(1, 9), rng.randint(10, 20)))
        try:
            taylor_solutions(base, [(1, 1, 1, 1)], 8)
        except InconsistentReduction:
            pytest.fail(f"integrability violated at {base}")
        checked += 1


def test_quadric_image_fit():
    fit = quadric_image_test(BASE, order=10)
    assert fit.rank == 4
    assert fit.holdout_residual == 0
    assert sorted(fit.eigenvalue_signs) == [-1, -1, 1, 1]
    assert all(isinstance(x, Fraction) for row in fit.matrix for x in row)


def test_quadric_negative_control():
    grids = list(taylor_basis(BASE, 10).grids)
    grids[3] = _truncated_product(grids[3], grids[3], 10)
    with pytest.raises(RankDeficient):
        quadric_from_grids(grids, 10)


@pytest.mark.parametrize("diagonal, signs", [
    ((3, Fraction(1, 2), 7, -2), (-1, 1, 1, 1)),
    ((-5, 0, Fraction(2, 3), -1), (-1, -1, 0, 1)),
    ((1, -1, -1, 1), (-1, -1, 1, 1)),
])
def test_eigenvalue_signs_of_diagonal_matrices(diagonal, signs):
    """Inertia (3, 1), rank 3 and (2, 2); conjugating by an integer matrix of
    determinant 1 keeps the inertia and fills every entry."""
    p = [[1, 2, 0, 1], [0, 1, 3, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
    d = [[Fraction(diagonal[i]) if i == j else Fraction(0) for j in range(4)] for i in range(4)]
    m = [[sum(p[k][i] * d[k][l] * p[l][j] for k in range(4) for l in range(4))
          for j in range(4)] for i in range(4)]
    assert _eigenvalue_signs(d) == signs
    assert _eigenvalue_signs(m) == signs


def test_taylor_basis_is_cached_and_read_only():
    basis = taylor_basis(BASE, 4)
    assert taylor_basis(BASE, 4) is basis
    with pytest.raises(TypeError):
        basis.grids[0][(0, 0)] = Fraction(2)


def test_developing_map_pipeline(policy):
    rep = developing_map_match(BASE, samples=14, policy=policy, order=10)
    assert rep["holdout_residual"] < 1e-5
    assert rep["samples"] == 14


def test_developing_map_rejects_diagonal_base(policy):
    with pytest.raises(SingularBasePoint):
        developing_map_match((Fraction(1, 10), Fraction(0)), policy=policy)


# the anchor over BASE that the 10-step continuation reached when its
# intermediate steps stopped at half the working digits, at 256 bits
TEN_STEP_ANCHOR = (
    ("0.30901699437494742410229341718281905886015458990288143106772431135263023140945122",
     "1.2202328793298079203743895795001556368464833006953644776985789518462297915378494"),
    ("-0.80901699437494742410229341718281905886015458990288143106772431135263023140945122",
     "1.8491085797554824171740738073487023672488141554244200811506784454450949305106727"),
)


@pytest.mark.parametrize("digits", [12, 6])
@pytest.mark.parametrize("bits", [128, 256])
def test_stored_start_solves_to_the_ten_step_anchor(monkeypatch, bits, digits):
    """One Newton solve from the exact real parts and the stored imaginary
    parts, or their 6-digit rounding, reaches the 10-step anchor; its real
    parts stay on the fixed locus of the real structure; the 12-digit start
    takes at most 3 theta passes at 128 bits and 4 at 256."""
    pol = PrecisionPolicy(bits)
    passes = []
    theta_batch = moduli.theta_batch

    def counting(*args, **kwargs):
        passes.append(1)
        return theta_batch(*args, **kwargs)

    monkeypatch.setattr(moduli, "theta_batch", counting)
    with working_precision(pol):
        r5 = mpmath.sqrt(5)
        imag = [mpmath.nstr(mpmath.mpf(v), digits) for v in pde.ANCHOR_IMAG]
        start = (mpmath.mpc((r5 - 1) / 4, imag[0]), mpmath.mpc(-(r5 + 1) / 4, imag[1]))
        z = moduli.continuation_invert(BASE[0], BASE[1], start, pol).z
        want = [mpmath.mpc(*w) for w in TEN_STEP_ANCHOR]
        assert abs(z.z1 - want[0]) + abs(z.z2 - want[1]) < pol.verify_tol
        assert abs(z.z1.real - (r5 - 1) / 4) < pol.verify_tol
        assert abs(z.z2.real + (r5 + 1) / 4) < pol.verify_tol
    if digits == 12:
        assert len(passes) <= {128: 3, 256: 4}[bits]


def test_developing_map_anchor_start_is_local_to_its_base(policy):
    """The stored start serves only its base, (1/10, 1/10): from it, Newton
    stalls over (1/5, 1/10)."""
    with pytest.raises(moduli.NoConvergence):
        developing_map_match((Fraction(1, 5), Fraction(1, 10)), policy=policy)


@pytest.mark.parametrize("bits", [128, 256])
def test_forward_samples_stay_near_the_base_and_match(monkeypatch, bits):
    """Each sample's complex offset (X - X0, Y - Y0) lies within r/32 of the
    base, with r the certified radius; the holdout is the truncation of the
    order-10 grids, below 1e-24 at either precision; the anchor is the
    10-step anchor to verify_tol."""
    pol = PrecisionPolicy(bits)
    offsets = []
    evaluate = pde.evaluate_grid

    def recording(basis, dx, dy):
        offsets.append((dx, dy))
        return evaluate(basis, dx, dy)

    monkeypatch.setattr(pde, "evaluate_grid", recording)
    rep = developing_map_match(BASE, samples=14, policy=pol, order=10)
    assert rep["holdout_residual"] < 1e-24
    assert len(offsets) == rep["samples"] == 14
    r = estimate_singular_distance(BASE)
    with working_precision(pol):
        assert all(isinstance(d, mpmath.mpc) for o in offsets for d in o)
        assert max(max(abs(dx), abs(dy)) for dx, dy in offsets) <= to_mpf(r) / 32
        z = rep["anchor"].z
        want = [mpmath.mpc(*w) for w in TEN_STEP_ANCHOR]
        assert abs(z.z1 - want[0]) + abs(z.z2 - want[1]) < pol.verify_tol


def test_evaluate_grid_sums_the_exact_grid_and_stays_in_the_polydisc(policy):
    basis = taylor_basis(BASE, 6)
    r = estimate_singular_distance(BASE)
    dx, dy = r / 3, -r / 5
    with working_precision(policy):
        got = pde.evaluate_grid(basis, to_mpf(dx), to_mpf(dy))
        for g, v in zip(basis.grids, got):
            exact = sum(c * dx ** i * dy ** j for (i, j), c in g.items())
            assert abs(v - to_mpf(exact)) < policy.verify_tol
        with pytest.raises(ValueError, match="polydisc"):
            pde.evaluate_grid(basis, mpmath.mpc(0, to_mpf(r * Fraction(101, 100))), mpmath.mpf(0))


def test_transform_constant_across_sample_sets(policy):
    pol = PrecisionPolicy(96)
    rep1 = developing_map_match(BASE, samples=10, policy=pol, order=10)
    rep2 = developing_map_match(BASE, samples=18, policy=pol, order=10)
    g1, g2 = rep1["transform"], rep2["transform"]
    k = max(((i, j) for i in range(4) for j in range(4)), key=lambda ij: abs(g1[ij]))
    lam = g2[k] / g1[k]
    assert mpmath.mnorm(g2 - lam * g1, 1) < 1e-15 * mpmath.mnorm(g2, 1)


def test_singular_distance_sane():
    d = estimate_singular_distance(BASE)
    assert 0.005 < d < 0.12


def _singular_distance_per_point(x0, y0, grid_half_width, resolution):
    """The singular-distance scan with one np.roots call per grid point."""
    best = min(abs(x0), abs(y0))
    k2_coeffs = [c.coefficients() for c in K2_LOCUS.rows("Y")]

    def eval_x(coeffs, xc):
        return complex(sum(complex(co) * xc ** k for k, co in enumerate(coeffs) if co))

    centers, width = [x0], grid_half_width
    for _ in range(3):
        xc0 = centers[-1]
        re = np.linspace(xc0 - width, xc0 + width, resolution)
        im = np.linspace(-width, width, resolution)
        local_best, local_arg = best, xc0
        for a in re:
            for b in im:
                xc = complex(a, b)
                cands = [36 * xc ** 2 - 32 * xc]
                dense = [eval_x(p, xc) for p in k2_coeffs]
                while dense and abs(dense[-1]) < 1e-14:
                    dense.pop()
                if len(dense) > 1:
                    cands.extend(np.roots(list(reversed(dense))))
                for ycand in cands:
                    dist = float(np.hypot(abs(xc - x0), abs(ycand - y0)))
                    if dist < local_best:
                        local_best, local_arg = dist, xc
        best = min(best, local_best)
        centers.append(local_arg)
        width /= resolution / 4
    return best


@pytest.mark.parametrize("base", [BASE, (Fraction(3, 17), Fraction(5, 23)),
                                  (Fraction(25, 27), Fraction(1, 50))])
def test_certified_radius_within_the_per_point_scan(base):
    """A locus point closer than r would lie in the certified polydisc, so r
    is at most the distance to any locus point the scan finds."""
    x0, y0 = float(base[0]), float(base[1])
    r = estimate_singular_distance(base)
    assert 0 < r <= _singular_distance_per_point(x0, y0, 1.5, 15)


def _grid_digest(sol) -> str:
    h = hashlib.sha256()
    for grid in sol.grids:
        for i, j in sorted(grid):
            h.update(f"{i},{j}|{grid[(i, j)]};".encode())
        h.update(b"#")
    return h.hexdigest()


# sha256 of every jet and coefficient of the four order-10 basis grids
TAYLOR_DIGESTS = {
    (Fraction(1, 10), Fraction(1, 10)):
        "b1cd64c77895df6dec113fd7ff093b5430267f3a771b912842e509a295dbd4c4",
    (Fraction(3, 17), Fraction(5, 23)):
        "b3d62af76fa106d97eaa9aeff574531366dbb46a72820dea577d530bc5184812",
}


@pytest.mark.parametrize("base", sorted(TAYLOR_DIGESTS))
def test_taylor_basis_grids_are_pinned(base):
    assert _grid_digest(taylor_basis(base, 10)) == TAYLOR_DIGESTS[base]


def test_order_16_taylor_basis_grids_are_pinned():
    """sha256 of the four order-16 basis grids at (1/10, 1/10), recorded
    from the solver that expanded the eight rational coefficients as series."""
    assert (_grid_digest(taylor_basis(BASE, 16))
            == "7a6dbe988d93a2d85a3fbbfc965867b5ca292e86e10b44befbc9b84fb7139e55")
