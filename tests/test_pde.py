import hashlib
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from hilbert_k3.moduli import K2_LOCUS, RankDeficient
from hilbert_k3.numkernel import PrecisionPolicy
from hilbert_k3.pde import (InconsistentReduction, SingularBasePoint,
                            _coefficient_series, _eigenvalue_signs, _truncated_product,
                            build_pde, developing_map_match, eliminate_to_restricted_ode,
                            estimate_singular_distance, quadric_from_grids,
                            quadric_image_test, taylor_basis,
                            taylor_solutions, verify_mixed_jet_compatibility,
                            verify_pde_restriction)
from hilbert_k3.periods import restricted_ode_X
from hilbert_k3.polynomials import SparsePoly

V = ("X", "Y")
BASE = (Fraction(1, 10), Fraction(1, 10))


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



def test_coefficients_in_lowest_terms():
    import sympy
    xs, ys = sympy.symbols("X Y")

    def to_sympy(p):
        return sum(sympy.Rational(c.numerator, c.denominator) * xs ** e[0] * ys ** e[1]
                   for e, c in p.terms.items())

    pde = build_pde()
    for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1"):
        q = getattr(pde, name)
        assert sympy.gcd(to_sympy(q.num), to_sympy(q.den)).is_number, name


@pytest.mark.parametrize("base", [BASE, (Fraction(3, 17), Fraction(5, 23))])
def test_coefficient_series_match_sympy_derivatives(base):
    """The dX^i dY^j coefficient of each coefficient's Taylor series is
    d^i/dX^i d^j/dY^j f / (i! j!) at the base point, for i + j <= 4, with the
    derivatives taken in sympy's field Q(X, Y)."""
    import math

    import sympy
    field, xs, ys = sympy.field("X,Y", sympy.QQ)
    x0, y0 = (sympy.QQ(c.numerator, c.denominator) for c in base)

    def to_field(p):
        return sum((sympy.QQ(c.numerator, c.denominator) * xs ** e[0] * ys ** e[1]
                    for e, c in p.terms.items()), field.zero)

    order = 4
    cs = _coefficient_series(base, order)
    pde = build_pde()
    for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1"):
        q = getattr(pde, name)
        d_dy = to_field(q.num) / to_field(q.den)
        for j in range(order + 1):
            row = cs[name].coefficient(j)
            d_dxdy = d_dy
            for i in range(order + 1 - j):
                value = d_dxdy.numer(x0, y0) / d_dxdy.denom(x0, y0)
                expected = value / (math.factorial(i) * math.factorial(j))
                assert row.coefficient(i) == Fraction(int(expected.numerator),
                                                      int(expected.denominator)), (name, i, j)
                d_dxdy = d_dxdy.diff(xs)
            d_dy = d_dy.diff(ys)


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
    rep = verify_mixed_jet_compatibility()
    assert rep["consistent"]
    assert rep["compared_orders"] >= 1


def _residual_series(grid, base, order):
    """Independent substitute-back oracle: expand both equations directly as
    truncated series products (no level-by-level solving)."""
    cs = _coefficient_series(base, order)

    def partial(g, var):
        out = {}
        for (i, j), c in g.items():
            if var == "X" and i:
                out[(i - 1, j)] = out.get((i - 1, j), Fraction(0)) + c * i
            if var == "Y" and j:
                out[(i, j - 1)] = out.get((i, j - 1), Fraction(0)) + c * j
        return out

    def mul(series, g, cut):
        out = {}
        for q, row in enumerate(series.coeffs):
            for p, a in enumerate(row.coeffs):
                for (i, j), b in g.items():
                    if p + i + q + j <= cut:
                        key = (p + i, q + j)
                        out[key] = out.get(key, Fraction(0)) + a * b
        return out

    def add(a, b, sign=1):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, Fraction(0)) + sign * v
        return {k: v for k, v in out.items() if v}

    ux = partial(grid, "X")
    uy = partial(grid, "Y")
    uxx = partial(ux, "X")
    uyy = partial(uy, "Y")
    uxy = partial(ux, "Y")
    cut = order - 2
    e1 = add(uxx, add(mul(cs["L1"], uxy, cut),
                      add(mul(cs["A1"], ux, cut),
                          add(mul(cs["B1"], uy, cut), mul(cs["P1"], grid, cut)))),
             sign=-1)
    e2 = add(uyy, add(mul(cs["M1"], uxy, cut),
                      add(mul(cs["C1"], ux, cut),
                          add(mul(cs["D1"], uy, cut), mul(cs["Q1"], grid, cut)))),
             sign=-1)
    return e1, e2, cut


def test_taylor_solution_substitute_back():
    grid = taylor_solutions(BASE, [(1, 0, 0, 0)], 8)[0]
    e1, e2, cut = _residual_series(grid, BASE, 8)
    for res in (e1, e2):
        for (i, j), c in res.items():
            if i + j <= cut - 0:
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
    rep = developing_map_match(BASE, sample_count=10, policy=policy,
                               holdout=4, order=10)
    assert rep["holdout_residual"] < 1e-5
    assert rep["samples"] == 14


def test_developing_map_rejects_diagonal_base(policy):
    with pytest.raises(SingularBasePoint):
        developing_map_match((Fraction(1, 10), Fraction(0)), policy=policy)


def test_transform_constant_across_sample_sets(policy):
    pol = PrecisionPolicy(96)
    rep1 = developing_map_match(BASE, sample_count=9, policy=pol, holdout=1, order=10)
    rep2 = developing_map_match(BASE, sample_count=13, policy=pol, holdout=5, order=10)
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
