"""The rank-4 system of partial differential equations in the moduli
coordinates (X, Y): exact coefficient data, fraction-free elimination down to
the fourth-order ordinary equation on Y = 0, exact local Taylor solutions from
the four free jets, the exact quadric of the projectivized solution image, and
the developing-map match against the theta-side inverse."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

import mpmath

from .diffops import DiffOperator
from .lattice import j_map
from .moduli import K2_LOCUS, RankDeficient, continuation_invert, match_projective_maps, newton_invert
from .numkernel import PrecisionPolicy, working_precision
from .periods import restricted_ode_X
from .polynomials import FormalSeries, RationalFunction, SparsePoly, UniPoly, gauss_jordan

V = ("X", "Y")

Jet = tuple[int, int]


class EliminationFailed(Exception):
    pass


class InconsistentReduction(Exception):
    """Two reduction paths for the same Taylor coefficient disagree; this
    would falsify integrability of the system and must never fire."""


class SingularBasePoint(Exception):
    pass


class Quotient(NamedTuple):
    """num / den, two polynomials in (X, Y)."""

    num: SparsePoly
    den: SparsePoly

    def evaluate(self, values):
        return self.num.evaluate(values) / self.den.evaluate(values)


@dataclass(frozen=True)
class PDESystem:
    L1: Quotient
    M1: Quotient
    A1: Quotient
    B1: Quotient
    C1: Quotient
    D1: Quotient
    P1: Quotient
    Q1: Quotient


@functools.cache
def build_pde() -> PDESystem:
    """Exact transcription of the eight coefficients, each in lowest terms;
    the common singular factor 36 X^2 - 32 X - Y sits in every denominator."""
    X = SparsePoly.variable(V, "X")
    Y = SparsePoly.variable(V, "Y")
    S = 36 * X ** 2 - 32 * X - Y
    return PDESystem(
        L1=Quotient(-20 * (4 * X ** 2 + 3 * X * Y - 4 * Y), S),
        M1=Quotient(-2 * (54 * X ** 3 - 50 * X ** 2 - 3 * X * Y + 2 * Y), 5 * Y * S),
        A1=Quotient(-2 * (20 * X ** 3 - 8 * X * Y + 9 * X ** 2 * Y + Y ** 2), X * Y * S),
        B1=Quotient(10 * Y * (3 * X - 8), X * S),
        C1=Quotient(-2 * (-25 * X ** 2 + 27 * X ** 3 + 2 * Y - 3 * X * Y), 5 * Y ** 2 * S),
        D1=Quotient(-2 * (-120 * X ** 2 + 135 * X ** 3 - 2 * Y - 3 * X * Y), 5 * X * Y * S),
        P1=Quotient(-2 * (8 * X - Y), X ** 2 * S),
        Q1=Quotient(-2 * (9 * X - 10), 25 * X * Y * S),
    )


# ------------------------------------------------------------- elimination

BASIS: tuple[Jet, ...] = ((0, 0), (1, 0), (0, 1), (1, 1))


# tracked Y-order for the elimination; coefficient reads are precision-checked,
# so an insufficient value fails loudly instead of silently truncating
_REL_PREC = 8


def _y_series(p: SparsePoly) -> FormalSeries:
    """p as a Laurent series in Y over Q(X), known to Y-order
    val + max(_REL_PREC, len - val) for a polynomial of len Y-coefficients."""
    rows = p.rows("Y")
    if not rows:
        return FormalSeries("Y", 0, [], _REL_PREC)
    val = next(j for j, c in enumerate(rows) if c)
    coeffs = [RationalFunction(c) for c in rows[val:]]
    return FormalSeries("Y", val, coeffs, val + max(_REL_PREC, len(rows) - val))


def _d_dX(s: FormalSeries) -> FormalSeries:
    return FormalSeries(s.var, s.expo, [c.derivative() for c in s.coeffs], s.prec)


Vector = tuple[FormalSeries, FormalSeries, FormalSeries, FormalSeries]
_ONE = FormalSeries("Y", 0, [RationalFunction(1)], _REL_PREC)


def _vec_const(k: int) -> Vector:
    return tuple(_ONE if i == k else FormalSeries("Y", 0, [], _REL_PREC)
                 for i in range(4))  # type: ignore[return-value]


def _vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


def _vec_scale(c: FormalSeries, a: Vector) -> Vector:
    return tuple(c * x for x in a)  # type: ignore[return-value]


class _JetReducer:
    """Rewrites every jet of the solution sheaf as a combination of the free
    jets u, u_X, u_Y, u_XY with coefficients expanded as exact Y-Laurent
    series over Q(X).

    This realises the jet elimination in substitution form: an exact linear
    elimination, organised so each step inverts a single pivot (or the 2x2
    block for the mixed third-order pair) instead of a dense sweep.
    """

    def __init__(self):
        pde = build_pde()
        s = {}
        for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1"):
            q = getattr(pde, name)
            s[name] = _y_series(q.num) * _y_series(q.den).inverse()
        self.s = s
        self.table: dict[Jet, Vector] = {jet: _vec_const(i)
                                         for i, jet in enumerate(BASIS)}
        self.table[(2, 0)] = (s["P1"], s["A1"], s["B1"], s["L1"])
        self.table[(0, 2)] = (s["Q1"], s["C1"], s["D1"], s["M1"])

        # u_XXY = known21 + L1 u_XYY ; u_XYY = known12 + M1 u_XXY
        known21 = _vec_add(
            _vec_add(_vec_scale(s["L1"].derivative() + s["A1"], _vec_const(3)),
                     _vec_scale(s["A1"].derivative(), _vec_const(1))),
            _vec_add(_vec_scale(s["B1"].derivative() + s["P1"], _vec_const(2)),
                     _vec_add(_vec_scale(s["P1"].derivative(), _vec_const(0)),
                              _vec_scale(s["B1"], self.table[(0, 2)]))))
        known12 = _vec_add(
            _vec_add(_vec_scale(_d_dX(s["M1"]) + s["D1"], _vec_const(3)),
                     _vec_scale(_d_dX(s["C1"]) + s["Q1"], _vec_const(1))),
            _vec_add(_vec_scale(_d_dX(s["D1"]), _vec_const(2)),
                     _vec_add(_vec_scale(_d_dX(s["Q1"]), _vec_const(0)),
                              _vec_scale(s["C1"], self.table[(2, 0)]))))
        inv = (_ONE - s["L1"] * s["M1"]).inverse()
        self.table[(2, 1)] = _vec_scale(inv, _vec_add(known21,
                                                      _vec_scale(s["L1"], known12)))
        self.table[(1, 2)] = _vec_add(known12,
                                      _vec_scale(s["M1"], self.table[(2, 1)]))

    def reduce(self, jet: Jet) -> Vector:
        if jet in self.table:
            return self.table[jet]
        i, j = jet
        if i >= 1 and (i - 1, j) in self.table:
            self.table[jet] = self.derivative(self.table[(i - 1, j)], "X")
        elif j >= 1 and (i, j - 1) in self.table:
            self.table[jet] = self.derivative(self.table[(i, j - 1)], "Y")
        else:
            raise EliminationFailed(f"no reduction path to jet {jet}")
        return self.table[jet]

    def derivative(self, vec: Vector, var: str) -> Vector:
        """d/dvar of sum c_beta u_beta, re-reduced to the basis."""
        step = (1, 0) if var == "X" else (0, 1)
        out = tuple(_d_dX(c) if var == "X" else c.derivative() for c in vec)
        for c, beta in zip(vec, BASIS):
            shifted = (beta[0] + step[0], beta[1] + step[1])
            out = _vec_add(out, _vec_scale(c, self.reduce(shifted)))
        return out  # type: ignore[return-value]


@functools.cache
def _jet_reducer() -> _JetReducer:
    """The one reducer; its table of reduced jets grows as callers ask."""
    return _JetReducer()


def eliminate_to_restricted_ode() -> DiffOperator:
    """Exact elimination of the mixed jets: reduce u_XX, u_XXX, u_XXXX to the
    free-jet basis, take the unique dependency killing the u_Y and u_XY
    components, normalise by the leading coefficient, and read off Y = 0."""
    red = _jet_reducer()
    red.reduce((3, 0))
    red.reduce((4, 0))
    v2, v3, v4 = red.table[(2, 0)], red.table[(3, 0)], red.table[(4, 0)]
    a2 = v3[2] * v4[3] - v4[2] * v3[3]
    a3 = v4[2] * v2[3] - v2[2] * v4[3]
    a4 = v2[2] * v3[3] - v3[2] * v2[3]
    a1 = -(a2 * v2[1] + a3 * v3[1] + a4 * v4[1])
    a0 = -(a2 * v2[0] + a3 * v3[0] + a4 * v4[0])
    inv_lead = a4.inverse()
    coeffs = []
    for a in (a0, a1, a2, a3):
        ratio = a * inv_lead
        if ratio.valuation() < 0:
            raise EliminationFailed("restricted coefficient has a pole on Y = 0")
        if ratio.prec <= 0:
            raise EliminationFailed(f"Y-order 0 beyond tracked precision {ratio.prec}")
        c = ratio.coefficient(0)
        coeffs.append(c if c else RationalFunction(0))
    return DiffOperator("X", coeffs + [RationalFunction(1)])


def verify_mixed_jet_compatibility() -> dict:
    """The two reduction routes to the (2, 2) jet (through d/dY of u_XXY and
    d/dX of u_XYY) must coincide, exactly in X and to the tracked Y-order;
    this is the integrability relation between the two equations."""
    red = _jet_reducer()
    via_y = red.derivative(red.reduce((2, 1)), "Y")
    via_x = red.derivative(red.reduce((1, 2)), "X")
    consistent = True
    checked = None
    for a, b in zip(via_y, via_x):
        diff = a - b
        span = diff.prec - (diff.expo if diff.is_zero_to_precision() else diff.valuation())
        checked = span if checked is None else min(checked, span)
        if not diff.is_zero_to_precision():
            consistent = False
    return {"consistent": consistent, "compared_orders": int(checked or 0)}


def verify_pde_restriction() -> dict:
    """The eliminated equation must equal the transcribed restricted equation
    coefficient by coefficient, and must have no zeroth-order term on Y = 0."""
    eliminated = eliminate_to_restricted_ode()
    target = restricted_ode_X().monic()
    return {
        "matches_restricted_ode": eliminated == target,
        "no_zeroth_order_term": eliminated.coeffs[0].is_zero(),
        "order": eliminated.order,
    }


# -------------------------------------------------------- local Taylor theory


@functools.cache
def _cleared_equations() -> tuple[tuple[tuple[SparsePoly, Jet], ...], ...]:
    """The two equations of the system with their denominators cleared, each
    a tuple of (polynomial c, jet) terms with sum c u_jet = 0: E1 times
    X^2 Y S and E2 times 25 X Y^2 S, with S = 36 X^2 - 32 X - Y.  The first
    term is the lead, minus the multiplier on u_XX or on u_YY."""
    pde = build_pde()
    X, Y = SparsePoly.variable(V, "X"), SparsePoly.variable(V, "Y")
    S = 36 * X ** 2 - 32 * X - Y
    out = []
    for multiplier, lead, names in ((X ** 2 * Y * S, (2, 0), ("L1", "A1", "B1", "P1")),
                                    (25 * X * Y ** 2 * S, (0, 2), ("M1", "C1", "D1", "Q1"))):
        terms = [(-multiplier, lead)]
        for name, jet in zip(names, ((1, 1), (1, 0), (0, 1), (0, 0))):
            q: Quotient = getattr(pde, name)
            cofactor, rem = multiplier.divmod_exact(q.den)
            if rem:
                raise ValueError(f"the denominator of {name} does not divide {multiplier}")
            terms.append((q.num * cofactor, jet))
        out.append(tuple(terms))
    return tuple(out)


def _shifted(p: SparsePoly, base: tuple[Fraction, Fraction]) -> dict[Jet, Fraction]:
    """The Taylor triangle {(i, j): c} of p(x0 + dX, y0 + dY) at base =
    (x0, y0): the nonzero coefficients c of dX^i dY^j."""
    x0, y0 = base
    rows = [r.affine(1, x0) for r in p.rows("Y")]
    # (y0 + dY)^j = sum_k C(j, k) y0^(j - k) dY^k, so the dY^k row is
    # sum_{j >= k} C(j, k) y0^(j - k) rows[j]
    out = {}
    for k in range(len(rows)):
        row = UniPoly()
        for j in range(k, len(rows)):
            row = row + rows[j] * (math.comb(j, k) * y0 ** (j - k))
        out.update(((i, k), c) for i, c in enumerate(row.coefficients()) if c)
    return out


@dataclass(frozen=True)
class JetBasisSolution:
    base: tuple[Fraction, Fraction]
    order: int
    grids: tuple[Mapping[Jet, Fraction], ...]  # one grid per free jet


def taylor_solutions(base, jet_values, order: int) -> list[dict[Jet, Fraction]]:
    """Taylor coefficients to total order `order` of the solutions with
    prescribed (u, u_X, u_Y, u_XY)(base), one grid per entry of `jet_values`,
    generated level by level from the cleared equations.  A level's
    overdetermined system is the same for every solution, so it is solved
    once, exactly, with one right-hand side per solution; any inconsistency
    raises.  The levels are built in integers: the shifted triangles scaled
    by one denominator, and each solution's grid by one of its own."""
    base = (Fraction(base[0]), Fraction(base[1]))
    tris = [[(_shifted(c, base), jet) for c, jet in eq] for eq in _cleared_equations()]
    den = math.lcm(*(c.denominator for eq in tris for tri, _ in eq for c in tri.values()))
    equations = [[({k: int(c * den) for k, c in tri.items()}, jet) for tri, jet in eq]
                 for eq in tris]
    if any(not eq[0][0].get((0, 0)) for eq in equations):
        raise SingularBasePoint("a leading coefficient vanishes at the base point")
    grids = [dict(zip(BASIS, map(Fraction, jets))) for jets in jet_values]

    for d in range(2, order + 1):
        # grids[s][jet] == nums[s][jet] / dens[s]
        dens = [math.lcm(*(v.denominator for v in t.values())) for t in grids]
        nums = [{jet: int(v * m) for jet, v in t.items()} for t, m in zip(grids, dens)]
        unknowns = [(k, d - k) for k in range(d + 1)]
        index = {jet: k for k, jet in enumerate(unknowns)}
        rows: list[list[int]] = []
        # the dX^i dY^j coefficient of sum c u_(a, b), i + j = d - 2: the
        # level-d jets go to the row, each known jet, with its coefficient,
        # to every right-hand side
        for eq in equations:
            for i in range(d - 1):
                j = d - 2 - i
                row = [0] * (d + 1)
                known: list[tuple[int, Jet]] = []
                for tri, (a, b) in eq:
                    for (p, q), c in tri.items():
                        if p <= i and q <= j:
                            jet = (i - p + a, j - q + b)
                            w = c * math.perm(jet[0], a) * math.perm(jet[1], b)
                            if sum(jet) == d:
                                row[index[jet]] += w
                            else:
                                known.append((w, jet))
                rows.append(row + [-sum(w * n[jet] for w, jet in known) for n in nums])
        if d == 2:
            row = [0] * 3
            row[index[(1, 1)]] = 1
            rows.append(row + [n[(1, 1)] for n in nums])

        n = d + 1
        pivots = gauss_jordan(rows, n)
        if any(any(row[n:]) for row in rows[len(pivots):]):
            raise InconsistentReduction(
                f"level {d} system inconsistent at base {base}")
        if len(pivots) < n:
            raise InconsistentReduction(f"level {d} system underdetermined")
        for row, c in zip(rows, pivots):
            for t, value, m in zip(grids, row[n:], dens):
                t[unknowns[c]] = value / m
    return grids


@functools.cache
def taylor_basis(base, order: int) -> JetBasisSolution:
    """The four solutions whose free jets at the base are the unit vectors,
    to total order `order`.  Cached, so its grids are read-only."""
    base = (Fraction(base[0]), Fraction(base[1]))
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    grids = taylor_solutions(base, units, order)
    return JetBasisSolution(base=base, order=order,
                            grids=tuple(MappingProxyType(g) for g in grids))


def evaluate_grid(grid: Mapping[Jet, Fraction], dx: Fraction, dy: Fraction) -> Fraction:
    total = Fraction(0)
    for (i, j), c in grid.items():
        total += c * dx ** i * dy ** j
    return total


# --------------------------------------------------- geometry of the solution


def estimate_singular_distance(base) -> Fraction:
    """A certified radius r: no singular locus of the system (the axes X = 0
    and Y = 0, 36X^2 - 32X - Y = 0 and the quintic K2_LOCUS) meets the
    polydisc |dX|, |dY| <= r around the base point.  Despite the name it is
    a lower bound on the distance, not an estimate; it sets the sampling
    radii."""
    base = (Fraction(base[0]), Fraction(base[1]))
    X, Y = SparsePoly.variable(V, "X"), SparsePoly.variable(V, "Y")
    return min(_exclusion_radius(p, base) for p in (X, Y, 36 * X ** 2 - 32 * X - Y, K2_LOCUS))


def _exclusion_radius(p: SparsePoly, base: tuple[Fraction, Fraction]) -> Fraction:
    """A dyadic r, within 2^-24 of the largest, with |c_00| > sum |c_ij|
    r^(i + j) over (i, j) != (0, 0), where c_ij are the coefficients of p
    shifted to the base; then p has no zero on the polydisc of radius r.
    0 when p vanishes at the base."""
    coeffs = _shifted(p, base)
    c00 = abs(coeffs.pop((0, 0), 0))

    def excludes(r: Fraction) -> bool:
        return c00 > sum(abs(c) * r ** (i + j) for (i, j), c in coeffs.items())

    if not c00:
        return Fraction(0)
    lo, hi = Fraction(0), Fraction(1)
    while excludes(hi):
        lo, hi = hi, 2 * hi
    for _ in range(24):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if excludes(mid) else (lo, mid)
    return lo


def sampling_offsets(base, count: int) -> list[tuple[Fraction, Fraction]]:
    """Real rational offsets on rings of radius up to 1/64 of the certified
    radius, exactly representable for the rational Taylor grids."""
    r = estimate_singular_distance(base) / 64
    out = []
    for k in range(count):
        angle = 2 * math.pi * k / count + 0.37
        rho = r * (0.55 + 0.45 * ((k * 7919) % count) / max(count - 1, 1))
        dx = Fraction(round(rho * math.cos(angle) * 2 ** 24), 2 ** 24)
        dy = Fraction(round(rho * math.sin(angle) * 2 ** 24), 2 ** 24)
        out.append((dx, dy))
    return out


# the ten products u_i u_j, i <= j, of the four basis solutions
_PAIRS = tuple((i, j) for i in range(4) for j in range(i, 4))


@dataclass(frozen=True)
class QuadricFit:
    matrix: tuple[tuple[Fraction, ...], ...]  # symmetric 4x4, exact, up to scale
    holdout_residual: Fraction
    rank: int
    eigenvalue_signs: tuple[int, ...]         # ascending, 0 for a zero eigenvalue


def _truncated_product(g: Mapping[Jet, Fraction], h: Mapping[Jet, Fraction],
                       order: int) -> dict[Jet, Fraction]:
    """The coefficients of g h to total order `order`, for two Taylor grids."""
    out: dict[Jet, Fraction] = {}
    for (a, b), x in g.items():
        for (c, d), y in h.items():
            if a + b + c + d <= order:
                out[(a + c, b + d)] = out.get((a + c, b + d), 0) + x * y
    return out


def _eigenvalue_signs(matrix) -> tuple[int, ...]:
    """The signs of the eigenvalues of a symmetric rational matrix, ascending.

    The characteristic polynomial det(t I - m) comes exactly from the
    Faddeev-LeVerrier recurrence; its constant term is det(m) up to sign.
    All its roots are real, so Descartes' rule is exact: its coefficients
    have as many sign changes as it has positive roots, and those of p(-t)
    as many as it has negative roots.  The rest are 0."""
    n = len(matrix)
    coeffs = [Fraction(1)]  # c_n, c_(n-1), ..., c_0 of t^n + ... + c_0
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # M_k = m M_(k-1) + c_(n-k+1) I, and c_(n-k) = -tr(m M_k) / k
        mk = [[sum(matrix[i][l] * mk[l][j] for l in range(n)) + (coeffs[-1] if i == j else 0)
               for j in range(n)] for i in range(n)]
        coeffs.append(-sum(matrix[i][l] * mk[l][i] for i in range(n) for l in range(n)) / k)

    def sign_changes(cs) -> int:
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    positive = sign_changes(coeffs)
    negative = sign_changes([-c if k % 2 else c for k, c in enumerate(coeffs)])
    return (-1,) * negative + (0,) * (n - positive - negative) + (1,) * positive


def quadric_from_grids(grids, order: int) -> QuadricFit:
    """The quadric sum q_ij u_i u_j = 0 through four Taylor grids, exactly.

    Each monomial dX^a dY^b of the truncated products gives one linear
    equation in the ten q_ij.  Those of total order at most order - 2 fix q;
    raises RankDeficient unless their nullity is exactly 1.  The equations of
    orders order - 1 and order are the holdout, and holdout_residual is their
    largest |value| for q scaled so that its free entry is 1."""
    products = [_truncated_product(grids[i], grids[j], order) for i, j in _PAIRS]

    def equations(degrees) -> list[list[Fraction]]:
        return [[p.get((a, d - a), Fraction(0)) for p in products]
                for d in degrees for a in range(d + 1)]

    fit = equations(range(order - 1))
    pivots = gauss_jordan(fit, len(_PAIRS))
    if len(pivots) != len(_PAIRS) - 1:
        raise RankDeficient(f"quadric nullity {len(_PAIRS) - len(pivots)} != 1")
    free = next(c for c in range(len(_PAIRS)) if c not in pivots)
    q = [Fraction(int(c == free)) for c in range(len(_PAIRS))]
    for row, c in zip(fit, pivots):
        q[c] = -row[free]
    residual = max(abs(sum(x * y for x, y in zip(q, row)))
                   for row in equations((order - 1, order)))
    m = [[Fraction(0)] * 4 for _ in range(4)]
    for c, (i, j) in zip(q, _PAIRS):
        m[i][j] = m[j][i] = c if i == j else c / 2
    signs = _eigenvalue_signs(m)
    return QuadricFit(matrix=tuple(map(tuple, m)), holdout_residual=residual,
                      rank=sum(1 for s in signs if s), eigenvalue_signs=signs)


def quadric_image_test(base, order: int = 10) -> QuadricFit:
    """The quadric on which the projective image of the four basis solutions
    at the base point lies, from their order-`order` Taylor grids."""
    return quadric_from_grids(taylor_basis(base, order).grids, order)


def developing_map_match(base, samples: int = 14,
                         policy: PrecisionPolicy | None = None,
                         order: int = 10) -> dict:
    """Match the PDE basis-solution ratios against the lattice embedding of
    the theta-side inverse (z1, z2)(X, Y) by one projective transformation,
    at `samples` points around the base: the first five fix the map and
    every other one is checked against it.

    This is the desk-scale machine check that the projectivized solutions
    develop the parameter space into the period domain.
    """
    base = (Fraction(base[0]), Fraction(base[1]))
    if base[1] == 0:
        raise SingularBasePoint("the system is singular along Y = 0")
    with working_precision(policy) as pol:
        basis = taylor_basis(base, order)
        offsets = sampling_offsets(base, samples)
        vectors = [[evaluate_grid(g, dx, dy) for g in basis.grids]
                   for dx, dy in offsets]
        seed_pair = (mpmath.mpc("0.21", "1.05"), mpmath.mpc("-0.33", "1.48"))
        anchor = continuation_invert(base[0], base[1], seed_pair, pol)
        jvecs = []
        prev = anchor.z
        for dx, dy in offsets:
            res = newton_invert(base[0] + dx, base[1] + dy, prev, pol)
            prev = res.z
            jvecs.append(j_map(prev, pol).xi)
        g, residual = match_projective_maps(vectors, jvecs)
        return {"transform": g, "holdout_residual": residual,
                "anchor": anchor, "samples": len(offsets)}
