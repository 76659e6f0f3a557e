"""The rank-4 system of partial differential equations in the moduli
coordinates (X, Y): exact coefficient data, the jet elimination exact in
Q(X, Y) over the system's singular locus X Y S K2 = 0, down to the
fourth-order ordinary equation on Y = 0 and to the integrability relation as
an identity, exact local Taylor solutions from the four free jets, the exact
quadric of the projectivized solution image, and the developing-map match
against the theta-side inverse."""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

import mpmath

from .diffops import DiffOperator
from .hilbert_theta import UHPPair
from .lattice import j_map
from .moduli import K2_LOCUS, RankDeficient, continuation_invert, match_projective_maps, moduli_XY
# not called here since the developing map samples forward; kept bound because
# perfbench/test_perfbench.py checks that its tracer rebinds every module's
# newton_invert, pde's included
from .moduli import newton_invert  # noqa: F401
from .numkernel import PrecisionPolicy, quadratic_constants, to_mpf, working_precision
from .periods import restricted_ode_X
from .polynomials import RationalFunction, SparsePoly, UniPoly, gauss_jordan

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


# the system's singular locus X Y S K2 = 0, with S = 36 X^2 - 32 X - Y and K2
# the quintic K2_LOCUS: four polynomials irreducible over Q, and the base of
# every denominator in the system and its elimination
_X, _Y = SparsePoly.variable(V, "X"), SparsePoly.variable(V, "Y")
SINGULAR_BASE = (_X, _Y, 36 * _X ** 2 - 32 * _X - _Y, K2_LOCUS)


@functools.cache
def build_pde() -> PDESystem:
    """Exact transcription of the eight coefficients, each in lowest terms;
    the common singular factor 36 X^2 - 32 X - Y sits in every denominator."""
    X, Y, S, _ = SINGULAR_BASE
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


def _raised(p: SparsePoly, powers) -> SparsePoly:
    """p times prod f_i^powers[i] over the singular base."""
    for f, k in zip(SINGULAR_BASE, powers):
        p = p * f ** k if k else p
    return p


class _BaseFraction:
    """scale * num / prod f_i^den[i] over SINGULAR_BASE = (X, Y, S, K2): an
    element of Q(X, Y) whose denominator has no factor outside the base.

    num is a primitive integer SparsePoly that no f_i with den[i] > 0
    divides.  The f_i are prime, so an operation tries to cancel only the
    factors that can divide its result: a sum those with equal exponents in
    both operands, a product those in exactly one operand's denominator, and
    a derivative those whose exponent it does not raise.  `divmod_exact` by
    an f_i, which leads with +-1, keeps num integral."""

    __slots__ = ("scale", "num", "den")

    @classmethod
    def of(cls, scale, num: SparsePoly, den=(0, 0, 0, 0), tried=()) -> "_BaseFraction":
        """scale num / prod f_i^den[i], with the content of num moved to the
        scale and the factors `tried` divided out of num as far as they go."""
        out = cls.__new__(cls)
        out.scale, out.num, out.den = Fraction(0), num, (0, 0, 0, 0)
        if num:
            content = Fraction(math.gcd(*(c.numerator for c in num.terms.values())),
                               math.lcm(*(c.denominator for c in num.terms.values())))
            num, den = num * (1 / content) if content != 1 else num, list(den)
            for i in tried:
                while den[i] and not (qr := num.divmod_exact(SINGULAR_BASE[i]))[1]:
                    num, den[i] = qr[0], den[i] - 1
            out.scale, out.num, out.den = scale * content, num, tuple(den)
        return out

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other: "_BaseFraction") -> "_BaseFraction":
        if not other.num:
            return self
        den, a, b = tuple(map(max, self.den, other.den)), self.scale, other.scale
        num = (_raised(self.num * (a.numerator * b.denominator), map(operator.sub, den, self.den))
               + _raised(other.num * (b.numerator * a.denominator),
                         map(operator.sub, den, other.den)))
        return _BaseFraction.of(Fraction(1, a.denominator * b.denominator), num, den,
                                [i for i in range(4) if self.den[i] == other.den[i]])

    def __neg__(self) -> "_BaseFraction":
        return _BaseFraction.of(-self.scale, self.num, self.den)

    def __sub__(self, other: "_BaseFraction") -> "_BaseFraction":
        return self + (-other)

    def __mul__(self, other: "_BaseFraction") -> "_BaseFraction":
        return _BaseFraction.of(self.scale * other.scale, self.num * other.num,
                                tuple(map(operator.add, self.den, other.den)),
                                [i for i in range(4) if (self.den[i] > 0) != (other.den[i] > 0)])

    def derivative(self, var: str) -> "_BaseFraction":
        """d/dvar.  With F the factors of the denominator that depend on var,
        (n / prod f^e)' = (n' prod_F f - n sum_F e_i f_i' prod_(F - i) f)
        / (prod f^e prod_F f), and no f_i of F divides the new numerator."""
        fs, dfs = SINGULAR_BASE, _BASE_DERIVATIVES[var]
        raised = [i for i, e in enumerate(self.den) if e and dfs[i]]
        # by Horner's rule over F: num = num f_i - n e_i f_i' prod(F before i)
        num, done = self.num.derivative(var), SparsePoly.const(V, 1)
        for i in raised:
            num = num * fs[i] - self.num * done * (self.den[i] * dfs[i])
            done = done * fs[i]
        den = [e + (i in raised) for i, e in enumerate(self.den)]
        return _BaseFraction.of(self.scale, num, den, [i for i in range(4) if i not in raised])

    def inverse(self) -> "_BaseFraction":
        """1 / self; raises EliminationFailed when num has a factor outside
        the singular base (or is 0), since the inverse would leave it."""
        num, powers = self.num, [0] * 4
        for i, f in enumerate(SINGULAR_BASE):
            while num and not (qr := num.divmod_exact(f))[1]:
                num, powers[i] = qr[0], powers[i] + 1
        if set(num.terms) != {(0, 0)}:
            raise EliminationFailed(f"the factor {num.terms} lies outside the singular base")
        return _BaseFraction.of(1 / (self.scale * num.terms[(0, 0)]),
                                _raised(SparsePoly.const(V, 1), self.den), powers)

    def lowest_y_term(self) -> tuple[int, RationalFunction]:
        """(v, c) with self = c(X) Y^v + O(Y^(v + 1)), for nonzero self; X,
        S and K2 are units at Y = 0, so only num's rows and den[1] count."""
        rows = self.num.rows("Y")
        k = min(k for k, row in enumerate(rows) if row)
        den = UniPoly([1])
        for i in (0, 2, 3):
            den = den * SINGULAR_BASE[i].rows("Y")[0] ** self.den[i]
        return k - self.den[1], RationalFunction(rows[k] * self.scale, den)


_BASE_DERIVATIVES = {var: tuple(f.derivative(var) for f in SINGULAR_BASE) for var in V}

Vector = tuple[_BaseFraction, _BaseFraction, _BaseFraction, _BaseFraction]


def _vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))  # type: ignore[return-value]


def _vec_scale(c: _BaseFraction, a: Vector) -> Vector:
    return tuple(c * x for x in a)  # type: ignore[return-value]


class _JetReducer:
    """Rewrites every jet of the solution sheaf as a combination of the free
    jets u, u_X, u_Y, u_XY with coefficients exact in Q(X, Y), each a
    `_BaseFraction` over the system's singular base.

    This realises the jet elimination in substitution form: an exact linear
    elimination, organised so each step inverts a single pivot (or the 2x2
    block for the mixed third-order pair) instead of a dense sweep.
    """

    def __init__(self):
        system = build_pde()
        L1, M1, A1, B1, C1, D1, P1, Q1 = (
            _BaseFraction.of(1, q.num) * _BaseFraction.of(1, q.den).inverse()
            for q in (system.L1, system.M1, system.A1, system.B1,
                      system.C1, system.D1, system.P1, system.Q1))
        one = _BaseFraction.of(1, SparsePoly.const(V, 1))
        zero = _BaseFraction.of(1, SparsePoly.zero(V))
        self.table: dict[Jet, Vector] = {
            jet: tuple(one if i == k else zero for i in range(4)) for k, jet in enumerate(BASIS)}
        self.table[(2, 0)] = (P1, A1, B1, L1)
        self.table[(0, 2)] = (Q1, C1, D1, M1)
        # u_XXY = known21 + L1 u_XYY, from d/dY of the first equation, and
        # u_XYY = known12 + M1 u_XXY, from d/dX of the second
        P1y, A1y, B1y, L1y = (c.derivative("Y") for c in self.table[(2, 0)])
        Q1x, C1x, D1x, M1x = (c.derivative("X") for c in self.table[(0, 2)])
        known21 = _vec_add((P1y, A1y, B1y + P1, L1y + A1), _vec_scale(B1, self.table[(0, 2)]))
        known12 = _vec_add((Q1x, C1x + Q1, D1x, M1x + D1), _vec_scale(C1, self.table[(2, 0)]))
        inv = (one - L1 * M1).inverse()
        self.table[(2, 1)] = _vec_scale(inv, _vec_add(known21, _vec_scale(L1, known12)))
        self.table[(1, 2)] = _vec_add(known12, _vec_scale(M1, self.table[(2, 1)]))

    def reduce(self, jet: Jet) -> Vector:
        if jet not in self.table:
            if jet[0] < 1:
                raise EliminationFailed(f"no reduction path to jet {jet}")
            self.table[jet] = self.derivative(self.reduce((jet[0] - 1, jet[1])), "X")
        return self.table[jet]

    def derivative(self, vec: Vector, var: str) -> Vector:
        """d/dvar of sum c_beta u_beta, re-reduced to the basis."""
        step = (1, 0) if var == "X" else (0, 1)
        out = tuple(c.derivative(var) for c in vec)
        for c, beta in zip(vec, BASIS):
            if c:
                out = _vec_add(out, _vec_scale(c, self.reduce((beta[0] + step[0],
                                                               beta[1] + step[1]))))
        return out  # type: ignore[return-value]


@functools.cache
def _jet_reducer() -> _JetReducer:
    """The one reducer; its table of reduced jets grows as callers ask."""
    return _JetReducer()


def eliminate_to_restricted_ode() -> DiffOperator:
    """Exact elimination of the mixed jets: reduce u_XX, u_XXX, u_XXXX to the
    free-jet basis, take the unique dependency sum a_i d^i/dX^i killing the
    u_Y and u_XY components, and read off Y = 0: each a_i / a_4 there is the
    ratio of the lowest Y-terms of a_i and a_4, or 0 past a_4's valuation."""
    red = _jet_reducer()
    red.reduce((3, 0))
    red.reduce((4, 0))
    v2, v3, v4 = red.table[(2, 0)], red.table[(3, 0)], red.table[(4, 0)]
    a2 = v3[2] * v4[3] - v4[2] * v3[3]
    a3 = v4[2] * v2[3] - v2[2] * v4[3]
    a4 = v2[2] * v3[3] - v3[2] * v2[3]
    a1 = -(a2 * v2[1] + a3 * v3[1] + a4 * v4[1])
    a0 = -(a2 * v2[0] + a3 * v3[0] + a4 * v4[0])
    lead_val, lead = a4.lowest_y_term()
    coeffs = []
    for a in (a0, a1, a2, a3):
        val, c = a.lowest_y_term()
        if val < lead_val:
            raise EliminationFailed("restricted coefficient has a pole on Y = 0")
        coeffs.append(c / lead if val == lead_val else RationalFunction(0))
    return DiffOperator("X", coeffs + [RationalFunction(1)])


def verify_mixed_jet_compatibility() -> dict:
    """The two reduction routes to the (2, 2) jet (through d/dY of u_XXY and
    d/dX of u_XYY) must coincide exactly in Q(X, Y); this is the
    integrability relation between the two equations.  `compared_orders`
    counts the free-jet components compared, each as an identity (4)."""
    red = _jet_reducer()
    via_y = red.derivative(red.reduce((2, 1)), "Y")
    via_x = red.derivative(red.reduce((1, 2)), "X")
    return {"consistent": not any(a - b for a, b in zip(via_y, via_x)),
            "compared_orders": len(via_y)}


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
    X, Y, S, _ = SINGULAR_BASE
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


def evaluate_grid(basis: JetBasisSolution, dx, dy) -> list:
    """The four basis solutions at base + (dx, dy), each the sum of its
    grid's terms c dX^i dY^j at the working precision; the offsets may be
    complex (mpc).  The monomials are formed once, for all four grids.
    Raises ValueError when the offset leaves the certified polydisc of
    estimate_singular_distance, outside which the series need not converge."""
    r = to_mpf(estimate_singular_distance(basis.base))
    if max(abs(dx), abs(dy)) > r:
        raise ValueError(f"offset ({dx}, {dy}) leaves the certified polydisc of radius {r}")
    px, py = [mpmath.mpf(1)], [mpmath.mpf(1)]
    for _ in range(basis.order):
        px.append(px[-1] * dx)
        py.append(py[-1] * dy)
    monomials = {jet: px[jet[0]] * py[jet[1]] for jet in basis.grids[0]}
    return [mpmath.fsum(c.numerator * monomials[jet] / c.denominator for jet, c in g.items())
            for g in basis.grids]


# --------------------------------------------------- geometry of the solution


@functools.cache
def estimate_singular_distance(base) -> Fraction:
    """A certified radius r <= 1: no singular locus of the system (the axes X = 0
    and Y = 0, 36X^2 - 32X - Y = 0 and the quintic K2_LOCUS) meets the
    polydisc |dX|, |dY| <= r around the base point.  Despite the name it is
    a lower bound on the distance, not an estimate; it sets the sampling
    radii and bounds evaluate_grid's offsets.  Cached."""
    base = (Fraction(base[0]), Fraction(base[1]))
    return min(_exclusion_radius(p, base) for p in SINGULAR_BASE)


def _exclusion_radius(p: SparsePoly, base: tuple[Fraction, Fraction]) -> Fraction:
    """A dyadic r <= 1, within 2^-24 of the largest, with |c_00| > sum |c_ij|
    r^(i + j) over (i, j) != (0, 0), where c_ij are the coefficients of p
    shifted to the base; then p has no zero on the polydisc of radius r.
    0 when p vanishes at the base."""
    coeffs = _shifted(p, base)
    c00 = abs(coeffs.pop((0, 0), 0))

    def excludes(r: Fraction) -> bool:
        return c00 > sum(abs(c) * r ** (i + j) for (i, j), c in coeffs.items())

    lo, hi = Fraction(0), Fraction(1)
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


# the anchor over (1/10, 1/10) lies on the fixed locus of the real structure
# (z1, z2) -> (nu - conj(z1), nu' - conj(z2)), nu = eps - 1, so its real parts
# are -eps'/2 and -eps/2 exactly; its imaginary parts, to 12 digits
ANCHOR_IMAG = ("1.22023287932", "1.84910857975")


def developing_map_match(base, samples: int = 14,
                         policy: PrecisionPolicy | None = None,
                         order: int = 10) -> dict:
    """Match the PDE basis-solution ratios against the lattice embedding of
    the theta-side inverse (z1, z2)(X, Y) by one projective transformation,
    at `samples` points around the base: the first five fix the map and
    every other one is checked against it.

    The graph of the period map is sampled forward from one inverse.  One
    Newton solve from the anchor over (1/10, 1/10), the one base the CLI, the
    benchmark and the tests use, proves the anchor z_a over the base (else
    moduli.NoConvergence) and returns the Jacobian J there; each sample takes
    z = z_a + J^-1 (dx, dy) for an offset of sampling_offsets, reads
    (X, Y)(z) off one theta pass without jets, and pairs the Taylor grids
    evaluated at the complex offset (X - X0, Y - Y0) with the lattice
    embedding of z.

    This is the desk-scale machine check that the projectivized solutions
    develop the parameter space into the period domain.
    """
    base = (Fraction(base[0]), Fraction(base[1]))
    if base[1] == 0:
        raise SingularBasePoint("the system is singular along Y = 0")
    with working_precision(policy) as pol:
        basis = taylor_basis(base, order)
        q = quadratic_constants(pol)
        start = (mpmath.mpc(-q.eps_conj / 2, ANCHOR_IMAG[0]),
                 mpmath.mpc(-q.eps / 2, ANCHOR_IMAG[1]))
        anchor = continuation_invert(base[0], base[1], start, pol)
        a11, a12, a21, a22 = anchor.jacobian
        det = a11 * a22 - a12 * a21
        x0, y0 = to_mpf(base[0]), to_mpf(base[1])
        vectors, jvecs = [], []
        for dx, dy in sampling_offsets(base, samples):
            dx, dy = to_mpf(dx), to_mpf(dy)
            z = UHPPair(anchor.z.z1 + (dx * a22 - a12 * dy) / det,
                        anchor.z.z2 + (a11 * dy - dx * a21) / det)
            x, y = moduli_XY(z, pol)
            vectors.append(evaluate_grid(basis, x - x0, y - y0))
            jvecs.append(j_map(z, pol).xi)
        g, residual = match_projective_maps(vectors, jvecs)
        return {"transform": g, "holdout_residual": residual,
                "anchor": anchor, "samples": samples}
