"""The rank-4 system of partial differential equations in the moduli
coordinates (X, Y): exact coefficient data, fraction-free elimination down to
the fourth-order ordinary equation on Y = 0, exact local Taylor solutions from
the four free jets, quadric fitting of the projectivized solution image, and
the developing-map match against the theta-side inverse."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import mpmath

from .diffops import DiffOperator
from .lattice import j_map
from .moduli import K2_LOCUS, RankDeficient, continuation_invert, match_projective_maps, newton_invert
from .numkernel import PrecisionPolicy, working_precision
from .periods import restricted_ode_X
from .polynomials import (RationalFunction, SparsePoly, UniPoly, gauss_jordan,
                          series_inverse, series_mul)

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


class _FactoredRF:
    """Rational function of X kept as numerator / product of factor powers;
    avoids per-operation gcds, cancelling only by exact trial division
    against the stored (primitive) factors."""

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: dict[UniPoly, int] | None = None,
                 cancel: bool = True):
        self.num = num
        self.den = {f: e for f, e in (den or {}).items() if e > 0}
        if not num:
            self.den = {}
        elif cancel and self.den:
            self._cancel()

    def _cancel(self):
        for f in list(self.den):
            e = self.den[f]
            while e > 0:
                try:
                    self.num = self.num.divide_exact(f)
                except ValueError:
                    break
                e -= 1
            if e:
                self.den[f] = e
            else:
                del self.den[f]

    @classmethod
    def const(cls, value) -> "_FactoredRF":
        return cls(UniPoly([value]), {}, cancel=False)

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def _den_poly(self) -> UniPoly:
        out = UniPoly([1])
        for f, e in self.den.items():
            out = out * f ** e
        return out

    def to_rational(self) -> RationalFunction:
        return RationalFunction(self.num, self._den_poly())

    def __add__(self, other: "_FactoredRF") -> "_FactoredRF":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        union = dict(self.den)
        for f, e in other.den.items():
            union[f] = max(union.get(f, 0), e)
        def lift(term: "_FactoredRF") -> UniPoly:
            n = term.num
            for f, e in union.items():
                missing = e - term.den.get(f, 0)
                if missing:
                    n = n * f ** missing
            return n
        return _FactoredRF(lift(self) + lift(other), union)

    def __neg__(self) -> "_FactoredRF":
        return _FactoredRF(-self.num, self.den, cancel=False)

    def __sub__(self, other: "_FactoredRF") -> "_FactoredRF":
        return self + (-other)

    def __mul__(self, other: "_FactoredRF") -> "_FactoredRF":
        if self.is_zero() or other.is_zero():
            return _FactoredRF.const(0)
        den = dict(self.den)
        for f, e in other.den.items():
            den[f] = den.get(f, 0) + e
        return _FactoredRF(self.num * other.num, den)

    def scale(self, c: Fraction) -> "_FactoredRF":
        return _FactoredRF(self.num * c, self.den, cancel=False)

    def __rtruediv__(self, c) -> "_FactoredRF":
        """c / self for a rational constant c."""
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        atom = self.num.primitive()
        den = {atom: 1} if atom.degree() > 0 else {}
        return _FactoredRF(self._den_poly() * (Fraction(c) / self.num.scale), den)

    def derivative(self) -> "_FactoredRF":
        dn = self.num.derivative()
        if not self.den:
            return _FactoredRF(dn, {}, cancel=False)
        # (n / prod f^e)' = [n' prod f - n sum e_i f_i' prod_{j != i} f_j] / prod f^(e+1)
        factors = list(self.den.items())
        prod_all = UniPoly([1])
        for f, _ in factors:
            prod_all = prod_all * f
        total = dn * prod_all
        for i, (f, e) in enumerate(factors):
            rest = UniPoly([1])
            for j, (g, _) in enumerate(factors):
                if j != i:
                    rest = rest * g
            total = total - self.num * (e * f.derivative()) * rest
        den = {f: e + 1 for f, e in factors}
        return _FactoredRF(total, den)


# tracked Y-order for the elimination; coefficient reads are precision-checked,
# so an insufficient value fails loudly instead of silently truncating
_REL_PREC = 8


class _YSeries:
    """Laurent series in Y with exact univariate rational functions of X as
    coefficients, truncated at an explicitly tracked order.

    Everything read below the tracked precision is exact; the elimination
    only ever needs the Y^0 coefficients of ratios at the end.
    """

    __slots__ = ("val", "coeffs", "prec")

    def __init__(self, val: int, coeffs: list[_FactoredRF], prec: int):
        self.val = val
        self.coeffs = coeffs
        self.prec = prec

    @classmethod
    def zero(cls, prec: int) -> "_YSeries":
        return cls(0, [], prec)

    @classmethod
    def from_quotient(cls, f: Quotient) -> "_YSeries":
        return cls._from_poly(f.num).mul(cls._from_poly(f.den).inverse())

    @staticmethod
    def _from_poly(p: SparsePoly) -> "_YSeries":
        rows = p.coeff_list("Y")
        if not rows:
            return _YSeries(0, [], _REL_PREC)
        val = next(j for j, c in enumerate(rows) if c)
        coeffs = [_FactoredRF(UniPoly.from_sparse(c, "X"), {}, cancel=False)
                  for c in rows[val:]]
        return _YSeries(val, coeffs, val + max(_REL_PREC, len(rows) - val))

    def normalized(self) -> "_YSeries":
        c = list(self.coeffs)
        v = self.val
        while c and c[0].is_zero():
            c.pop(0)
            v += 1
        return _YSeries(v, c, self.prec)

    def valuation(self) -> int:
        s = self.normalized()
        return s.val if s.coeffs else s.prec

    def coefficient(self, j: int) -> RationalFunction:
        if j >= self.prec:
            raise EliminationFailed(
                f"Y-order {j} beyond tracked precision {self.prec}")
        k = j - self.val
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k].to_rational()
        return RationalFunction(0)

    def _padded(self, val: int, prec: int) -> list[_FactoredRF]:
        zero = _FactoredRF.const(0)
        out = []
        for j in range(val, prec):
            k = j - self.val
            out.append(self.coeffs[k] if 0 <= k < len(self.coeffs) else zero)
        return out

    def add(self, other: "_YSeries") -> "_YSeries":
        val = min(self.val, other.val)
        prec = min(self.prec, other.prec)
        a = self._padded(val, prec)
        b = other._padded(val, prec)
        return _YSeries(val, [x + y for x, y in zip(a, b)], prec)

    def neg(self) -> "_YSeries":
        return _YSeries(self.val, [-c for c in self.coeffs], self.prec)

    def sub(self, other: "_YSeries") -> "_YSeries":
        return self.add(other.neg())

    def mul(self, other: "_YSeries") -> "_YSeries":
        a, b = self.normalized(), other.normalized()
        if not a.coeffs or not b.coeffs:
            prec = min(self.prec + other.valuation(), other.prec + self.valuation())
            return _YSeries(0, [], prec)
        val = a.val + b.val
        prec = min(a.prec + b.val, b.prec + a.val)
        return _YSeries(val, series_mul(a.coeffs, b.coeffs, prec - val), prec)

    def inverse(self) -> "_YSeries":
        s = self.normalized()
        if not s.coeffs:
            raise ZeroDivisionError("inverting a series that vanishes to precision")
        n = s.prec - s.val
        return _YSeries(-s.val, series_inverse(s.coeffs, n), -s.val + n)

    def derivative_X(self) -> "_YSeries":
        return _YSeries(self.val, [c.derivative() for c in self.coeffs], self.prec)

    def derivative_Y(self) -> "_YSeries":
        out = [c.scale(Fraction(self.val + k)) for k, c in enumerate(self.coeffs)]
        return _YSeries(self.val - 1, out, self.prec - 1)

    def derivative(self, var: str) -> "_YSeries":
        return self.derivative_X() if var == "X" else self.derivative_Y()


Vector = tuple[_YSeries, _YSeries, _YSeries, _YSeries]


def _vec_const(k: int) -> Vector:
    one = _YSeries(0, [_FactoredRF.const(1)], _REL_PREC)
    return tuple(one if i == k else _YSeries.zero(_REL_PREC)
                 for i in range(4))  # type: ignore[return-value]


def _vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x.add(y) for x, y in zip(a, b))  # type: ignore[return-value]


def _vec_scale(c: _YSeries, a: Vector) -> Vector:
    return tuple(c.mul(x) for x in a)  # type: ignore[return-value]


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
        s = {name: _YSeries.from_quotient(getattr(pde, name))
             for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1")}
        self.s = s
        self.table: dict[Jet, Vector] = {jet: _vec_const(i)
                                         for i, jet in enumerate(BASIS)}
        self.table[(2, 0)] = (s["P1"], s["A1"], s["B1"], s["L1"])
        self.table[(0, 2)] = (s["Q1"], s["C1"], s["D1"], s["M1"])

        # u_XXY = known21 + L1 u_XYY ; u_XYY = known12 + M1 u_XXY
        known21 = _vec_add(
            _vec_add(_vec_scale(s["L1"].derivative_Y().add(s["A1"]), _vec_const(3)),
                     _vec_scale(s["A1"].derivative_Y(), _vec_const(1))),
            _vec_add(_vec_scale(s["B1"].derivative_Y().add(s["P1"]), _vec_const(2)),
                     _vec_add(_vec_scale(s["P1"].derivative_Y(), _vec_const(0)),
                              _vec_scale(s["B1"], self.table[(0, 2)]))))
        known12 = _vec_add(
            _vec_add(_vec_scale(s["M1"].derivative_X().add(s["D1"]), _vec_const(3)),
                     _vec_scale(s["C1"].derivative_X().add(s["Q1"]), _vec_const(1))),
            _vec_add(_vec_scale(s["D1"].derivative_X(), _vec_const(2)),
                     _vec_add(_vec_scale(s["Q1"].derivative_X(), _vec_const(0)),
                              _vec_scale(s["C1"], self.table[(2, 0)]))))
        one = _YSeries(0, [_FactoredRF.const(1)], _REL_PREC)
        det = one.sub(s["L1"].mul(s["M1"]))
        inv = det.inverse()
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
        out = tuple(c.derivative(var) for c in vec)
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
    a2 = v3[2].mul(v4[3]).sub(v4[2].mul(v3[3]))
    a3 = v4[2].mul(v2[3]).sub(v2[2].mul(v4[3]))
    a4 = v2[2].mul(v3[3]).sub(v3[2].mul(v2[3]))
    a1 = a2.mul(v2[1]).add(a3.mul(v3[1])).add(a4.mul(v4[1])).neg()
    a0 = a2.mul(v2[0]).add(a3.mul(v3[0])).add(a4.mul(v4[0])).neg()
    inv_lead = a4.inverse()
    coeffs = []
    for a in (a0, a1, a2, a3):
        ratio = a.mul(inv_lead)
        if ratio.valuation() < 0:
            raise EliminationFailed("restricted coefficient has a pole on Y = 0")
        coeffs.append(ratio.coefficient(0))
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
        diff = a.sub(b).normalized()
        span = diff.prec - diff.val if diff.coeffs else diff.prec - min(a.val, b.val)
        checked = span if checked is None else min(checked, span)
        if any(not c.is_zero() for c in diff.coeffs):
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


class _BiSeries:
    """Truncated bivariate Taylor series at a base point, exact over Q."""

    __slots__ = ("terms", "order")

    def __init__(self, terms: dict[Jet, Fraction], order: int):
        self.order = order
        self.terms = {k: v for k, v in terms.items()
                      if v and k[0] + k[1] <= order}

    @classmethod
    def from_poly(cls, p: SparsePoly, base: tuple[Fraction, Fraction], order: int):
        shifted = p.shift({"X": base[0], "Y": base[1]})
        return cls({(e[0], e[1]): c for e, c in shifted.terms.items()}, order)

    def mul(self, other: "_BiSeries") -> "_BiSeries":
        out: dict[Jet, Fraction] = {}
        for (i, j), a in self.terms.items():
            for (k, l), b in other.terms.items():
                if i + k + j + l > self.order:
                    continue
                key = (i + k, j + l)
                out[key] = out.get(key, Fraction(0)) + a * b
        return _BiSeries(out, self.order)

    def inverse(self) -> "_BiSeries":
        c0 = self.terms.get((0, 0), Fraction(0))
        if c0 == 0:
            raise SingularBasePoint("denominator vanishes at the base point")
        inv = {(0, 0): 1 / c0}
        rest = {k: v for k, v in self.terms.items() if k != (0, 0)}
        # Newton-free: solve degree by degree
        for d in range(1, self.order + 1):
            for i in range(d + 1):
                key = (i, d - i)
                acc = Fraction(0)
                for (p, q), a in rest.items():
                    r = (key[0] - p, key[1] - q)
                    if r[0] >= 0 and r[1] >= 0:
                        acc += a * inv.get(r, Fraction(0))
                inv[key] = -acc / c0
        return _BiSeries(inv, self.order)


def _coefficient_series(base: tuple[Fraction, Fraction], order: int) -> dict[str, _BiSeries]:
    pde = build_pde()
    out = {}
    for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1"):
        rf: Quotient = getattr(pde, name)
        num = _BiSeries.from_poly(rf.num, base, order)
        den = _BiSeries.from_poly(rf.den, base, order)
        out[name] = num.mul(den.inverse())
    return out


@dataclass(frozen=True)
class JetBasisSolution:
    base: tuple[Fraction, Fraction]
    order: int
    grids: tuple[dict[Jet, Fraction], ...]  # one grid per free jet


def taylor_solution(base, jets, order: int,
                    coeff_series: dict[str, _BiSeries] | None = None) -> dict[Jet, Fraction]:
    """Taylor coefficients of the solution with prescribed
    (u, u_X, u_Y, u_XY)(base), generated level by level; the overdetermined
    level systems are solved exactly and any inconsistency raises."""
    base = (Fraction(base[0]), Fraction(base[1]))
    cs = coeff_series or _coefficient_series(base, order)
    t: dict[Jet, Fraction] = {
        (0, 0): Fraction(jets[0]), (1, 0): Fraction(jets[1]),
        (0, 1): Fraction(jets[2]), (1, 1): Fraction(jets[3]),
    }

    def series_coeff(name: str, i: int, j: int) -> Fraction:
        return cs[name].terms.get((i, j), Fraction(0))

    def known(i: int, j: int) -> Fraction:
        return t[(i, j)]

    for d in range(2, order + 1):
        unknowns = [(k, d - k) for k in range(d + 1)]
        index = {jet: k for k, jet in enumerate(unknowns)}
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []

        def coefficient_rows(which: str, i: int, j: int):
            """Linear equation from equation E_which at series order (i, j)."""
            row = [Fraction(0)] * (d + 1)
            b = Fraction(0)
            if which == "E1":
                lead, cross, cA, cB, cP = "L1", (i + 1, j + 1), "A1", "B1", "P1"
                row[index[(i + 2, j)]] += Fraction((i + 1) * (i + 2))
            else:
                lead, cross, cA, cB, cP = "M1", (i + 1, j + 1), "C1", "D1", "Q1"
                row[index[(i, j + 2)]] += Fraction((j + 1) * (j + 2))
            for p in range(i + 1):
                for q in range(j + 1):
                    ii, jj = i - p, j - q
                    cxy = series_coeff(lead, p, q) * (ii + 1) * (jj + 1)
                    if cxy:
                        jet = (ii + 1, jj + 1)
                        if jet[0] + jet[1] == d:
                            row[index[jet]] -= cxy
                        else:
                            b += cxy * known(*jet)
                    cx = series_coeff(cA, p, q) * (ii + 1)
                    if cx:
                        b += cx * known(ii + 1, jj)
                    cy = series_coeff(cB, p, q) * (jj + 1)
                    if cy:
                        b += cy * known(ii, jj + 1)
                    cu = series_coeff(cP, p, q)
                    if cu:
                        b += cu * known(ii, jj)
            rows.append(row)
            rhs.append(b)

        for k in range(2, d + 1):
            coefficient_rows("E1", k - 2, d - k)
        for k in range(0, d - 1):
            coefficient_rows("E2", k, d - k - 2)
        if d == 2:
            row = [Fraction(0)] * 3
            row[index[(1, 1)]] = Fraction(1)
            rows.append(row)
            rhs.append(t[(1, 1)])

        m = [row + [b] for row, b in zip(rows, rhs)]
        n = d + 1
        pivots = gauss_jordan(m, n)
        if any(row[n] != 0 for row in m[len(pivots):]):
            raise InconsistentReduction(
                f"level {d} system inconsistent at base {base}")
        if len(pivots) < n:
            raise InconsistentReduction(f"level {d} system underdetermined")
        for row, c in zip(m, pivots):
            t[unknowns[c]] = row[n]
    return t


def taylor_basis(base, order: int) -> JetBasisSolution:
    base = (Fraction(base[0]), Fraction(base[1]))
    cs = _coefficient_series(base, order)
    units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    grids = tuple(taylor_solution(base, u, order, cs) for u in units)
    return JetBasisSolution(base=base, order=order, grids=grids)


def evaluate_grid(grid: dict[Jet, Fraction], dx: Fraction, dy: Fraction) -> Fraction:
    total = Fraction(0)
    for (i, j), c in grid.items():
        total += c * dx ** i * dy ** j
    return total


# --------------------------------------------------- geometry of the solution


def estimate_singular_distance(base, grid_half_width: float = 1.5,
                               resolution: int = 61) -> float:
    """Numeric estimate of the distance from the base point to the union of
    the singular loci (the two coordinate axes, 36X^2 - 32X - Y = 0, and the
    quintic locus), used only to set safe sampling radii."""
    import numpy as np

    x0, y0 = float(base[0]), float(base[1])
    best = min(abs(x0), abs(y0))
    k2_coeffs = [UniPoly.from_sparse(c, "X").coefficients() for c in K2_LOCUS.coeff_list("Y")]

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


def sampling_offsets(base, count: int, scale_num: int = 1, scale_den: int = 64,
                     distance: float | None = None) -> list[tuple[Fraction, Fraction]]:
    """Real rational offsets on rings of radius distance * scale within the
    convergence region, exactly representable for the rational Taylor grids."""
    import math as _m

    d = distance if distance is not None else estimate_singular_distance(base)
    r = d * scale_num / scale_den
    out = []
    for k in range(count):
        angle = 2 * _m.pi * k / count + 0.37
        rho = r * (0.55 + 0.45 * ((k * 7919) % count) / max(count - 1, 1))
        dx = Fraction(round(rho * _m.cos(angle) * 2 ** 24), 2 ** 24)
        dy = Fraction(round(rho * _m.sin(angle) * 2 ** 24), 2 ** 24)
        out.append((dx, dy))
    return out


@dataclass(frozen=True)
class QuadricFit:
    matrix: object               # 4x4 numpy array
    holdout_residual: float
    rank: int
    eigenvalue_signs: tuple[int, ...]


def quadric_fit_from_vectors(vectors, holdout: int = 6,
                             nullity_tol: float = 1e-7) -> QuadricFit:
    """Fit one quadric through projective 4-vectors (nullspace of the
    10-column Gram design matrix); verify on held-out vectors."""
    import numpy as np

    vecs = [np.array([float(x) for x in v], dtype=float) for v in vectors]
    vecs = [v / np.linalg.norm(v) for v in vecs]
    fit = vecs[: len(vecs) - holdout]
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    design = np.array([[v[i] * v[j] for (i, j) in pairs] for v in fit])
    colscale = np.max(np.abs(design), axis=0)
    design = design / colscale
    _, svals, vh = np.linalg.svd(design)
    nullity = int(np.sum(svals < nullity_tol * svals[0]))
    if nullity != 1:
        raise RankDeficient(f"quadric nullity {nullity} != 1 "
                            f"(singular values {svals})")
    coeffs = vh[-1] / colscale
    q = np.zeros((4, 4))
    for c, (i, j) in zip(coeffs, pairs):
        if i == j:
            q[i, i] = c
        else:
            q[i, j] = q[j, i] = c / 2
    q /= np.linalg.norm(q)
    eigs = np.linalg.eigvalsh(q)
    rank = int(np.sum(np.abs(eigs) > 1e-8 * np.max(np.abs(eigs))))
    signs = tuple(int(np.sign(e)) for e in sorted(eigs))
    res = max(float(abs(v @ q @ v)) for v in vecs[len(vecs) - holdout:]) if holdout else 0.0
    return QuadricFit(matrix=q, holdout_residual=res, rank=rank,
                      eigenvalue_signs=signs)


def quadric_image_test(base, sample_count: int = 14, holdout: int = 6,
                       order: int = 10) -> QuadricFit:
    """Evaluate the four basis solutions near the base point and fit the
    quadric their projective image lies on."""
    basis = taylor_basis(base, order)
    offsets = sampling_offsets(base, sample_count + holdout)
    vectors = [[evaluate_grid(g, dx, dy) for g in basis.grids]
               for dx, dy in offsets]
    return quadric_fit_from_vectors(vectors, holdout=holdout)


def developing_map_match(base, sample_count: int = 10,
                         policy: PrecisionPolicy | None = None,
                         holdout: int = 4, order: int = 10,
                         seed_pair=None) -> dict:
    """Match the PDE basis-solution ratios against the lattice embedding of
    the theta-side inverse (z1, z2)(X, Y) by one projective transformation.

    This is the desk-scale machine check that the projectivized solutions
    develop the parameter space into the period domain.
    """
    base = (Fraction(base[0]), Fraction(base[1]))
    if base[1] == 0:
        raise SingularBasePoint("the system is singular along Y = 0")
    with working_precision(policy) as pol:
        basis = taylor_basis(base, order)
        offsets = sampling_offsets(base, sample_count + holdout)
        vectors = [[evaluate_grid(g, dx, dy) for g in basis.grids]
                   for dx, dy in offsets]
        if seed_pair is None:
            seed_pair = (mpmath.mpc("0.21", "1.05"), mpmath.mpc("-0.33", "1.48"))
        anchor = continuation_invert(base[0], base[1], seed_pair, pol, steps=10)
        jvecs = []
        prev = anchor.z
        for dx, dy in offsets:
            res = newton_invert(base[0] + dx, base[1] + dy, prev, pol)
            prev = res.z
            jvecs.append(j_map(prev, pol).xi)
        g, residual = match_projective_maps(vectors, jvecs, holdout=holdout)
        return {"transform": g, "holdout_residual": residual,
                "anchor": anchor, "samples": len(offsets)}
