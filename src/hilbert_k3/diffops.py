"""Univariate linear differential operators over Q(t): composition, indicial
equations, and exact Frobenius series solutions (with log terms at resonances).

Everything here is exact rational arithmetic; truncation orders of formal
series are explicit and arithmetic never reads past them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .polynomials import FormalSeries, RationalFunction, UniPoly, _convolve, _divide_ints


class IrregularSingular(Exception):
    """Pole orders exceed the Fuchs bounds at the requested point."""


class NonRationalRoot(Exception):
    """The indicial polynomial has an irreducible factor of degree > 1 over Q."""


class IncompleteBasis(Exception):
    """A Frobenius basis has an unexpected log structure."""


INFINITY = "infinity"


# ------------------------------------------------------------ log series


class LogSeries:
    """Finite sum over l of series_l(t) * log(t)^l with exact series components."""

    __slots__ = ("var", "parts")

    def __init__(self, var: str, parts: dict[int, FormalSeries]):
        self.var = var
        self.parts = dict(parts)

    @classmethod
    def from_series(cls, s: FormalSeries) -> "LogSeries":
        return cls(s.var, {0: s})

    def log_degree(self) -> int:   # of a log series that does not vanish to its precision
        return max(l for l, s in self.parts.items() if not s.is_zero_to_precision())

    def is_zero_to_precision(self) -> bool:
        return all(s.is_zero_to_precision() for s in self.parts.values())

    @classmethod
    def _sum(cls, var: str, terms) -> "LogSeries":
        """The sum of s log(t)^l over the pairs (l, s) of ``terms``."""
        out: dict[int, FormalSeries] = {}
        for l, s in terms:
            out[l] = out[l] + s if l in out else s
        return cls(var, out)

    def __add__(self, other: "LogSeries") -> "LogSeries":
        return LogSeries._sum(self.var, [*self.parts.items(), *other.parts.items()])

    def __sub__(self, other: "LogSeries") -> "LogSeries":
        return self + other.scale(-1)

    def scale(self, c) -> "LogSeries":
        return LogSeries(self.var, {l: s * c for l, s in self.parts.items()})

    def __mul__(self, other: "LogSeries") -> "LogSeries":
        return LogSeries._sum(self.var, ((l1 + l2, s1 * s2) for l1, s1 in self.parts.items()
                                         for l2, s2 in other.parts.items()))

    def multiply_rational(self, f: RationalFunction) -> "LogSeries":
        return LogSeries(self.var, {l: s.multiply_rational(f) for l, s in self.parts.items()})

    def derivative(self) -> "LogSeries":
        # d/dt (f log^l) = f' log^l + l f t^-1 log^(l-1)
        return LogSeries._sum(self.var, [(l, s.derivative()) for l, s in self.parts.items()]
                              + [(l - 1, s.shift_exponent(-1) * l)
                                 for l, s in self.parts.items() if l >= 1])


# --------------------------------------------------------------- the operator


class DiffOperator:
    """sum_k coeffs[k] * d^k/dt^k with rational-function coefficients."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var: str, coeffs: Sequence[RationalFunction]):
        coeffs = list(coeffs)
        if not coeffs or coeffs[-1].is_zero():
            raise ValueError("an operator needs a nonzero leading coefficient")
        self.var = var
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiffOperator) and self.var == other.var
                and self.coeffs == other.coeffs)

    def monic(self) -> "DiffOperator":
        lead = self.coeffs[-1]
        return DiffOperator(self.var, [c / lead for c in self.coeffs])

    def cleared(self) -> list[UniPoly]:
        """Polynomial coefficients after multiplying by the lcm of the reduced
        denominators, scaled so the leading one is primitive with positive
        leading coefficient."""
        parts = [c.reduced() for c in self.coeffs]
        den = UniPoly([1])
        for _, d in parts:
            den = (den * d).divide_exact(den.gcd(d))
        polys = [n * den.divide_exact(d) for n, d in parts]
        return [p * (1 / polys[-1].scale) for p in polys]

    # ---------------------------------------------------------- application

    def apply(self, f):
        """Apply to a FormalSeries or LogSeries, exactly."""
        if isinstance(f, FormalSeries):
            f = LogSeries.from_series(f)
        total = f.multiply_rational(self.coeffs[0])
        for c in self.coeffs[1:]:
            f = f.derivative()
            total = total + f.multiply_rational(c)
        return total

    def compose(self, other: "DiffOperator") -> "DiffOperator":
        """(self o other) u = self(other(u))."""
        if self.var != other.var:
            raise ValueError("operators in different variables")
        return DiffOperator(self.var, _leibniz(self.coeffs, 1, other.coeffs))

    # ------------------------------------------------- variable substitutions

    def rescale_variable(self, factor) -> "DiffOperator":
        """Return the operator in s where t = factor * s (same variable name)."""
        factor = Fraction(factor)
        return DiffOperator(self.var, [c.affine(factor, 0) * Fraction(1, factor ** k)
                                       for k, c in enumerate(self.coeffs)])

    def invert_variable(self) -> "DiffOperator":
        """Return the operator in s where t = 1/s (d/dt = -s^2 d/ds)."""

        def sub_inv(f: RationalFunction) -> RationalFunction:
            num, den = f.num, f.den
            m = max(num.degree(), den.degree())
            return RationalFunction(num.reverse(m), den.reverse(m))

        minus_s2 = RationalFunction(UniPoly([0, 0, -1]))
        return DiffOperator(self.var, _leibniz([sub_inv(c) for c in self.coeffs], minus_s2,
                                               [RationalFunction(1)]))

    def rename_variable(self, new: str) -> "DiffOperator":
        return DiffOperator(new, self.coeffs)

    def shift_variable(self, c) -> "DiffOperator":
        """Return the operator in s where t = s + c."""
        c = Fraction(c)
        if c == 0:
            return self
        return DiffOperator(self.var, [coeff.affine(1, c) for coeff in self.coeffs])


def _leibniz(coeffs: Sequence[RationalFunction], m: RationalFunction | int,
             row: list[RationalFunction]) -> list[RationalFunction]:
    """The coefficients of sum_k coeffs[k] (m D)^k B, where B = sum_j row[j] D^j
    and m is a rational function or 1: by Leibniz, (m D) maps b D^j to
    m b' D^j + m b D^(j+1)."""
    zero = RationalFunction(0)
    result = [zero] * (len(coeffs) + len(row) - 1)
    for k, c in enumerate(coeffs):
        if k > 0:
            new_row = [zero] * (len(row) + 1)
            for j, b in enumerate(row):
                new_row[j] = new_row[j] + m * b.derivative()
                new_row[j + 1] = new_row[j + 1] + m * b
            row = new_row
        if c.is_zero():
            continue
        for j, b in enumerate(row):
            result[j] = result[j] + c * b
    return result


# ------------------------------------------------------------ indicial theory


def _theta_form(op: DiffOperator) -> list[UniPoly]:
    """Write the operator as sum_j t^j q_j(theta) (theta = t d/dt).

    Returns q_0..q_J as polynomials in rho, the operator premultiplied by
    t^s / (content), with the least shift s that clears Laurent terms.
    """
    polys = op.cleared()
    s = max(k - p.valuation() for k, p in enumerate(polys) if p)
    # falling factorials rho (rho-1) ... (rho-k+1)
    ff = [UniPoly([1])]
    for k in range(1, len(polys)):
        ff.append(ff[-1] * UniPoly([-(k - 1), 1]))
    max_j = max((p.degree() - k + s) for k, p in enumerate(polys) if p)
    q = [UniPoly() for _ in range(max_j + 1)]
    for k, p in enumerate(polys):
        for e, coeff in enumerate(p.coefficients()):
            if not coeff:
                continue
            j = e - k + s
            if j < 0:
                raise IrregularSingular(
                    f"pole order too high at t=0 (term k={k}, degree {e})")
            q[j] = q[j] + ff[k] * coeff
    return q


def _divisors(n: int) -> list[int]:
    """The positive divisors of the nonzero integer n."""
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _rational_roots(p: UniPoly) -> list[tuple[Fraction, int]]:
    """All roots of a univariate rational polynomial, with multiplicity.

    Raises NonRationalRoot when an irreducible non-linear factor remains.
    Each primitive squarefree factor, with x divided out first, has integer
    coefficients a_0 ... a_n and a_0 != 0; by the rational root theorem a
    root s/q in lowest terms has s | a_0 and q | a_n.  Each such candidate is
    tested by exact evaluation.
    """
    out: list[tuple[Fraction, int]] = []
    for factor, mult in p.squarefree():
        if not factor.ints[0]:
            out.append((Fraction(0), mult))
            factor = factor.divide_exact(UniPoly([0, 1]))
        for q in _divisors(factor.ints[-1]):
            for s in _divisors(factor.ints[0]):
                for root in (Fraction(s, q), Fraction(-s, q)):
                    # skip a candidate not in lowest terms: it comes again as one
                    if factor.degree() > 0 and root.denominator == q and not factor(root):
                        out.append((root, mult))
                        factor = factor.divide_exact(UniPoly([-root, 1]))
        if factor.degree() > 0:
            raise NonRationalRoot(
                f"irrational indicial factor: {factor.format('rho')}")
    return out


def _local_theta_form(op: DiffOperator, point) -> tuple[DiffOperator, list[UniPoly]]:
    """The operator in the local variable at a finite rational point (t - point)
    or at 'infinity' (1/t), and its theta form q_0..q_J.  Raises
    IrregularSingular unless the point is regular singular or ordinary."""
    local = op.invert_variable() if point == INFINITY else op.shift_variable(point)
    q = _theta_form(local)
    if q[0].degree() < local.order:
        raise IrregularSingular(
            f"indicial polynomial degenerates at {point} (irregular singularity)")
    return local, q


def indicial_exponents(op: DiffOperator, point) -> list[Fraction]:
    """Sorted indicial exponents (with multiplicity) at a finite rational point
    or at the string 'infinity'.  Raises IrregularSingular / NonRationalRoot."""
    _, q = _local_theta_form(op, point)
    roots: list[Fraction] = []
    for root, mult in _rational_roots(q[0]):
        roots.extend([root] * mult)
    return sorted(roots)


# ------------------------------------------------------------- Frobenius jets
# The recurrence runs on jets: c_n, the series coefficient at
# rho = root + n + eps as its Taylor coefficients in eps, is an int list over
# one positive int denominator, known to eps^(its length).  Below higher roots
# of total multiplicity `above` in its integer class, a root of multiplicity
# mult starts from c_0 = eps^above known to eps^(2 above + mult).  A term
# q_j(root + n - j + eps) c_(n-j) is known as far as c_(n-j), so no less far
# than c_(n-1), and dividing by q_0(root + n + eps) loses m leading terms
# exactly where root + n is a higher root of multiplicity m: the precision
# that FormalSeries tracks.  q_0 has degree the order and only rational roots
# (`_local_theta_form` and `_rational_roots` return only then), so crossing
# the higher roots costs `above` terms and valuation in all.  Invariant: every
# jet is known to at least above + mult terms, the eps-derivatives the log
# solutions read, and q_0(root + n + eps), n >= 1, vanishes to m <= above, never
# to a jet's precision; the sum it divides vanishes to at least above less the
# multiplicity crossed before n, so to at least m, and no quotient has a pole.
# The root's solutions are the eps^k coefficients for above <= k < above + mult
# (Ince, Ordinary Differential Equations, 1926, section 16): each has
# t^root log^(k - above) / (k - above)! as its lowest term and the higher
# roots' solutions have no t^root term, so the basis is independent by
# construction; the k < above coefficients are dependent or zero.


def _taylor_table(p: UniPoly, n: int, den: int) -> list[list[int]]:
    """Int polynomials T_0 .. T_(n-1) in s, constant term first, with
    den p(s + eps) = sum_i T_i(s) eps^i modulo eps^n: T_i is den p^(i) / i!,
    for den a multiple of the denominator of p's scale."""
    m = int(den * p.scale)
    return [[m * math.comb(k, i) * a for k, a in enumerate(p.ints[i:], i)] for i in range(n)]


def _horner(ints: list[int], x: int) -> int:
    """The int polynomial `ints`, constant term first, at x."""
    acc = 0
    for a in reversed(ints):
        acc = acc * x + a
    return acc


def series_solve(op: DiffOperator, point, order: int) -> list[LogSeries]:
    """Exact Frobenius basis at a regular singular (or ordinary) rational point.

    Each element is a LogSeries in the local variable t - point; substituting
    back into the operator gives a residual that vanishes to the truncation
    order.  Solutions at exponent collisions carry explicit log components;
    the selection is the Frobenius method's (see the comment above).
    """
    local, q = _local_theta_form(op, point)

    # integer-difference classes, each in ascending order
    classes: dict[Fraction, list[tuple[Fraction, int]]] = {}
    for root, mult in sorted(_rational_roots(q[0])):
        classes.setdefault(root % 1, []).append((root, mult))

    var = local.var
    solutions: list[LogSeries] = []
    for cls in classes.values():
        top = cls[-1][0]
        above = 0
        for root, mult in reversed(cls):
            n_terms = order + int(top - root) + 1
            shifted = [p.affine(1, root) for p in q]
            den = math.lcm(*(p.scale.denominator for p in shifted))
            tables = [_taylor_table(p, 2 * above + mult, den) for p in shifted]
            # (c_n, its denominator), with c_0 = eps^above
            jets = [([0] * above + [1] + [0] * (above + mult - 1), 1)]
            for n in range(1, n_terms):
                prec = len(jets[-1][0])
                terms = [(tables[j], n - j, *jets[n - j]) for j in range(1, min(n, len(q) - 1) + 1)]
                lcm = math.lcm(*(d for *_, d in terms))
                acc = [0] * prec
                for table, x, c, d in terms:
                    term = _convolve([_horner(row, x) for row in table[:prec]], c, prec)
                    acc = [a + lcm // d * t for a, t in zip(acc, term)]
                b = [_horner(row, n) for row in tables[0][:prec]]
                v0 = next(i for i, v in enumerate(b) if v)
                # eps^v0 c_n = -acc / (lcm b[v0:]) = -r / (lcm b[v0]^prec), over a
                # denominator made positive by the sign of the gcd
                r = _divide_ints(acc, b[v0:], prec)
                d = lcm * b[v0] ** prec
                g = math.gcd(d, *r) * ((d > 0) - (d < 0))
                jets.append(([-v // g for v in r[v0:]], d // g))
            # sum_l log^l / l! * sum_n c_n^{(k-l)}/(k-l)! t^(root+n)
            lcm = math.lcm(*(d for _, d in jets))
            for k in range(above, above + mult):
                solutions.append(LogSeries(var, {l: FormalSeries(var, root, UniPoly._from_ints(
                    [c[k - l] * (lcm // d) for c, d in jets], Fraction(1, lcm * math.factorial(l))),
                    root + n_terms) for l in range(k + 1)}))
            above += mult
    return solutions
