"""Elliptic K3 surface charts for the two-parameter family, exact discriminants,
Kodaira fiber classification, the boundary one-parameter family, and the
birational transport back to the source family.

Classification over Q is fully exact (squarefree decomposition, never floating
root finding); a numeric fallback for complex parameters exists but is labeled
non-certified.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .numkernel import PrecisionPolicy, to_mpc, working_precision
from .polynomials import SparsePoly, UniPoly

CHART_VARS = ("X", "Y", "y")


class NonMinimal(Exception):
    """(v_g2, v_g3, v_disc) >= (4, 6, 12): caller must minimalize first."""


class DegenerateSample(Exception):
    pass


class OutsideParameterDomain(Exception):
    pass


# ------------------------------------------------------------- Kodaira types

EULER_NUMBERS = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


@dataclass(frozen=True)
class KodairaType:
    tag: str                 # 'I_n', 'I_n*', 'II', ..., 'smooth'
    n: int | None = None

    @property
    def euler(self) -> int:
        if self.tag == "smooth":
            return 0
        if self.tag == "I_n":
            return self.n
        if self.tag == "I_n*":
            return self.n + 6
        return EULER_NUMBERS[self.tag]

    def __str__(self) -> str:
        if self.tag == "I_n":
            return f"I{self.n}"
        if self.tag == "I_n*":
            return f"I{self.n}*"
        return self.tag


def kodaira_type(v_g2: int, v_g3: int, v_disc: int) -> KodairaType:
    """Standard Kodaira table keyed on the valuations of g2, g3, disc of a
    minimal Weierstrass equation z^2 = x^3 - g2 x - g3."""
    if v_disc < 0:
        raise ValueError("negative discriminant valuation")
    if v_disc == 0:
        return KodairaType("smooth")
    if v_g2 >= 4 and v_g3 >= 6 and v_disc >= 12:
        raise NonMinimal(f"(v_g2, v_g3, v_disc) = ({v_g2}, {v_g3}, {v_disc})")
    if v_g2 == 0 and v_g3 == 0:
        return KodairaType("I_n", v_disc)
    if v_g2 == 2 and v_g3 == 3 and v_disc >= 7:
        return KodairaType("I_n*", v_disc - 6)
    if v_disc == 2:
        return KodairaType("II")
    if v_disc == 3:
        return KodairaType("III")
    if v_disc == 4:
        return KodairaType("IV")
    if v_disc == 6:
        return KodairaType("I_n*", 0)
    if v_disc == 8:
        return KodairaType("IV*")
    if v_disc == 9:
        return KodairaType("III*")
    if v_disc == 10:
        return KodairaType("II*")
    raise ValueError(f"no Kodaira row matches ({v_g2}, {v_g3}, {v_disc})")


def _minimalized(v_g2: int, v_g3: int, v_disc: int) -> KodairaType:
    while v_g2 >= 4 and v_g3 >= 6 and v_disc >= 12:
        v_g2 -= 4
        v_g3 -= 6
        v_disc -= 12
    return kodaira_type(v_g2, v_g3, v_disc)


# ------------------------------------------------------------ chart building


@dataclass(frozen=True)
class WeierstrassChart:
    """Depressed cubic data z^2 = x^3 - g2(y) x - g3(y) over one affine chart
    of the base line; disc = 4 g2^3 - 27 g3^2.  A symbolic chart holds
    SparsePolys in CHART_VARS; a chart at a point holds UniPolys in `var`."""

    var: str
    g2: SparsePoly | UniPoly
    g3: SparsePoly | UniPoly
    disc: SparsePoly | UniPoly


def _depress(c2: SparsePoly, c1: SparsePoly, c0: SparsePoly, var: str) -> WeierstrassChart:
    g2 = c2 * c2 * Fraction(1, 3) - c1
    g3 = -c0 + c1 * c2 * Fraction(1, 3) - c2 ** 3 * Fraction(2, 27)
    disc = 4 * g2 ** 3 - 27 * g3 ** 2
    return WeierstrassChart(var=var, g2=g2, g3=g3, disc=disc)


def _chart_at_infinity(c2: SparsePoly, c1: SparsePoly, c0: SparsePoly,
                       var: str) -> tuple[SparsePoly, SparsePoly, SparsePoly]:
    """c_k(y) -> y1^(4k) c_k(1/y1) for the K3 rescaling x -> x/y1^4, z -> z/y1^6."""
    i = c2.vars.index(var)

    def flip(c: SparsePoly, k: int) -> SparsePoly:
        out = {}
        for expo, coeff in c.terms.items():
            if expo[i] > 4 * k:
                raise ValueError(f"degree too high for a K3 chart: {expo}")
            new = list(expo)
            new[i] = 4 * k - expo[i]
            out[tuple(new)] = coeff
        return SparsePoly(c.vars, out)

    return flip(c2, 1), flip(c1, 2), flip(c0, 3)


@functools.cache
def family_charts_symbolic() -> tuple[WeierstrassChart, WeierstrassChart]:
    """Both Weierstrass charts of z^2 = x^3 - 4y^2(4y-5)x^2 + 20X y^3 x + Y y^4
    with X, Y kept symbolic (variables 'X', 'Y', fiber coordinate 'y')."""
    y = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    c2 = -4 * y ** 2 * (4 * y - 5)
    c1 = 20 * X * y ** 3
    c0 = Y * y ** 4
    chart0 = _depress(c2, c1, c0, "y")
    c2i, c1i, c0i = _chart_at_infinity(c2, c1, c0, "y")
    chart_inf = _depress(c2i, c1i, c0i, "y")
    return chart0, chart_inf


def displayed_discriminant_0() -> SparsePoly:
    """The finite-chart discriminant as displayed: y^8 (27 Y^2 + 32000 X^3 y
    - 7200 X Y y - ... - 16384 Y y^5)."""
    y = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    inner = (27 * Y ** 2 + 32000 * X ** 3 * y - 7200 * X * Y * y
             - 160000 * X ** 2 * y ** 2 + 32000 * Y * y ** 2 + 5760 * X * Y * y ** 2
             + 256000 * X ** 2 * y ** 3 - 76800 * Y * y ** 3
             - 102400 * X ** 2 * y ** 4 + 61440 * Y * y ** 4
             - 16384 * Y * y ** 5)
    return y ** 8 * inner


def displayed_discriminant_infinity() -> SparsePoly:
    y1 = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    inner = (-16384 * Y - 102400 * X ** 2 * y1 + 61440 * Y * y1
             + 256000 * X ** 2 * y1 ** 2 - 76800 * Y * y1 ** 2
             - 160000 * X ** 2 * y1 ** 3 + 32000 * Y * y1 ** 3 + 5760 * X * Y * y1 ** 3
             + 32000 * X ** 3 * y1 ** 4 - 7200 * X * Y * y1 ** 4
             + 27 * Y ** 2 * y1 ** 5)
    return y1 ** 11 * inner


def displayed_chart0_g2_g3() -> tuple[SparsePoly, SparsePoly]:
    y = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    g2 = -(20 * X * y ** 3 - Fraction(16, 3) * y ** 4 * (4 * y - 5) ** 2)
    g3 = -(Y * y ** 4 + Fraction(80, 3) * y ** 5 * (4 * y - 5) * X
           - Fraction(128, 27) * y ** 6 * (4 * y - 5) ** 3)
    return g2, g3


def displayed_chart_inf_h2_h3() -> tuple[SparsePoly, SparsePoly]:
    y1 = SparsePoly.variable(CHART_VARS, "y")
    X = SparsePoly.variable(CHART_VARS, "X")
    Y = SparsePoly.variable(CHART_VARS, "Y")
    h2 = -(20 * X * y1 ** 5 - Fraction(256, 3) * y1 ** 2 + Fraction(640, 3) * y1 ** 3
           - Fraction(400, 3) * y1 ** 4)
    h3 = -(Y * y1 ** 8 + Fraction(320, 3) * X * y1 ** 6 - Fraction(400, 3) * X * y1 ** 7
           - Fraction(8192, 27) * y1 ** 3 + Fraction(10240, 9) * y1 ** 4
           - Fraction(12800, 9) * y1 ** 5 + Fraction(16000, 27) * y1 ** 6)
    return h2, h3


def _at_point(chart: WeierstrassChart, subs: dict[str, Fraction]) -> WeierstrassChart:
    """A symbolic chart with X and Y substituted, as UniPolys in its fiber
    coordinate."""
    def uni(p: SparsePoly) -> UniPoly:
        return UniPoly.from_sparse(p.substitute(subs), chart.var)
    return WeierstrassChart(var=chart.var, g2=uni(chart.g2), g3=uni(chart.g3),
                            disc=uni(chart.disc))


def weierstrass_data(X, Y) -> tuple[WeierstrassChart, WeierstrassChart]:
    """Both charts with rational (X, Y) substituted; univariate in y."""
    subs = {"X": Fraction(X), "Y": Fraction(Y)}
    chart0, chart_inf = family_charts_symbolic()
    return _at_point(chart0, subs), _at_point(chart_inf, subs)


# ------------------------------------------------------------ classification


@dataclass(frozen=True)
class FiberPlacement:
    location: str
    type: KodairaType
    count: int = 1

    def __str__(self) -> str:
        prefix = f"{self.count} x " if self.count > 1 else ""
        return f"{prefix}{self.type} at {self.location}"


@dataclass(frozen=True)
class FiberConfiguration:
    placements: tuple[FiberPlacement, ...]
    euler_total: int
    degenerate: bool = False
    certified: bool = True

    @property
    def is_k3(self) -> bool:
        return not self.degenerate and self.euler_total == 24

    def summary(self) -> str:
        if self.degenerate:
            return "degenerate (discriminant vanishes identically)"
        names: list[str] = []
        for p in self.placements:
            if p.type.tag == "smooth":
                continue
            names.append(f"{p.count}{p.type}" if p.count > 1 else str(p.type))
        return " + ".join(names)

    def multiset(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for p in self.placements:
            if p.type.tag == "smooth":
                continue
            out[str(p.type)] = out.get(str(p.type), 0) + p.count
        return out


def _poly_valuation_of_factor(p: UniPoly, factor: UniPoly) -> int:
    """Largest k with factor^k dividing p (0 if p is zero-free of it)."""
    if not p:
        raise ValueError("valuation of the zero polynomial")
    k = 0
    while True:
        q, r = p.divmod(factor)
        if r:
            return k
        p = q
        k += 1


def _classify_chart_origin(chart: WeierstrassChart, location: str) -> FiberPlacement:
    v2 = chart.g2.valuation() if chart.g2 else 10 ** 9
    v3 = chart.g3.valuation() if chart.g3 else 10 ** 9
    return FiberPlacement(location=location,
                          type=_minimalized(v2, v3, chart.disc.valuation()))


def _classify_finite_nonzero(chart: WeierstrassChart) -> list[FiberPlacement]:
    """Fibers at the nonzero roots of the discriminant in this chart, handled
    through exact squarefree decomposition; each squarefree factor is split
    against g2/g3 so every root in a piece shares its valuation triple."""
    rest = chart.disc.divide_exact(UniPoly([0, 1]) ** chart.disc.valuation())
    placements: list[FiberPlacement] = []
    if rest.degree() == 0:
        return placements
    for factor, mult in rest.squarefree():
        pieces = [factor]
        for other in (chart.g2, chart.g3):
            refined = []
            for piece in pieces:
                g = piece.gcd(other) if other else piece
                if 0 < g.degree() < piece.degree():
                    refined.extend([g, piece.divide_exact(g)])
                else:
                    refined.append(piece)
            pieces = refined
        for piece in pieces:
            deg = piece.degree()
            if deg == 0:
                continue
            v2 = _poly_valuation_of_factor(chart.g2, piece) if chart.g2 else 10 ** 9
            v3 = _poly_valuation_of_factor(chart.g3, piece) if chart.g3 else 10 ** 9
            placements.append(FiberPlacement(
                location=f"roots of {piece.format(chart.var)}",
                type=_minimalized(v2, v3, mult),
                count=deg,
            ))
    return placements


def classify_charts(chart0: WeierstrassChart,
                    chart_inf: WeierstrassChart) -> FiberConfiguration:
    if not chart0.disc or not chart_inf.disc:
        return FiberConfiguration(placements=(), euler_total=0, degenerate=True)
    placements = [_classify_chart_origin(chart0, "y=0"),
                  _classify_chart_origin(chart_inf, "y=infinity")]
    placements.extend(_classify_finite_nonzero(chart0))
    euler = sum(p.type.euler * p.count for p in placements)
    placements = [p for p in placements if p.type.tag != "smooth"]
    return FiberConfiguration(placements=tuple(placements), euler_total=euler)


def classify_fibers(X, Y) -> FiberConfiguration:
    """Exact fiber configuration of the surface with rational parameters."""
    chart0, chart_inf = weierstrass_data(X, Y)
    return classify_charts(chart0, chart_inf)


def classify_boundary_family(l) -> FiberConfiguration:
    """Exact classification of the boundary family
    z^2 = x^3 - 16 l y^3 x^2 + 20 y^3 x + y^4 (one rational parameter l)."""
    y = SparsePoly.variable(CHART_VARS, "y")
    c2 = -16 * Fraction(l) * y ** 3
    c1 = 20 * y ** 3
    c0 = y ** 4
    chart0 = _depress(c2, c1, c0, "y")
    chart_inf = _depress(*_chart_at_infinity(c2, c1, c0, "y"), "y")
    return classify_charts(_at_point(chart0, {}), _at_point(chart_inf, {}))


def classify_fibers_numeric(X, Y, policy: PrecisionPolicy | None = None,
                            cluster_tol: float = 1e-8) -> FiberConfiguration:
    """Numeric (non-certified) classification for complex parameters: fiber
    locations from numpy roots with multiplicity clustering."""
    import numpy as np

    chart0_s, chart_inf_s = family_charts_symbolic()
    with working_precision(policy):
        Xc, Yc = complex(to_mpc(X)), complex(to_mpc(Y))

    def numeric_chart(chart: WeierstrassChart):
        coeffs = {}
        for expo, coeff in chart.disc.terms.items():
            k = expo[CHART_VARS.index("y")]
            coeffs[k] = coeffs.get(k, 0) + complex(coeff) * Xc ** expo[0] * Yc ** expo[1]
        deg = max(coeffs)
        return [coeffs.get(k, 0.0) for k in range(deg + 1)]

    placements = [
        _classify_chart_origin(*_numeric_origin(chart0_s, Xc, Yc, "y=0")),
        _classify_chart_origin(*_numeric_origin(chart_inf_s, Xc, Yc, "y=infinity")),
    ]
    dense = numeric_chart(chart0_s)
    v0 = next(k for k, c in enumerate(dense) if abs(c) > 1e-12)
    tailcoeffs = dense[v0:]
    roots = np.roots(list(reversed(tailcoeffs)))
    used = [False] * len(roots)
    for i, r in enumerate(roots):
        if used[i]:
            continue
        mult = 1
        used[i] = True
        for j in range(i + 1, len(roots)):
            if not used[j] and abs(roots[j] - r) < cluster_tol:
                mult += 1
                used[j] = True
        placements.append(FiberPlacement(location=f"y={r:.6g}",
                                         type=KodairaType("I_n", mult)))
    euler = sum(p.type.euler * p.count for p in placements)
    placements = [p for p in placements if p.type.tag != "smooth"]
    return FiberConfiguration(placements=tuple(placements), euler_total=euler,
                              certified=False)


def _numeric_origin(chart: WeierstrassChart, Xc: complex, Yc: complex, loc: str):
    def subs(p: SparsePoly) -> UniPoly:
        terms: dict[int, complex] = {}
        for expo, coeff in p.terms.items():
            k = expo[CHART_VARS.index("y")]
            terms[k] = terms.get(k, 0) + complex(coeff) * Xc ** expo[0] * Yc ** expo[1]
        # numeric valuation only: a placeholder polynomial in y marking the
        # nonzero coefficients
        return UniPoly([int(abs(terms.get(k, 0)) > 1e-12)
                        for k in range(max(terms, default=-1) + 1)])

    return (WeierstrassChart(var="y", g2=subs(chart.g2), g3=subs(chart.g3),
                             disc=subs(chart.disc)), loc)


# --------------------------------------------------------- birational checks


def lambda_mu_to_XY(lam, mu, policy: PrecisionPolicy | None = None):
    """(lambda, mu) -> (X, Y) = (25 mu / (2 (lambda - 1/4)^3),
    -3125 mu^2 / (lambda - 1/4)^5), with the domain inequations enforced."""
    with working_precision(policy) as pol:
        lc, mc = to_mpc(lam), to_mpc(mu)
        gate = lc * mc * (lc ** 2 * (4 * lc - 1) ** 3
                          - 2 * (2 + 25 * lc * (20 * lc - 1)) * mc
                          - 3125 * mc ** 2)
        if abs(gate) < pol.verify_tol:
            raise OutsideParameterDomain(
                "(lambda, mu) violates the source-family inequations")
        shift = lc - mpmath.mpf(1) / 4
        return 25 * mc / (2 * shift ** 3), -3125 * mc ** 2 / shift ** 5


def birational_transport(lam, mu, sample,
                         policy: PrecisionPolicy | None = None) -> mpmath.mpf:
    """End-to-end check of the birational substitution: take a point on the
    intermediate surface over (X, Y), push it through the displayed
    (x0, y0, z0) formulas, and return the relative residual of the source
    family's defining equation."""
    with working_precision(policy) as pol:
        X, Y = lambda_mu_to_XY(lam, mu, pol)
        lc, mc = to_mpc(lam), to_mpc(mu)
        x1, y1 = to_mpc(sample[0]), to_mpc(sample[1])
        rhs = Y * (x1 ** 3 - 4 * y1 ** 2 * (4 * y1 - 5) * x1 ** 2
                   + 20 * X * y1 ** 3 * x1 + Y * y1 ** 4)
        z1 = mpmath.sqrt(rhs)
        den_y0 = (-50 * X ** 2 * Y * x1 * y1 - 5 * X * Y ** 2 * y1 ** 2
                  + 5 * X * Y * z1)
        den_z0 = 20 * X * Y * x1 * y1
        if min(abs(x1), abs(den_y0), abs(den_z0)) < pol.verify_tol:
            raise DegenerateSample("substitution denominator vanishes at sample")
        x0 = Y * y1 / (10 * X * x1)
        y0 = 4 * Y ** 2 * x1 * y1 ** 2 / den_y0
        z0 = -(10 * X * Y * x1 * y1 + Y ** 2 * y1 ** 2 - Y * z1) / den_z0
        terms = [x0 * y0 * z0 ** 2 * (x0 + y0 + z0 + 1), lc * x0 * y0 * z0, mc]
        scale = max(abs(t) for t in terms)
        return abs(sum(terms)) / scale


def surface_ABC_residual(A, B, C, point, policy: PrecisionPolicy | None = None) -> mpmath.mpf:
    """Relative residual of z^2 = x^3 - 4(4y^3 - 5A y^2)x^2 + 20B y^3 x + C y^4."""
    with working_precision(policy):
        a, b, c = to_mpc(A), to_mpc(B), to_mpc(C)
        x, y, z = (to_mpc(v) for v in point)
        terms = [z ** 2, -x ** 3, 4 * (4 * y ** 3 - 5 * a * y ** 2) * x ** 2,
                 -20 * b * y ** 3 * x, -c * y ** 4]
        scale = max(abs(t) for t in terms)
        return abs(sum(terms)) / scale
