"""Elliptic K3 surface charts for the two-parameter family, exact discriminants,
Kodaira fiber classification and the boundary one-parameter family.

Classification over Q is fully exact (squarefree decomposition, never floating
root finding).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .polynomials import SparsePoly, UniPoly

CHART_VARS = ("X", "Y", "y")


class NonMinimal(Exception):
    """(v_g2, v_g3, v_disc) >= (4, 6, 12): caller must minimalize first."""


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

    @property
    def certified(self) -> bool:
        """Always true: the classification is exact over Q."""
        return True

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
            v2 = chart.g2.divide_out(piece)[1] if chart.g2 else 10 ** 9
            v3 = chart.g3.divide_out(piece)[1] if chart.g3 else 10 ** 9
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
