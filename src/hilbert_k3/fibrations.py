"""Elliptic K3 surface charts for the two-parameter family, exact discriminants,
Kodaira fiber classification and the boundary one-parameter family.

Classification over Q is fully exact (squarefree decomposition, never floating
root finding).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import UniPoly


# ------------------------------------------------------------- Kodaira types

@dataclass(frozen=True)
class KodairaType:
    """A Kodaira fiber type and its Euler number, which is the valuation of
    the minimal discriminant (Ogg's formula in characteristic 0)."""
    name: str                # 'I5', 'I0*', 'II', ...
    euler: int

    def __str__(self) -> str:
        return self.name


# v_disc -> the type of an additive fiber that is not I_n*, n >= 1
_ADDITIVE = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*", 10: "II*"}


def kodaira_type(v_g2: int, v_g3: int, v_disc: int) -> KodairaType:
    """Standard Kodaira table keyed on the valuations of g2, g3, disc of a
    Weierstrass equation z^2 = x^3 - g2 x - g3 at a singular fiber (the
    charts of this family have one at y = 0 and at y = infinity, and a
    finite one at each root of disc), made minimal first: x -> t^2 x,
    z -> t^3 z lowers the valuations by (4, 6, 12), as often as the equation
    stays integral."""
    k = min(v_g2 // 4, v_g3 // 6, v_disc // 12)
    v_g2, v_g3, v_disc = v_g2 - 4 * k, v_g3 - 6 * k, v_disc - 12 * k
    if v_disc < 1:
        raise ValueError(f"no singular fiber has discriminant valuation {v_disc}")
    if v_g2 == 0 and v_g3 == 0:
        return KodairaType(f"I{v_disc}", v_disc)
    if v_g2 == 2 and v_g3 == 3 and v_disc >= 7:
        return KodairaType(f"I{v_disc - 6}*", v_disc)
    if v_disc not in _ADDITIVE:
        raise ValueError(f"no Kodaira row matches ({v_g2}, {v_g3}, {v_disc})")
    return KodairaType(_ADDITIVE[v_disc], v_disc)


# ------------------------------------------------------------ chart building


@dataclass(frozen=True)
class WeierstrassChart:
    """Depressed cubic data z^2 = x^3 - g2 x - g3 over one affine chart of the
    base line, as polynomials in its fiber coordinate (y at 0, 1/y at
    infinity); disc = 4 g2^3 - 27 g3^2.  In both families here g2 and g3
    are nonzero: g2 has a y^4 term at 0, a y^2 term at infinity (y^3 and
    y^5 in the boundary family), and g3 a y^9, y^3 (y^4, y^8) term."""

    g2: UniPoly
    g3: UniPoly
    disc: UniPoly


def _depress(c2: UniPoly, c1: UniPoly, c0: UniPoly) -> WeierstrassChart:
    """The chart of z^2 = x^3 + c2 x^2 + c1 x + c0, moved by x -> x - c2 / 3."""
    g2 = c2 * c2 * Fraction(1, 3) - c1
    g3 = -c0 + c1 * c2 * Fraction(1, 3) - c2 ** 3 * Fraction(2, 27)
    disc = 4 * g2 ** 3 - 27 * g3 ** 2
    return WeierstrassChart(g2=g2, g3=g3, disc=disc)


def _charts(c2: UniPoly, c1: UniPoly, c0: UniPoly) -> tuple[WeierstrassChart, WeierstrassChart]:
    """Both charts of z^2 = x^3 + c2(y) x^2 + c1(y) x + c0(y).  The one at
    infinity takes c_k(y) -> y1^(4k) c_k(1/y1), the K3 rescaling x -> x/y1^4,
    z -> z/y1^6, and raises ValueError past degree 4k."""
    return _depress(c2, c1, c0), _depress(c2.reverse(4), c1.reverse(8), c0.reverse(12))


def weierstrass_data(X, Y) -> tuple[WeierstrassChart, WeierstrassChart]:
    """Both charts of z^2 = x^3 - 4y^2(4y-5)x^2 + 20X y^3 x + Y y^4 at rational
    (X, Y)."""
    return _charts(UniPoly([0, 0, 20, -16]), UniPoly([0, 0, 0, 20 * Fraction(X)]),
                   UniPoly([0, 0, 0, 0, Fraction(Y)]))


# ------------------------------------------------------------ classification


@dataclass(frozen=True)
class FiberPlacement:
    location: str
    type: KodairaType
    count: int = 1


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
            names.append(f"{p.count}{p.type}" if p.count > 1 else str(p.type))
        return " + ".join(names)

    def multiset(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for p in self.placements:
            out[str(p.type)] = out.get(str(p.type), 0) + p.count
        return out


def _classify_chart_origin(chart: WeierstrassChart, location: str) -> FiberPlacement:
    return FiberPlacement(location=location, type=kodaira_type(
        chart.g2.valuation(), chart.g3.valuation(), chart.disc.valuation()))


def _classify_finite_nonzero(chart: WeierstrassChart) -> list[FiberPlacement]:
    """Fibers at the nonzero roots of the discriminant in this chart, handled
    through exact squarefree decomposition.  At a root of disc = 4 g2^3 -
    27 g3^2, g2 vanishes exactly when g3 does, so a gcd with g2 splits each
    squarefree factor into its additive and its multiplicative roots."""
    rest = chart.disc.divide_exact(UniPoly([0, 1]) ** chart.disc.valuation())
    placements: list[FiberPlacement] = []
    for factor, mult in rest.squarefree():
        additive = factor.gcd(chart.g2)
        for piece in (additive, factor.divide_exact(additive)):
            if piece.degree() > 0:
                placements.append(FiberPlacement(
                    location=f"roots of {piece.format('y')}",
                    type=kodaira_type(chart.g2.divide_out(piece)[1],
                                      chart.g3.divide_out(piece)[1], mult),
                    count=piece.degree(),
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
    return FiberConfiguration(placements=tuple(placements), euler_total=euler)


def classify_fibers(X, Y) -> FiberConfiguration:
    """Exact fiber configuration of the surface with rational parameters."""
    chart0, chart_inf = weierstrass_data(X, Y)
    return classify_charts(chart0, chart_inf)


def classify_boundary_family(l) -> FiberConfiguration:
    """Exact classification of the boundary family
    z^2 = x^3 - 16 l y^3 x^2 + 20 y^3 x + y^4 (one rational parameter l)."""
    return classify_charts(*_charts(UniPoly([0, 0, 0, -16 * Fraction(l)]),
                                    UniPoly([0, 0, 0, 20]), UniPoly([0, 0, 0, 0, 1])))
