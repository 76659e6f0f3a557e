"""Genus-2 theta constants on the image of H x H inside the Siegel upper half
space, the ten even characteristics used for Q(sqrt 5), and the modular forms
g2, s5, s6, s10, s15 built from them.

theta_batch is the one theta kernel.  It makes one lattice pass per shift a in
{0,1}^2 and sorts the terms into four partial sums by the parity of g; each of
the ten characteristics is a +-1 combination of its shift's four sums.  A pass
covers an ellipse of the lattice whose dropped terms have the bound stated in
LatticeRegion, and walks each row outward from its largest term in
fixed-point integers (after Deconinck, Heil, Bobenko, van Hoeij and Schmies,
"Computing Riemann theta functions", Math. Comp. 73 (2004)); each row starts
from integer recurrences out of the largest term, with no mpmath work per row.

mueller_forms reduces a point by g1, g2 and g3 toward Im ~ 1 before it sums
(after Goetzky, Math. Ann. 100 (1928), on the fundamental domain for
Q(sqrt 5), and Deconinck et al., section 3), and evaluates the forms in
integer binary floats (BinaryFloat).  The numerically risky one, the weight-15
form s15, R. Mueller's 30-monomial sum, is evaluated as five factored triples;
the tests expand them against the table, and verify_mueller_relation and the
form laws over an orbit (moduli.verify_modularity) pin s15 down too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
from mpmath import mp

from .elliptic import NotInUpperHalfPlane
from .numkernel import (GUARD_BITS, SERIES_CAP, BinaryFloat, Jet, NonConvergent,
                        PrecisionPolicy, quadratic_constants, to_mpc, working_precision)


@dataclass(frozen=True)
class UHPPair:
    z1: mpmath.mpc
    z2: mpmath.mpc

    def __post_init__(self):
        if not (self.z1.imag > 0 and self.z2.imag > 0):
            raise NotInUpperHalfPlane(f"both imaginary parts must be positive: {self}")


def as_pair(p, policy: PrecisionPolicy = PrecisionPolicy()) -> UHPPair:
    if isinstance(p, UHPPair):
        return p
    z1, z2 = p
    with working_precision(policy):
        return UHPPair(to_mpc(z1), to_mpc(z2))


@dataclass(frozen=True)
class SiegelPoint:
    """Symmetric 2x2 matrix [[s1, s2], [s2, s3]] with positive definite
    imaginary part, whose determinant is det.  det comes from the caller,
    who may know it exactly where p r - q^2 would cancel."""

    s1: mpmath.mpc
    s2: mpmath.mpc
    s3: mpmath.mpc
    det: mpmath.mpf

    def __post_init__(self):
        if not (self.s1.imag > 0 and self.det > 0):
            raise ValueError("imaginary part is not positive definite")


def psi(p, policy: PrecisionPolicy = PrecisionPolicy()) -> SiegelPoint:
    """The embedding (z1, z2) -> (1/(2 sqrt5)) [[(1+sqrt5)z1 - (1-sqrt5)z2,
    2(z1-z2)], [2(z1-z2), (-1+sqrt5)z1 + (1+sqrt5)z2]].  The determinant of
    its imaginary part is Im z1 Im z2 exactly."""
    pair = as_pair(p, policy)
    with working_precision(policy):
        s5 = quadratic_constants(policy).sqrt5
        z1, z2 = pair.z1, pair.z2
        d = 2 * s5
        return SiegelPoint(
            s1=((1 + s5) * z1 - (1 - s5) * z2) / d,
            s2=2 * (z1 - z2) / d,
            s3=((-1 + s5) * z1 + (1 + s5) * z2) / d,
            det=z1.imag * z2.imag,
        )


# ------------------------------------------------------------------- the sum

Characteristic = tuple[tuple[int, int], tuple[int, int]]

# correspondence j <-> (a, b) for the ten even characteristics
THETA_CHARACTERISTICS: dict[int, Characteristic] = {
    0: ((0, 0), (0, 0)),
    1: ((1, 1), (0, 0)),
    2: ((0, 0), (1, 1)),
    3: ((1, 1), (1, 1)),
    4: ((0, 1), (0, 0)),
    5: ((1, 0), (0, 0)),
    6: ((0, 0), (0, 1)),
    7: ((1, 0), (0, 1)),
    8: ((0, 0), (1, 0)),
    9: ((0, 1), (1, 0)),
}

SHIFTS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class LatticeRegion:
    """The lattice points that theta_batch sums for one shift a.

    The terms are T(g) = exp(i pi Q(u, v)) with (u, v) = g + a/2 and
    Q(u, v) = s1 u^2 + 2 s2 u v + s3 v^2.  Write Im Z = [[p, q], [q, r]],
    delta = (p r - q^2) / r and v*(u) = -q u / r, so that
    Im Q(u, v) = delta u^2 + r (v - v*(u))^2, and let m be the least Im Q on
    the coset, so the largest term has modulus exp(-pi m).  The region is the
    ellipse Im Q - m <= R^2: row u is kept when h_u = R^2 + m - delta u^2 >= 0,
    and within it v runs over |v - v*(u)| <= sqrt(h_u / r).

    Tail bound.  For c > 0 and d >= 0, sum_{j >= 0} exp(-pi c (d + j)^2) is at
    most exp(-pi c d^2) (1 + 1/(2 sqrt c)).  Hence, relative to the largest
    term, the part of a kept row beyond its two ends sums in modulus to at most
    exp(-pi R^2) (2 + 1/sqrt r); a whole row to exp(-pi (delta u^2 - m))
    (2 + 1/sqrt r); and the rows beyond the ellipse together to
    exp(-pi R^2) (2 + 1/sqrt r) (2 + 1/sqrt delta).  Every term the pass drops
    therefore sums in modulus to at most

        tail = exp(-pi R^2) (2 + 1/sqrt r) (n_rows + 2 + 1/sqrt delta)

    times the largest term, with n_rows the kept rows on both sides.  R^2 is
    chosen so that tail <= 2^-(prec + 4), the rounding level of the working
    precision.

    ``rows`` lists (g1, g2_lo, g2_peak, g2_hi) for g1 >= 0, with g2_peak the
    row's largest term; the term g stands also for its mirror -g - a, which has
    the same value, except in the row g1 = 0 of a shift with a1 = 0, which is
    its own mirror.  ``peak`` is the g of the largest term.
    """

    shift: tuple[int, int]
    peak: tuple[int, int]
    rows: tuple[tuple[int, int, int, int], ...]
    log_tail: float     # natural log of the bound on the dropped terms


def lattice_region(Z: SiegelPoint, a: tuple[int, int], prec: int) -> LatticeRegion:
    """The ellipse of terms one theta_batch pass keeps at ``prec`` bits.  It
    raises NonConvergent when the search for the largest term passes
    SERIES_CAP rows, or the ellipse holds over SERIES_CAP terms (its area,
    pi (R^2 + m) / sqrt(delta r))."""
    a1, a2 = a
    q, r = Z.s2.imag, Z.s3.imag
    delta, q_r = float(Z.det / r), float(q / r)
    r = float(r)

    def row(g1: int) -> tuple[float, int, float]:
        """v* of row g1, the g2 of its largest term and its least Im Q."""
        u, vs = g1 + a1 / 2, -q_r * (g1 + a1 / 2)
        g2 = round(vs - a2 / 2)
        return vs, g2, delta * u * u + r * (g2 + a2 / 2 - vs) ** 2

    m, peak, g1 = math.inf, (0, 0), 0
    while delta * (g1 + a1 / 2) ** 2 < m:
        if g1 > SERIES_CAP:
            raise NonConvergent(f"the theta sum's largest term lies past the cap of "
                                f"{SERIES_CAP} rows")
        _, g2, least = row(g1)
        if least < m:
            m, peak = least, (g1, g2)
        g1 += 1

    def last_row(R2: float) -> int:
        return math.floor(math.sqrt((R2 + m) / delta) - a1 / 2)

    def log_tail(R2: float) -> float:
        n_rows = 2 * last_row(R2) + 1 + a1
        return (-math.pi * R2 + math.log(2 + 1 / math.sqrt(r))
                + math.log(n_rows + 2 + 1 / math.sqrt(delta)))

    log_cut = -(prec + 4) * math.log(2)
    R2 = 0.0
    while log_tail(R2) > log_cut:
        R2 += (log_tail(R2) - log_cut) / math.pi + 1e-9
    if (terms := math.pi * (R2 + m) / math.sqrt(delta * r)) > SERIES_CAP:
        raise NonConvergent(f"the theta sum needs about {terms:.3g} terms, over the cap of "
                            f"{SERIES_CAP} terms")
    # a relative margin keeps points on the boundary inside despite rounding
    reach = (R2 + m) * (1 + 1e-12)
    rows = []
    for g1 in range(last_row(R2) + 1):
        h = reach - delta * (g1 + a1 / 2) ** 2
        vs, g2, _ = row(g1)
        w = math.sqrt(max(h, 0.0) / r)
        lo, hi = math.ceil(vs - w - a2 / 2), math.floor(vs + w - a2 / 2)
        if lo <= g2 <= hi:
            rows.append((g1, lo, g2, hi))
    return LatticeRegion(shift=a, peak=peak, rows=tuple(rows), log_tail=log_tail(R2))


def _walk(tr: int, ti: int, rr: int, ri: int, qr: int, qi: int, n: int,
          wp: int) -> tuple[int, int, int, int]:
    """n steps of T <- T r, r <- r q in wp-bit fixed point; returns the sums
    of the terms at odd and at even steps, as (odd re, odd im, even re, even im)."""
    sums = [0, 0, 0, 0]
    k = 0
    for _ in range(n):
        tr, ti = (tr * rr - ti * ri) >> wp, (tr * ri + ti * rr) >> wp
        rr, ri = (rr * qr - ri * qi) >> wp, (rr * qi + ri * qr) >> wp
        sums[k] += tr
        sums[k + 1] += ti
        k ^= 2
    return sums[0], sums[1], sums[2], sums[3]


def _walk_moments(tr: int, ti: int, rr: int, ri: int, qr: int, qi: int, n: int,
                  v2: int, dv2: int, wp: int) -> list[int]:
    """_walk that also weights each term by v2 and v2^2, v2 = 2 g2 + a2 moving
    by dv2 = +-2 a step from the start's v2; returns, for the odd steps and
    then the even ones, the sums of T, v2 T and v2^2 T (each re, im)."""
    sums = [0] * 12
    k = 0
    for _ in range(n):
        tr, ti = (tr * rr - ti * ri) >> wp, (tr * ri + ti * rr) >> wp
        rr, ri = (rr * qr - ri * qi) >> wp, (rr * qi + ri * qr) >> wp
        v2 += dv2
        w = v2 * v2
        sums[k] += tr
        sums[k + 1] += ti
        sums[k + 2] += v2 * tr
        sums[k + 3] += v2 * ti
        sums[k + 4] += w * tr
        sums[k + 5] += w * ti
        k = 6 - k
    return sums


def _fixed(x: BinaryFloat, bits: int) -> tuple[int, int]:   # x 2^bits as integers (re, im)
    s = bits + x.exp   # one shift: bits can be about 4.5 Im z, too many to shift left first
    return (x.re << s, x.im << s) if s >= 0 else (x.re >> -s, x.im >> -s)


def _shift_pass(region: LatticeRegion, powers: list[dict], wp: int,
                moments: bool) -> tuple[int, dict[tuple[int, int], list[int]]]:
    """The shift's four parity-class sums S[g mod 2], run at wp bits, as bits
    and per class the fixed-point integers (re, im) that 2^-bits multiplies.
    ``powers[k - 1][n]`` is f_k^n for n = 0, 1, 2, +-4, +-8 as a BinaryFloat,
    where f_k = exp(i pi s_k / 4) and e_k = f_k^4.  With ``moments``, each
    class also carries the sums of u2^2 T, u2 v2 T and v2^2 T, where
    (u2, v2) = 2g + a.

    The mirror -g - a of a term has the same value and, for every even
    characteristic, the same sign (-1)^(g.b), so each walked row that has a
    mirror counts twice in its own class; the combinations theta_batch takes
    are then exact, though a single S[c] is not the sum over its class.  The
    mirror turns (u2, v2) into (-u2, -v2), so the moments double alike.

    Each row starts at its largest term T and walks outward both ways with
    T(v +- 1) = T(v) r, r <- r e3^2, in fixed point, scaled by a power of two
    so that T, r and e3^2 have modulus at most 1.  T and the first ratios up,
    dn to g2 +- 1 come from a sweep that also carries the ratios R, L to
    g1 +- 1: a step to g2 +- 1 or g1 +- 1 multiplies T by up, dn, R or L and
    each ratio by some e_k^+-2.  It starts at g = 0, where T and each ratio are
    products of ``powers``, steps to the shift's largest term at region.peak,
    and from there outward row by row both ways, all in integers.

    Error bound.  The sweep holds each value as wp-bit integer parts with a
    binary exponent (BinaryFloat), so a product rounds relative to its own size and
    no step amplifies an earlier error, as a fixed-point step out of a small
    term would.  A value from mpmath, or a product, then rounds by at most
    eps = 2^(4 - wp) relatively, so ``powers`` are within 16 eps, the state at
    g = 0 within 64 eps, a ratio updated k times within 32 (k + 2) eps, and a
    row start N steps from g = 0 within 16 (N + 2)^2 eps: absolutely too, in
    units of the shift's largest term, as T, up and dn have modulus at most 1
    at a row start.  theta_batch adds the bits of 256 (N + 2)^2 to wp, N the
    longest sweep.
    """
    a1, a2 = region.shift

    def unit(*ns: int) -> BinaryFloat:   # f1^n1 f2^n2 f3^n3, skipping the factors 1
        return math.prod((powers[k][n] for k, n in enumerate(ns) if n), start=powers[0][0])

    # at g = 0, (u2, v2) = a: T = exp(i pi Q(a/2)) = f1^a1 f2^(2 a1 a2) f3^a2, and
    # up = e2^u2 e3^(v2 + 1), dn = e2^-u2 e3^(1 - v2), R = e1^(u2 + 1) e2^v2, L = e1^2 / R
    origin = [unit(a1, 2 * a1 * a2, a2), unit(0, 4 * a1, 4 * a2 + 4), unit(0, -4 * a1, 4 - 4 * a2),
              unit(4 * a1 + 4, 4 * a2, 0), unit(4 - 4 * a1, -4 * a2, 0)]
    p1, m1, p2, m2, p3, m3 = (powers[k][n] for k in range(3) for n in (8, -8))
    # a step to g2 + 1, g2 - 1, g1 + 1, g1 - 1: T *= up, dn, R, L; (up, dn, R, L) *= moves[k]
    moves = ((p3, m3, p2, m2), (m3, p3, m2, p2), (p2, m2, p1, m1), (m2, p2, m1, p1))

    def go(state: list, g: tuple, h: tuple) -> list:   # the state at h from g, g2 first
        for k, n in enumerate((h[1] - g[1], g[1] - h[1], h[0] - g[0], g[0] - h[0])):
            for _ in range(n):
                state = [state[0] * state[k + 1], *map(BinaryFloat.__mul__, state[1:], moves[k])]
        return state

    top = go(origin, (0, 0), region.peak)
    # 2^bits puts the largest term's modulus in [1/4, 1)
    bits = wp - 1 - top[0].exp - max(top[0].re.bit_length(), top[0].im.bit_length())
    qr, qi = _fixed(p3, wp)
    acc = {(c1, c2): [0] * (8 if moments else 2) for c1 in (0, 1) for c2 in (0, 1)}
    ahead = [row for row in region.rows if row[0] >= region.peak[0]]
    behind = [row for row in reversed(region.rows) if row[0] < region.peak[0]]
    for rows in (ahead, behind):
        state, g = top, region.peak
        for g1, lo, g2, hi in rows:
            state, g = go(state, g, (g1, g2)), (g1, g2)
            u2, v2 = 2 * g1 + a1, 2 * g2 + a2
            (tr, ti), (ur, ui), (dr, di) = (_fixed(x, b) for x, b in zip(state, (bits, wp, wp)))
            if moments:
                upward = _walk_moments(tr, ti, ur, ui, qr, qi, hi - g2, v2, 2, wp)
                downward = _walk_moments(tr, ti, dr, di, qr, qi, g2 - lo, v2, -2, wp)
                peak = (tr, ti, v2 * tr, v2 * ti, v2 * v2 * tr, v2 * v2 * ti)
            else:
                upward = _walk(tr, ti, ur, ui, qr, qi, hi - g2, wp)
                downward = _walk(tr, ti, dr, di, qr, qi, g2 - lo, wp)
                peak = (tr, ti)
            n = len(peak)
            odd = [x + y for x, y in zip(upward[:n], downward[:n])]
            # terms an even number of steps from the peak share its g2 parity
            even = [p + x + y for p, x, y in zip(peak, upward[n:], downward[n:])]
            weight = 2 if a1 or g1 else 1
            for c2, sums in ((g2 & 1, even), ((g2 + 1) & 1, odd)):
                if moments:
                    sr, si, vr, vi, wr, wi = sums
                    sums = (sr, si, u2 * u2 * sr, u2 * u2 * si, u2 * vr, u2 * vi, wr, wi)
                cls = acc[g1 & 1, c2]
                for i, x in enumerate(sums):
                    cls[i] += weight * x
    return bits, acc


def theta_batch(p, policy: PrecisionPolicy = PrecisionPolicy(),
                derivatives: bool = False) -> list:
    """All ten theta_j(z1, z2), in the order of THETA_CHARACTERISTICS.

    theta(Z; a, b) = sum over g in Z^2 of exp(i pi (t(g + a/2) Z (g + a/2)))
    (-1)^(g.b).  The sign depends only on g mod 2, so one pass per shift a
    collects the four parity-class sums S_a[g mod 2], and every
    characteristic (a, b) is the +-1 combination sum_c (-1)^(c.b) S_a[c]:
    four lattice passes serve all ten.  Each pass sums the ellipse of
    lattice_region (the mirror g -> -g - a halves it) in fixed-point integers;
    its dropped terms sum to at most 2^-(prec + 4) times its largest term, at
    the working precision prec.  Rows start from recurrences, with no mpmath
    work per row (_shift_pass); past SERIES_CAP terms it raises NonConvergent.

    With ``derivatives``, each theta_j comes as a Jet (value, d/dz1, d/dz2)
    from the same pass.  With (u2, v2) = 2g + a, d theta / d s1, d s2, d s3
    are the sums of (i pi/4) u2^2 T, (i pi/2) u2 v2 T and (i pi/4) v2^2 T
    over the same terms: u2 is fixed along a row, and the walk weights each
    term by v2 and v2^2 as it steps, at a working precision raised by the
    bits of the largest weight.  psi is linear, so the chain rule through it
    gives d/dz1 and d/dz2.  The values agree with the plain call's up to
    rounding at the working precision.  The derivatives have no stated tail
    bound: a dropped term's weight grows like |g|^2, which the region's
    margin absorbs in practice (the tests differentiate the brute-force sum).
    Without ``derivatives`` the pass is the plain one, at its plain cost.
    """
    pair = as_pair(p, policy)
    with working_precision(policy) as pol:
        Z = psi(pair, pol)
        regions = [lattice_region(Z, a, mp.prec) for a in SHIFTS]
        # fixed-point rounding grows at most like (row length)^3 per row, and
        # a sweep of N steps starts its rows within 256 (N + 2)^2 2^-wp
        longest = max(hi - lo + 1 for reg in regions for _, lo, _, hi in reg.rows)
        rows = sum(len(reg.rows) for reg in regions)
        sweep = max(sum(map(abs, reg.peak)) + sum(abs(h1 - g1) + abs(h2 - g2) for (
            g1, _, g2, _), (h1, _, h2, _) in zip(reg.rows, reg.rows[1:])) for reg in regions)
        wp = (mp.prec + 8 + (rows * longest ** 3).bit_length()
              + (256 * (sweep + 2) ** 2).bit_length())
        if derivatives:
            # the moments weight a term by up to max(|u2|, |v2|)^2
            reach = max(max(abs(2 * g1 + reg.shift[0]), abs(2 * lo + reg.shift[1]),
                            abs(2 * hi + reg.shift[1]))
                        for reg in regions for g1, lo, _, hi in reg.rows)
            wp += 2 * reach.bit_length()
        with mpmath.workprec(wp):
            powers = []     # f_k^n = exp(i pi s_k n / 4) for n = 0, 1, 2, +-4, +-8
            for f in (mpmath.exp(mpmath.mpc(0, mpmath.pi / 4) * s) for s in (Z.s1, Z.s2, Z.s3)):
                x = {0: BinaryFloat(1, 0, 0, wp), 1: BinaryFloat.from_mpc(f, wp),
                     -1: BinaryFloat.from_mpc(1 / f, wp)}
                for n in (2, -2, 4, -4, 8, -8):
                    x[n] = x[n // 2] * x[n // 2]
                powers.append(x)
            passes = {reg.shift: _shift_pass(reg, powers, wp, derivatives) for reg in regions}
            # combine the characteristics exactly, in the integers, into theta
            # and, with derivatives, the sums P = uu + vv and D = uu - vv + 4 uv
            parts = []
            for a, (b1, b2) in THETA_CHARACTERISTICS.values():
                bits, acc = passes[a]
                signs = [(-1) ** (c1 * b1 + c2 * b2) for c1, c2 in acc]
                t_re, t_im, *moment = (sum(sg * x for sg, x in zip(signs, column))
                                       for column in zip(*acc.values()))
                pairs = [(t_re, t_im)]
                if derivatives:
                    uu_re, uu_im, uv_re, uv_im, vv_re, vv_im = moment
                    pairs += [(uu_re + vv_re, uu_im + vv_im),
                              (uu_re - vv_re + 4 * uv_re, uu_im - vv_im + 4 * uv_im)]
                parts.append([BinaryFloat(re, im, -bits, wp).to_mpc() for re, im in pairs])
        if derivatives:
            # i pi Q = (i pi / 4) (s1 u2^2 + 2 s2 u2 v2 + s3 v2^2), and by psi
            # 2 sqrt5 d(s1, s2, s3)/dz1 = (1 + sqrt5, 2, sqrt5 - 1) and
            # 2 sqrt5 d(s1, s2, s3)/dz2 = (sqrt5 - 1, -2, 1 + sqrt5), so
            # d theta/dz1, dz2 = (i pi / 8) (P +- D / sqrt5)
            k = mpmath.mpc(0, mpmath.pi) / 8
            k5 = k / mpmath.sqrt(5)
            return [Jet(v, x + y, x - y) for v, x, y in ((v, k * P, k5 * D) for v, P, D in parts)]
        return [part[0] for part in parts]


# ------------------------------------------------------------- Mueller forms


FORM_NAMES = ("g2", "s5", "s6", "s10", "s15")

# f(-1/z1, -1/z2) = (z1 z2)^k f(z1, z2), with no sign, for each form's weight k
WEIGHTS = {"g2": 2, "s5": 5, "s6": 6, "s10": 10, "s15": 15}

# the inversions one reduction may take before it gives up
REDUCTION_CAP = 100


def _reduce(pair: UHPPair,
            policy: PrecisionPolicy = PrecisionPolicy()) -> tuple[UHPPair, mpmath.mpc | int]:
    """An equivalent point w of pair under g1, g2 and g3, and the product N
    of the z1 z2 taken before each inversion, so that f(pair) = f(w) / N^k
    for a form f of weight k (N is 1 when nothing was inverted).

    Translate (Re z1, Re z2) by the nearest m + n eps of O_K, (m + n eps,
    m + n eps'), by g1 and g2; while |z1 z2| < 1, apply g3, z -> -1/z, which
    multiplies Im z1 Im z2 by 1/|z1 z2|^2, and translate again.  The values
    of Im z1 Im z2 over an orbit that exceed a given one are finitely many,
    so the loop ends; a factor within 2^-20 of 1 gains nothing and stops it,
    where rounding could cycle it at an elliptic point (rho, rho).  Raises
    NonConvergent past REDUCTION_CAP inversions.  The unit action, which
    would balance Im z1 against Im z2, is not applied: (1e-30i, i) reduces
    to (1e30i, i), still far up one cusp."""
    with working_precision(policy):
        qc = quadratic_constants(policy)
        z1, z2, N = pair.z1, pair.z2, 1
        for _ in range(REDUCTION_CAP):
            # eps - eps' = sqrt5 and eps + eps' = 1: n from the difference, m from the mean
            n = int(mpmath.nint((z1.real - z2.real) / qc.sqrt5))
            m = int(mpmath.nint((z1.real + z2.real - n) / 2))
            if m or n:
                z1, z2 = z1 - (m + n * qc.eps), z2 - (m + n * qc.eps_conj)
            w = z1 * z2
            if abs(w) >= 1 - 2 ** -20:
                return UHPPair(z1, z2), N
            N *= w
            z1, z2 = -1 / z1, -1 / z2
        raise NonConvergent(f"the point is not reduced after {REDUCTION_CAP} inversions")


@dataclass(frozen=True)
class MuellerForms:
    """The forms at one point; a form that was not asked for is None.  Each
    is an mpc, or a Jet when the thetas were (s15 excepted)."""

    g2: mpmath.mpc | Jet
    s5: mpmath.mpc | Jet | None = None
    s6: mpmath.mpc | Jet | None = None
    s10: mpmath.mpc | Jet | None = None
    s15: mpmath.mpc | None = None


def _prod(theta: list, indices: str):
    return math.prod((theta[int(j)] for j in indices[1:]), start=theta[int(indices[0])])


# s15 = -2^-18 sum sigma abc (A +- B)(A +- C)(B - C) over (sigma, +-1, triple), with
# a, b, c the triple's pair products theta_p theta_q and A, B, C their 4th powers:
# six rows each of R. Mueller's 30-row table (Arch. Math. 45, 1985), as the tests check
S15_TRIPLES: tuple[tuple[int, int, tuple[str, str, str]], ...] = (
    (+1, +1, ("07", "18", "24")), (+1, +1, ("09", "16", "25")), (-1, +1, ("03", "46", "58")),
    (+1, -1, ("23", "67", "89")), (+1, -1, ("13", "49", "57")),
)


def _each(f, x):   # f(x), or for a Jet x the Jet of f at each part
    return Jet(f(x.value), f(x.d1), f(x.d2)) if isinstance(x, Jet) else f(x)


def mueller_forms(p, policy: PrecisionPolicy = PrecisionPolicy(),
                  theta: list | None = None,
                  names: tuple[str, ...] = FORM_NAMES) -> MuellerForms:
    """Evaluate the forms in ``names`` (g2 always) at (z1, z2).

    Without ``theta``, the point is reduced first (_reduce): translated by
    O_K with g1 and g2 and inverted by g3 toward Im ~ 1, to w with
    Im z1 Im z2 at least that of the point, so a group image near the cusp
    sums as few terms as a point of the box and loses no digits to
    cancellation.  One theta_batch call at w gives the forms there, and each
    form of weight k (WEIGHTS) is divided by N^k, N the product of the z1 z2
    taken before each inversion; translations leave every form unchanged.

    ``theta`` is the thetas at (z1, z2) itself, which are summed where they
    lie: a caller that compares a point with its image under the group, or
    that differentiates, passes theta_batch at the point.  They may be Jets
    (theta_batch with derivatives); the same products then carry d/dz1 and
    d/dz2 along, for every form but s15.

    The products run on BinaryFloat at wp = mp.prec + 16 bits, each rounding by
    less than 2^(2 - wp) of itself; each form is then rounded to mp.prec.  Its
    error is about 2^-mp.prec times the sum of its monomials' moduli: for s15,
    sum |abc| (|A|+|B|) (|A|+|C|) (|B|+|C|) over the triples, <= 4/3 the table's.
    """
    with working_precision(policy):
        N = 1
        if theta is None:
            w, N = _reduce(as_pair(p, policy), policy)
            theta = theta_batch(w, policy)
        th = [_each(lambda t: BinaryFloat.from_mpc(t, mp.prec + GUARD_BITS), t) for t in theta]
        # each form as a BinaryFloat (or Jet) and the power of two it is scaled by
        out = {"g2": (_prod(th, "0145") - _prod(th, "1279") - _prod(th, "3478")
                      + _prod(th, "0268") + _prod(th, "3569"), 0)}
        if "s5" in names or "s10" in names:
            all10 = _prod(th, "0123456789")
            if "s5" in names:
                out["s5"] = all10, -6
            if "s10" in names:
                out["s10"] = all10 ** 2, -12
        if "s6" in names:
            out["s6"] = (_prod(th, "012478") ** 2 + _prod(th, "012569") ** 2
                         + _prod(th, "034568") ** 2 + _prod(th, "236789") ** 2
                         + _prod(th, "134579") ** 2), -8
        if "s15" in names:
            terms = []
            for sigma, pm, triple in S15_TRIPLES:
                a, b, c = (_prod(th, pair) for pair in triple)
                A, B, C = a ** 4, b ** 4, c ** 4
                ab, ac = (A + B, A + C) if pm > 0 else (A - B, A - C)
                terms.append(a * b * c * ab * ac * (B - C if sigma > 0 else C - B))
            out["s15"] = -sum(terms[1:], terms[0]), -18
        forms = {name: _each(lambda v, e=e: v.to_mpc(e), x) for name, (x, e) in out.items()}
        if N != 1:
            forms = {name: v / N ** WEIGHTS[name] for name, v in forms.items()}
        return MuellerForms(**forms)


def unreduced_forms(p, policy: PrecisionPolicy = PrecisionPolicy()) -> MuellerForms:
    """The forms from theta_batch at p itself.  A check that compares p with
    its image under the group needs these: reduced first, both would be
    summed at the same point."""
    return mueller_forms(p, policy, theta=theta_batch(p, policy))


def verify_mueller_relation(forms: MuellerForms,
                            policy: PrecisionPolicy = PrecisionPolicy()) -> mpmath.mpf:
    """Residual of the ring relation among (g2, s6, s10, s15), relative to the
    largest monomial magnitude."""
    with working_precision(policy):
        g2, s6, s10, s15 = forms.g2, forms.s6, forms.s10, forms.s15
        monomials = [
            s15 ** 2,
            -(5 ** 5) * s10 ** 3,
            mpmath.mpf(5 ** 3) / 2 * g2 ** 2 * s6 * s10 ** 2,
            -mpmath.mpf(1) / 2 ** 4 * g2 ** 5 * s10 ** 2,
            -mpmath.mpf(9 * 25) / 2 * g2 * s6 ** 3 * s10,
            mpmath.mpf(1) / 2 ** 3 * g2 ** 4 * s6 ** 2 * s10,
            2 * 27 * s6 ** 5,
            -mpmath.mpf(1) / 2 ** 4 * g2 ** 3 * s6 ** 4,
        ]
        total = sum(monomials)
        scale = max(abs(m) for m in monomials)
        return abs(total) / scale
