"""The moduli-side functions X, Y, Z expressed through the theta forms, the
action of the modular group's generators on H x H and the checks over one
orbit (X and Y invariant, the forms' transformation laws), local Newton
inversion of (z1, z2) from (X, Y), and projective matching of point clouds in
P^3."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .hilbert_theta import (WEIGHTS, MuellerForms, UHPPair, as_pair, mueller_forms,
                            theta_batch, unreduced_forms)
from .klein import quintic
from .numkernel import GUARD_BITS, PrecisionPolicy, quadratic_constants, to_mpc, working_precision
from .polynomials import SparsePoly

# X = K1 s6/g2^3, Y = K2 s10/g2^5, Z = K3 s15^2/g2^15
K1 = 2 ** 5 * 5 ** 2
K2 = 2 ** 10 * 5 ** 5
K3 = Fraction(2 ** 26 * 5 ** 10, 9)

# minus Klein's quintic at (1, X, Y), whose zero set (together with Y = 0)
# bounds the good parameter region
K2_LOCUS = -quintic(1, *(SparsePoly.variable(("X", "Y"), v) for v in ("X", "Y")))

# the iterations one Newton solve may take
NEWTON_ITERATIONS = 40


class NearZeroDenominator(Exception):
    pass


class NoConvergence(Exception):
    pass


class JacobianSingular(Exception):
    pass


class RankDeficient(Exception):
    pass


def moduli_XYZ(p, policy: PrecisionPolicy = PrecisionPolicy(),
               forms: MuellerForms | None = None):
    """(X, Y, Z) = (800 s6/g2^3, 3200000 s10/g2^5, (2^26 5^10/9) s15^2/g2^15).

    Z is None when ``forms`` lacks s15; with forms of Jets, X, Y and Z are
    Jets too.  Each is a quotient of weight 0, so the weight factors of
    mueller_forms' reduction cancel in it."""
    with working_precision(policy) as pol:
        f = forms if forms is not None else mueller_forms(p, policy)
        if abs(f.g2) < mpmath.mpf(2) ** (-pol.mantissa_bits // 2):
            raise NearZeroDenominator(f"|g2| = {abs(f.g2)} too small")
        g2_3 = f.g2 ** 3
        X = K1 * f.s6 / g2_3
        Y = K2 * f.s10 / g2_3 / f.g2 ** 2
        Z = None if f.s15 is None else to_mpc(K3) * f.s15 ** 2 / g2_3 ** 5
        return X, Y, Z


GENERATORS = ("g1", "g2", "g3", "tau")


def apply_generator(p, name: str, policy: PrecisionPolicy = PrecisionPolicy()) -> UHPPair:
    """Action of the group generators on (z1, z2); the conjugate entry acts on
    the second slot."""
    pair = as_pair(p, policy)
    with working_precision(policy):
        z1, z2 = pair.z1, pair.z2
        if name == "g1":
            return UHPPair(z1 + 1, z2 + 1)
        if name == "g2":
            qc = quadratic_constants(policy)
            return UHPPair(z1 + qc.eps, z2 + qc.eps_conj)
        if name == "g3":
            return UHPPair(-1 / z1, -1 / z2)
        if name == "tau":
            return UHPPair(z2, z1)
    raise ValueError(f"unknown generator {name}")


@dataclass(frozen=True)
class Orbit:
    """unreduced_forms at p and at its image under each generator, summed
    where each lies: reduced first, p and g p would be summed at one point."""
    p: UHPPair
    forms: MuellerForms
    images: dict[str, MuellerForms]


def orbit(p, policy: PrecisionPolicy = PrecisionPolicy()) -> Orbit:
    pair = as_pair(p, policy)
    return Orbit(pair, unreduced_forms(pair, policy),
                 {g: unreduced_forms(apply_generator(pair, g, policy), policy)
                  for g in GENERATORS})


def modular_invariance(o: Orbit, generator: str,
                       policy: PrecisionPolicy = PrecisionPolicy()) -> mpmath.mpf:
    """|X(g p) - X(p)| + |Y(g p) - Y(p)|, relative to 1 + |X| + |Y|."""
    with working_precision(policy):
        x0, y0, _ = moduli_XYZ(None, policy, forms=o.forms)
        x1, y1, _ = moduli_XYZ(None, policy, forms=o.images[generator])
        return (abs(x1 - x0) + abs(y1 - y0)) / (1 + abs(x0) + abs(y0))


def verify_modularity(o: Orbit,
                      policy: PrecisionPolicy = PrecisionPolicy()) -> dict[str, mpmath.mpf]:
    """Relative residuals of the form laws over the orbit: g1, g2 (the
    translations by 1 and by the fundamental unit) and tau (the slot swap)
    leave g2, s6 and s15 unchanged and tau changes the sign of s5; g3
    multiplies a form of weight k (WEIGHTS) by (z1 z2)^k."""
    with working_precision(policy):
        base, im = o.forms, o.images
        w = o.p.z1 * o.p.z2

        def rel(x, y):
            return abs(x - y) / max(abs(x), abs(y))

        out = {}
        for form in ("g2", "s6"):
            f = getattr(base, form)
            out[f"{form}_translation_1"] = rel(getattr(im["g1"], form), f)
            out[f"{form}_translation_eps"] = rel(getattr(im["g2"], form), f)
            k = WEIGHTS[form]
            out[f"{form}_inversion_weight{k}"] = rel(getattr(im["g3"], form), w ** k * f)
        for form in ("g2", "s6", "s15"):
            out[f"{form}_swap_symmetric"] = rel(getattr(im["tau"], form), getattr(base, form))
        out["s5_swap_alternating"] = rel(im["tau"].s5, -base.s5)
        return out


# ------------------------------------------------------------ Newton inverse


@dataclass(frozen=True)
class InversionResult:
    z: UHPPair
    residual: mpmath.mpf
    iterations: int
    jacobian: tuple  # (dX/dz1, dX/dz2, dY/dz1, dY/dz2) at z


def moduli_XY(p, policy, derivatives: bool = False):
    """X and Y at p from one theta pass, without s5 and s15; with
    ``derivatives`` each is a Jet carrying d/dz1 and d/dz2."""
    theta = theta_batch(p, policy, derivatives=derivatives)
    x, y, _ = moduli_XYZ(p, policy, forms=mueller_forms(p, policy, theta=theta,
                                                        names=("g2", "s6", "s10")))
    return x, y


def newton_invert(target_X, target_Y, guess,
                  policy: PrecisionPolicy = PrecisionPolicy()) -> InversionResult:
    """Damped Newton for (X, Y)(z1, z2) = (X0, Y0) with the exact Jacobian.

    Each trial point costs one theta pass, which yields X, Y and their
    derivatives in z1 and z2 together.  Returns any preimage reproducing the
    target, with the Jacobian of that last pass; the modular group ambiguity
    is accepted.  Success means
    |X - X0| + |Y - Y0| < tol = (1 + |X0| + |Y0|) verify_tol.
    Where the Jacobian is rank-deficient (on the diagonal dY vanishes) the
    step is the ridge-regularised least-squares one.  Raises JacobianSingular
    when the iteration stalls on a rank-deficient Jacobian, NoConvergence
    when it stalls otherwise, converges linearly (from iteration 5, four
    consecutive full steps each cut the residual by a ratio in [0.1, 0.9],
    within a factor 1.25 of each other: a singular root), or is still short
    of tol after NEWTON_ITERATIONS iterations.
    """
    with working_precision(policy) as pol:
        X0, Y0 = to_mpc(target_X), to_mpc(target_Y)
        pair = as_pair(guess, policy)
        tol = (1 + abs(X0) + abs(Y0)) * mpmath.mpf(pol.verify_tol)

        def F(pr: UHPPair):
            """The residual (X - X0, Y - Y0) at pr and its Jacobian."""
            x, y = moduli_XY(pr, pol, derivatives=True)
            return (x.value - X0, y.value - Y0), (x.d1, x.d2, y.d1, y.d2)

        def norm(f):
            return abs(f[0]) + abs(f[1])

        f, jac = F(pair)
        ratios = []  # |F| ratios of the consecutive full steps so far
        for it in range(1, NEWTON_ITERATIONS + 2):
            if norm(f) < tol:
                return InversionResult(z=pair, residual=norm(f), iterations=it - 1,
                                       jacobian=jac)
            if it > NEWTON_ITERATIONS:
                raise NoConvergence(f"no convergence after {NEWTON_ITERATIONS} iterations, "
                                    f"residual {norm(f)}")
            z1, z2 = pair.z1, pair.z2
            a11, a12, a21, a22 = jac
            det = a11 * a22 - a12 * a21
            jnorm = max(abs(a11), abs(a12), abs(a21), abs(a22))
            # <=: a zero Jacobian (guess (i, i)) takes the ridge step, not det = 0
            singular = abs(det) <= mpmath.mpf(1e-12) * jnorm ** 2
            if singular:
                # rank-deficient Jacobian: ridge-regularised least-squares step;
                # it makes progress only when the residual lies in the range
                g11 = abs(a11) ** 2 + abs(a21) ** 2
                g12 = mpmath.conj(a11) * a12 + mpmath.conj(a21) * a22
                g22 = abs(a12) ** 2 + abs(a22) ** 2
                lam = mpmath.mpf(1e-24) * (g11 + g22) + mpmath.mpf(2) ** (-2 * pol.mantissa_bits)
                b1 = mpmath.conj(a11) * f[0] + mpmath.conj(a21) * f[1]
                b2 = mpmath.conj(a12) * f[0] + mpmath.conj(a22) * f[1]
                gdet = (g11 + lam) * (g22 + lam) - g12 * mpmath.conj(g12)
                d1 = (b1 * (g22 + lam) - g12 * b2) / gdet
                d2 = ((g11 + lam) * b2 - mpmath.conj(g12) * b1) / gdet
            else:
                d1 = (f[0] * a22 - a12 * f[1]) / det
                d2 = (a11 * f[1] - f[0] * a21) / det
            step = mpmath.mpf(1)
            improved = False
            for _ in range(12):
                try:
                    cand = UHPPair(z1 - step * d1, z2 - step * d2)
                except ValueError:
                    step /= 2
                    continue
                fc, jc = F(cand)
                if norm(fc) < norm(f):
                    ratios = ratios + [norm(fc) / norm(f)] if step == 1 else []
                    pair, f, jac = cand, fc, jc
                    improved = True
                    break
                step /= 2
            if not improved:
                if singular:
                    raise JacobianSingular(
                        f"rank-deficient Jacobian, no consistent progress "
                        f"(residual {norm(f)}, iteration {it})")
                raise NoConvergence(
                    f"damped Newton stalled at residual {norm(f)} (iteration {it})")
            last = ratios[-4:]
            if (it >= 5 and len(last) == 4 and min(last) >= 0.1 and norm(f) >= tol
                    and max(last) <= min(0.9, 1.25 * min(last))):
                raise NoConvergence(f"linear convergence at a singular root: the residual falls "
                                    f"by {mpmath.nstr(ratios[-1], 3)} per step (iteration {it})")


def continuation_invert(target_X, target_Y, start,
                        policy: PrecisionPolicy = PrecisionPolicy()) -> InversionResult:
    """newton_invert from a start in the target's Newton basin.  The name is
    that of the benchmark's traced span (perfbench/spans.py), which times the
    developing-map anchor; it goes with the next benchmark change."""
    return newton_invert(target_X, target_Y, start, policy)


# ------------------------------------------------- projective map estimation


def _frame(samples):
    """The matrix whose columns are the first four samples, its inverse, and
    the coordinates c of the fifth sample in them.  Raises RankDeficient
    unless every c_i is nonzero at the working precision, that is, above
    the error that the columns' condition number allows."""
    m = mpmath.matrix([[v[k] for v in samples[:4]] for k in range(4)])
    try:
        inv = mpmath.inverse(m)
    except ZeroDivisionError:
        raise RankDeficient("four frame samples are linearly dependent") from None
    c = inv * mpmath.matrix(samples[4])
    cond = mpmath.mnorm(m, 1) * mpmath.mnorm(inv, 1)
    size = max(abs(x) for x in c)
    if min(abs(x) for x in c) <= 2 ** GUARD_BITS * mpmath.eps * cond * size:
        raise RankDeficient("the five frame samples are not in general position")
    return m, inv, c


def projective_distance(u, v) -> mpmath.mpf:
    """Norm of the component of u/|u| orthogonal to v/|v| (avoids the
    sqrt(1 - cos^2) cancellation floor at high precision)."""
    nu = mpmath.sqrt(sum(abs(x) ** 2 for x in u))
    nv = mpmath.sqrt(sum(abs(x) ** 2 for x in v))
    uh = [x / nu for x in u]
    vh = [x / nv for x in v]
    inner = sum(x * mpmath.conj(y) for x, y in zip(uh, vh))
    resid = [x - inner * y for x, y in zip(uh, vh)]
    return mpmath.sqrt(sum(abs(x) ** 2 for x in resid))


def match_projective_maps(samples_a, samples_b):
    """Find G (a 4x4 mpmath matrix, up to scale) with G a_k parallel to b_k.

    Five samples in general position fix a projective map of P^3: with
    a_5 = sum c_i a_i and b_5 = sum d_i b_i, G = B diag(d_i / c_i) A^-1,
    where A and B have the first four samples as columns.  Returns G and the
    worst misalignment over the other samples: projective_distance(G a_k,
    b_k), the sine of the angle between them.  Raises RankDeficient when
    either frame is not in general position at the working precision.
    """
    if len(samples_a) != len(samples_b):
        raise ValueError("sample lists differ in length")
    if len(samples_a) < 6:
        raise ValueError("need five frame samples and one more to check")
    _, a_inv, c = _frame(samples_a)
    b, _, d = _frame(samples_b)
    g = b * mpmath.diag([d[i] / c[i] for i in range(4)]) * a_inv
    return g, max(projective_distance(g * mpmath.matrix(v), w)
                  for v, w in zip(samples_a[5:], samples_b[5:]))
