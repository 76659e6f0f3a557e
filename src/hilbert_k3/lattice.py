"""Constant lattice data of the period domain: the intersection form, the
embedding of H x H as a projective quadric, the images of the group generators
as integral matrices, and their orthogonality and intertwining checks.

The matrices are exact integer data; every algebraic check here is exact.  The
only numerics are the intertwining spot checks, j(g p) = GTILDE[g] j(p)
projectively at sample points, with each matrix acting as written on column
vectors (the source text mixes row- and column-vector conventions; GTILDE
holds each matrix in the column-vector one)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .hilbert_theta import as_pair
from .moduli import apply_generator, projective_distance
from .numkernel import PrecisionPolicy, quadratic_constants, working_precision
from .polynomials import SparsePoly

# intersection form of the transcendental lattice: U + [[2, 1], [1, -2]]
FORM_A = ((0, 1, 0, 0),
          (1, 0, 0, 0),
          (0, 0, 2, 1),
          (0, 0, 1, -2))

# restricted form on the one-parameter locus: U + <2>
FORM_A_X = ((0, 1, 0),
            (1, 0, 0),
            (0, 0, 2))

# images of the group generators inside the integral orthogonal group
GTILDE = {
    "g1": ((1, -1, 2, 1),
           (0, 1, 0, 0),
           (0, -1, 1, 0),
           (0, 0, 0, 1)),
    # first row forced jointly by tg A g = A and the intertwining with the
    # fundamental-unit translation; the source display repeats g1's first row
    "g2": ((1, 1, 1, 3),
           (0, 1, 0, 0),
           (0, -1, 1, 0),
           (0, 1, 0, 1)),
    "g3": ((0, -1, 0, 0),
           (-1, 0, 0, 0),
           (0, 0, -1, -1),
           (0, 0, 0, 1)),
    "tau": ((1, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 1),
            (0, 0, 0, -1)),
}

# generators of the restricted monodromy group preserving FORM_A_X
MX_GENERATORS = (((1, -1, 2),
                  (0, 1, 0),
                  (0, -1, 1)),
                 ((0, -1, 0),
                  (-1, 0, 0),
                  (0, 0, -1)))


# ------------------------------------------------------- small matrix helpers


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(tuple(sum(a[i][l] * b[l][j] for l in range(k)) for j in range(m))
                 for i in range(n))


def mat_transpose(a):
    return tuple(zip(*a))


def mat_identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def preserves_form(g, form) -> bool:
    return mat_mul(mat_transpose(g), mat_mul(form, g)) == tuple(tuple(r) for r in form)


def check_orthogonality() -> dict:
    """Exact integer verification tg A g = A for the four generator images,
    that tau's image is an involution, and that the restricted generators
    preserve the restricted form."""
    report = {name: preserves_form(g, FORM_A) for name, g in GTILDE.items()}
    report["tau_involution"] = mat_mul(GTILDE["tau"], GTILDE["tau"]) == mat_identity(4)
    for i, g in enumerate(MX_GENERATORS):
        report[f"mx{i}_preserves_A_X"] = preserves_form(g, FORM_A_X)
    return report


# ------------------------------------------------------------------ the j map


@dataclass(frozen=True)
class JMapPoint:
    xi: tuple[mpmath.mpc, mpmath.mpc, mpmath.mpc, mpmath.mpc]
    quadric_value: mpmath.mpc      # xi A txi (identically zero)
    hermitian_value: mpmath.mpf    # xi A conj(txi) (= 4 Im z1 Im z2)


def j_map(p, policy: PrecisionPolicy | None = None) -> JMapPoint:
    """(z1, z2) -> (z1 z2 : -1 : z1 : z2) (I_2 + W^-1) as a row vector, with
    the quadratic and Hermitian form values attached."""
    pair = as_pair(p, policy)
    with working_precision(policy):
        qc = quadratic_constants(policy)
        z1, z2 = pair.z1, pair.z2
        s5 = qc.sqrt5
        # W^-1 = (1/sqrt5) [[eps, -1], [-eps', 1]]
        w3 = (z1 * qc.eps - z2 * qc.eps_conj) / s5
        w4 = (-z1 + z2) / s5
        xi = (z1 * z2, mpmath.mpc(-1), w3, w4)

        def form_value(u, v):
            return (u[0] * v[1] + u[1] * v[0]
                    + 2 * u[2] * v[2] + u[2] * v[3] + u[3] * v[2] - 2 * u[3] * v[3])

        quadric = form_value(xi, xi)
        xibar = tuple(mpmath.conj(x) for x in xi)
        hermitian = form_value(xi, xibar).real
        return JMapPoint(xi=xi, quadric_value=quadric, hermitian_value=hermitian)


def j_map_symbolic_identities() -> dict:
    """Exact polynomial proofs (with s a formal square root of 5):
    the image satisfies xi A txi = 0 identically, and
    xi A conj(txi) = -(z1 - z1bar)(z2 - z2bar)."""
    V = ("z1", "z2", "w1", "w2", "s")  # w's play the conjugated variables
    z1, z2, w1, w2, s = (SparsePoly.variable(V, n) for n in V)
    five = SparsePoly.const(V, 5)

    def xi(u, v):
        # entries scaled by sqrt5 where needed; the form value is scaled
        # consistently, so identities are unaffected by the projective factor
        eps = (SparsePoly.const(V, 1) + s) * Fraction(1, 2)
        eps_c = (SparsePoly.const(V, 1) - s) * Fraction(1, 2)
        # components: (z1 z2, -1, (u eps - v eps_c)/s, (-u + v)/s); multiply the
        # last two by s and divide the form contributions by s^2 = 5 instead
        return (u * v, SparsePoly.const(V, -1), u * eps - v * eps_c, v - u)

    def form_value(a, b):
        main = a[0] * b[1] + a[1] * b[0]
        tail = 2 * a[2] * b[2] + a[2] * b[3] + a[3] * b[2] - 2 * a[3] * b[3]
        return (main * five + tail).reduce_square("s", 5)

    xi_z = xi(z1, z2)
    xi_w = xi(w1, w2)
    quadric = form_value(xi_z, xi_z)
    hermitian = form_value(xi_z, xi_w)
    expected = -five * (z1 - w1) * (z2 - w2)
    return {
        "quadric_identically_zero": quadric.is_zero(),
        "hermitian_matches_4ImIm": (hermitian - expected).is_zero(),
    }


# ------------------------------------------------------- the generators' action


def action_residuals(samples, policy: PrecisionPolicy | None = None) -> dict[str, mpmath.mpf]:
    """For each generator g, the worst projective_distance(j(g p), G j(p))
    over the samples, with G = GTILDE[g] acting on j(p) as written, as a
    matrix on column vectors.  Raises ValueError when one reaches
    verify_tol: G does not realise g."""
    with working_precision(policy) as pol:
        residuals = {name: mpmath.mpf(0) for name in GTILDE}
        for p in samples:
            src = j_map(p, policy).xi
            for name, g in GTILDE.items():
                dst = j_map(apply_generator(p, name, policy), policy).xi
                mapped = tuple(sum(g[i][j] * src[j] for j in range(4)) for i in range(4))
                residuals[name] = max(residuals[name], projective_distance(dst, mapped))
        failing = {name: mpmath.nstr(r, 3) for name, r in residuals.items()
                   if r >= pol.verify_tol}
        if failing:
            raise ValueError(f"GTILDE does not act as written: residuals {failing}")
        return residuals
