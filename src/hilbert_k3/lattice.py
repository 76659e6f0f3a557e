"""Constant lattice data of the period domain: the intersection form FORM_A
and its one evaluation form_value, the embedding of H x H onto the projective
quadric form_value(xi, xi) = 0, the images of the group generators as
integral matrices, and their orthogonality and intertwining checks.

The matrices are exact integer data; every algebraic check here is exact.  The
only numerics are the intertwining spot checks, j(g p) = GTILDE[g] j(p)
projectively at sample points, with each matrix acting as written on column
vectors (the source text mixes row- and column-vector conventions; GTILDE
holds each matrix in the column-vector one)."""

from __future__ import annotations

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


def form_value(a, b):
    """a FORM_A tb, for vectors of numbers or of polynomials."""
    return sum(a[i] * c * b[j] for i, row in enumerate(FORM_A) for j, c in enumerate(row) if c)


def j_map(p, policy: PrecisionPolicy = PrecisionPolicy()) -> tuple[mpmath.mpc, ...]:
    """(z1, z2) -> xi = (z1 z2 : -1 : z1 : z2) (I_2 + W^-1) as a row vector,
    a point of the quadric form_value(xi, xi) = 0 with form_value(xi,
    conj(xi)) = 4 Im z1 Im z2."""
    pair = as_pair(p, policy)
    with working_precision(policy):
        qc = quadratic_constants(policy)
        z1, z2 = pair.z1, pair.z2
        s5 = qc.sqrt5
        # W^-1 = (1/sqrt5) [[eps, -1], [-eps', 1]]
        w3 = (z1 * qc.eps - z2 * qc.eps_conj) / s5
        w4 = (-z1 + z2) / s5
        return (z1 * z2, mpmath.mpc(-1), w3, w4)


def j_map_symbolic_identities() -> dict:
    """Exact polynomial proofs, with s a formal square root of 5 and the w's
    the conjugated variables, that the image satisfies form_value(xi, xi) = 0
    identically and form_value(xi, conj(xi)) = -(z1 - z1bar)(z2 - z2bar),
    which is 4 Im z1 Im z2.  xi is scaled by s, which scales both values by
    s^2 = 5."""
    V = ("z1", "z2", "w1", "w2", "s")
    z1, z2, w1, w2, s = (SparsePoly.variable(V, n) for n in V)
    eps, eps_c = (s + 1) * Fraction(1, 2), (-s + 1) * Fraction(1, 2)

    def xi(u, v):   # s (u v, -1, (u eps - v eps')/s, (v - u)/s)
        return (s * u * v, -s, u * eps - v * eps_c, v - u)

    xi_z, xi_w = xi(z1, z2), xi(w1, w2)
    quadric = form_value(xi_z, xi_z).reduce_square("s", 5)
    hermitian = form_value(xi_z, xi_w).reduce_square("s", 5)
    return {
        "quadric_identically_zero": quadric.is_zero(),
        "hermitian_matches_4ImIm": hermitian == -5 * (z1 - w1) * (z2 - w2),
    }


# ------------------------------------------------------- the generators' action


def action_residuals(samples, policy: PrecisionPolicy = PrecisionPolicy()) -> dict[str, mpmath.mpf]:
    """For each generator g, the worst projective_distance(j(g p), G j(p))
    over the samples, with G = GTILDE[g] acting on j(p) as written, as a
    matrix on column vectors.  Raises ValueError when one reaches
    verify_tol: G does not realise g."""
    with working_precision(policy) as pol:
        residuals = {name: mpmath.mpf(0) for name in GTILDE}
        for p in samples:
            src = j_map(p, policy)
            for name, g in GTILDE.items():
                dst = j_map(apply_generator(p, name, policy), policy)
                mapped = tuple(sum(g[i][j] * src[j] for j in range(4)) for i in range(4))
                residuals[name] = max(residuals[name], projective_distance(dst, mapped))
        failing = {name: mpmath.nstr(r, 3) for name, r in residuals.items()
                   if r >= pol.verify_tol}
        if failing:
            raise ValueError(f"GTILDE does not act as written: residuals {failing}")
        return residuals
