import functools
import hashlib
import math
import random
import tracemalloc

import mpmath
import pytest
import sympy

from hilbert_k3 import hilbert_theta
from hilbert_k3.elliptic import jacobi_theta
from hilbert_k3.hilbert_theta import (FORM_NAMES, S15_TRIPLES, SHIFTS,
                                      THETA_CHARACTERISTICS, SiegelPoint, UHPPair,
                                      lattice_region, mueller_forms, psi, theta_batch,
                                      unreduced_forms, verify_modularity,
                                      verify_mueller_relation)
from hilbert_k3.numkernel import (Jet, NonConvergent, PrecisionPolicy, quadratic_constants,
                                  working_precision)

# ------------------------------------------------------- brute-force oracle


def imag_min_eigenvalue(Z: SiegelPoint) -> mpmath.mpf:
    p, q, r = Z.s1.imag, Z.s2.imag, Z.s3.imag
    return ((p + r) - mpmath.sqrt((p - r) ** 2 + 4 * q * q)) / 2


def truncation_radius(lam_min: mpmath.mpf, series_tol) -> int:
    """Smallest integer R with exp(-pi lam_min (R-1)^2) < series_tol."""
    R = 1
    tol = mpmath.mpf(series_tol)
    while mpmath.exp(-mpmath.pi * lam_min * (R - 1) ** 2) >= tol:
        R += 1
    return R


def oracle_box(Z: SiegelPoint, policy: PrecisionPolicy, radius_multiplier: int) -> int:
    """Half-width of the oracle's square [-R, R]^2."""
    return truncation_radius(imag_min_eigenvalue(Z), policy.series_tol) * radius_multiplier + 1


@functools.cache
def _shift_terms(Z: SiegelPoint, a: tuple[int, int], policy: PrecisionPolicy,
                 radius_multiplier: int) -> tuple[tuple[int, int, mpmath.mpc], ...]:
    """(g1, g2, exp(i pi Q(g + a/2))) over the square, each exponential taken on
    its own.  Terms of modulus below series_tol 2^-40 are skipped; the box has
    fewer than 2^20 points, so together they stay below series_tol 2^-20."""
    with working_precision(policy) as pol:
        R = oracle_box(Z, pol, radius_multiplier)
        assert (2 * R + 1) ** 2 < 2 ** 20
        ipi = mpmath.mpc(0, 1) * mpmath.pi
        skip = -math.log(pol.series_tol) + 40 * math.log(2)
        p, q, r = (float(x.imag) for x in (Z.s1, Z.s2, Z.s3))
        out = []
        for g1 in range(-R, R + 1):
            u = g1 + mpmath.mpf(a[0]) / 2
            for g2 in range(-R, R + 1):
                v = g2 + mpmath.mpf(a[1]) / 2
                if math.pi * (p * u * u + 2 * q * u * v + r * v * v) > skip:
                    continue
                quad = Z.s1 * u * u + 2 * Z.s2 * u * v + Z.s3 * v * v
                out.append((g1, g2, mpmath.exp(ipi * quad)))
        return tuple(out)


def siegel_theta(Z: SiegelPoint, ch, policy: PrecisionPolicy | None = None,
                 radius_multiplier: int = 1) -> mpmath.mpc:
    """theta(Z; a, b) = sum over g in Z^2 of
    exp(i pi (t(g + a/2) Z (g + a/2) + tg b)), summed over a square box."""
    a, (b1, b2) = ch
    policy = policy or PrecisionPolicy()
    with working_precision(policy):
        total = mpmath.mpc(0)
        for g1, g2, term in _shift_terms(Z, a, policy, radius_multiplier):
            total += -term if (g1 * b1 + g2 * b2) % 2 else term
        return total


def test_pair_validation():
    with pytest.raises(ValueError):
        UHPPair(mpmath.mpc(0, 1), mpmath.mpc(0, -1))


def test_psi_diagonal_is_diagonal_matrix(policy):
    with working_precision(policy):
        z = mpmath.mpc("0.2", "1.3")
        Z = psi((z, z), policy)
        assert abs(Z.s2) == 0
        assert abs(Z.s1 - z) < 1e-35
        assert abs(Z.s3 - z) < 1e-35


def test_psi_fixture_and_positivity(policy):
    with working_precision(policy):
        Z = psi((mpmath.mpc(0, 1), mpmath.mpc(0, 2)), policy)
        # oracle: direct evaluation of the closed form
        s5 = mpmath.sqrt(mpmath.mpf(5))
        z1, z2 = mpmath.mpc(0, 1), mpmath.mpc(0, 2)
        s1 = ((1 + s5) * z1 - (1 - s5) * z2) / (2 * s5)
        s2 = 2 * (z1 - z2) / (2 * s5)
        s3 = ((-1 + s5) * z1 + (1 + s5) * z2) / (2 * s5)
        assert abs(Z.s1 - s1) < 1e-38
        assert abs(Z.s2 - s2) < 1e-38
        assert abs(Z.s3 - s3) < 1e-38
        assert Z.s1.imag > 0 and Z.s1.imag * Z.s3.imag > Z.s2.imag ** 2


def test_psi_image_satisfies_slice_relation(policy):
    # the embedded surface satisfies -s1 + s2 + s3 = 0 exactly as written
    rng = random.Random(3)
    with working_precision(policy):
        for _ in range(3):
            p = (mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8)),
                 mpmath.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.8)))
            Z = psi(p, policy)
            assert abs(-Z.s1 + Z.s2 + Z.s3) < 1e-35 * (1 + abs(Z.s1))


def test_all_ten_characteristics_even():
    assert len(THETA_CHARACTERISTICS) == 10
    for ch in THETA_CHARACTERISTICS.values():
        a, b = ch
        assert all(x in (0, 1) for x in (*a, *b))
        assert (a[0] * b[0] + a[1] * b[1]) % 2 == 0


def test_diagonal_block_splits_into_jacobi_squares(policy):
    with working_precision(policy):
        z = mpmath.mpc(0, "1.3")
        Z = psi((z, z), policy)
        t = siegel_theta(Z, THETA_CHARACTERISTICS[0], policy)
        t00 = jacobi_theta("00", z, policy)
        assert abs(t - t00 ** 2) < policy.verify_tol


def test_doubling_truncation_radius_stable(policy):
    with working_precision(policy):
        Z = psi((mpmath.mpc("0.1", "1.1"), mpmath.mpc("-0.2", "0.9")), policy)
        for j in (0, 3, 7):
            a = siegel_theta(Z, THETA_CHARACTERISTICS[j], policy)
            b = siegel_theta(Z, THETA_CHARACTERISTICS[j], policy, radius_multiplier=2)
            assert abs(a - b) < policy.series_tol


def test_batch_matches_brute_force_triple_radius(policy):
    with working_precision(policy):
        p = (mpmath.mpc(0, "1.1"), mpmath.mpc(0, "1.3"))
        th = theta_batch(p, policy)
        Z = psi(p, policy)
        for j in range(10):
            brute = siegel_theta(Z, THETA_CHARACTERISTICS[j], policy,
                                 radius_multiplier=3)
            assert abs(th[j] - brute) < policy.series_tol * 4


def test_theta_j_generic_fixtures_against_brute_force(policy):
    with working_precision(policy):
        p = (mpmath.mpc(0, "1.2"), mpmath.mpc("0.7", "1.4"))
        th = theta_batch(p, policy)
        Z = psi(p, policy)
        for j in range(10):
            brute = siegel_theta(Z, THETA_CHARACTERISTICS[j], policy,
                                 radius_multiplier=3)
            assert abs(th[j] - brute) < policy.series_tol * 4


# where the kernel is most at risk: an off-diagonal Im Z with Re != 0; the
# diagonal (8i, 8i), whose a != 0 thetas are about 2e-3; a point near Im 50,
# whose a != 0 thetas are below 1e-30 and keep their digits only through the
# per-shift scaling; Im near 0.1, which has many rows; and a sheared Im Z
# (|q / r| about 1.5), whose row peaks move by one or two columns a row
RISK_POINTS = {
    "off_axis": (("0.3", "1.1"), ("-0.2", "0.9")),
    "diagonal_8i": (("0", "8"), ("0", "8")),
    "high": (("0.1", "45"), ("-0.2", "50")),
    "low": (("0.05", "0.1"), ("-0.03", "0.12")),
    "sheared": (("0.2", "5"), ("-0.3", "0.1")),
}


def _risk_point(name):
    (x1, y1), (x2, y2) = RISK_POINTS[name]
    return (mpmath.mpc(x1, y1), mpmath.mpc(x2, y2))


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(RISK_POINTS))
def test_batch_matches_doubled_oracle_at_risk_points(name, bits):
    pol = PrecisionPolicy(bits)
    ref_pol = PrecisionPolicy(2 * bits)
    with working_precision(ref_pol):
        p = _risk_point(name)
        Z = psi(p, ref_pol)
        ref = [siegel_theta(Z, THETA_CHARACTERISTICS[j], ref_pol, radius_multiplier=3)
               for j in range(10)]
    with working_precision(pol):
        th = theta_batch(p, pol)
    with working_precision(ref_pol):
        for j in range(10):
            # the kernel's error is relative to its shift's largest term
            a = THETA_CHARACTERISTICS[j][0]
            scale = max(abs(ref[k]) for k in range(10) if THETA_CHARACTERISTICS[k][0] == a)
            assert abs(th[j] - ref[j]) < pol.series_tol * 4 * scale, j


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(RISK_POINTS))
def test_tail_bound_covers_dropped_terms(name, bits):
    pol = PrecisionPolicy(bits)
    with working_precision(pol):
        p = _risk_point(name)
        Z = psi(p, pol)
        prec = mpmath.mp.prec
        R = oracle_box(Z, PrecisionPolicy(2 * bits), 3)
    for a in SHIFTS:
        region = lattice_region(Z, a, prec)
        assert region.log_tail <= -(prec + 4) * math.log(2)
        kept = set()
        for g1, lo, _, hi in region.rows:
            for g2 in range(lo, hi + 1):
                kept.add((g1, g2))
                if a[0] or g1:
                    kept.add((-g1 - a[0], -g2 - a[1]))
        # moduli of the terms relative to exp(-pi m), m the least Im Q on the
        # coset; doubles resolve them far below the bound
        p_, q_, r_ = (float(x.imag) for x in (Z.s1, Z.s2, Z.s3))
        im_q = {}
        for g1 in range(-R, R + 1):
            u = g1 + a[0] / 2
            for g2 in range(-R, R + 1):
                v = g2 + a[1] / 2
                im_q[g1, g2] = p_ * u * u + 2 * q_ * u * v + r_ * v * v
        m = min(im_q.values())
        # the kernel scales by the largest term, which sits at region.peak
        assert im_q[region.peak] - m <= 1e-12 * (1 + m)
        dropped = math.fsum(math.exp(-math.pi * (x - m))
                            for g, x in im_q.items() if g not in kept)
        assert dropped <= math.exp(region.log_tail), a


# diagonal factorisation theta_j(z, z) -> product of Jacobi constants
DIAGONAL_FACTORS: dict[int, tuple[str, str] | None] = {
    0: ("00", "00"), 1: ("10", "10"), 2: ("01", "01"), 3: None,
    4: ("00", "10"), 5: ("10", "00"), 6: ("00", "01"), 7: ("10", "01"),
    8: ("01", "00"), 9: ("01", "10"),
}


def test_diagonal_factorization_all_characteristics(policy):
    with working_precision(policy):
        z = mpmath.mpc(0, "0.9")
        th = theta_batch((z, z), policy)
        jt = {k: jacobi_theta(k, z, policy) for k in ("00", "01", "10")}
        for j in range(10):
            fac = DIAGONAL_FACTORS[j]
            if fac is None:
                assert abs(th[j]) < policy.verify_tol
            else:
                assert abs(th[j] - jt[fac[0]] * jt[fac[1]]) < policy.verify_tol


# s15 = -2^-18 * sum sign * theta_{p9}^9 theta_{p5}^5 theta_{p1}, R. Mueller's
# table (Arch. Math. 45, 1985) transcribed term by term: the oracle for the
# factored triples that mueller_forms evaluates
S15_TABLE: tuple[tuple[int, str, str, str], ...] = (
    (+1, "07", "18", "24"), (-1, "25", "16", "09"), (+1, "58", "03", "46"),
    (-1, "09", "25", "16"), (+1, "09", "16", "25"), (-1, "67", "23", "89"),
    (+1, "18", "24", "07"), (-1, "24", "18", "07"), (-1, "46", "03", "58"),
    (-1, "24", "07", "18"), (-1, "89", "67", "23"), (-1, "07", "24", "18"),
    (+1, "89", "23", "67"), (-1, "49", "13", "57"), (+1, "16", "09", "25"),
    (-1, "03", "46", "58"), (+1, "16", "25", "09"), (-1, "46", "58", "03"),
    (-1, "25", "09", "16"), (-1, "57", "49", "13"), (+1, "67", "89", "23"),
    (+1, "58", "46", "03"), (+1, "57", "13", "49"), (-1, "23", "89", "67"),
    (+1, "18", "07", "24"), (+1, "03", "58", "46"), (+1, "23", "67", "89"),
    (+1, "49", "57", "13"), (-1, "13", "57", "49"), (+1, "13", "49", "57"),
)


def test_factored_s15_equals_the_table():
    t = sympy.symbols("t0:10")

    def pair(p):
        return t[int(p[0])] * t[int(p[1])]

    table = sum(sign * pair(p9) ** 9 * pair(p5) ** 5 * pair(p1)
                for sign, p9, p5, p1 in S15_TABLE)
    factored = 0
    for sigma, pm, triple in S15_TRIPLES:
        a, b, c = map(pair, triple)
        A, B, C = a ** 4, b ** 4, c ** 4
        factored += sigma * a * b * c * (A + pm * B) * (A + pm * C) * (B - C)
    assert len(S15_TABLE) == 30 and len(set(S15_TABLE)) == 30
    assert sympy.expand(factored - table) == 0


def _prod(th: list, indices: str):
    return math.prod(th[int(j)] for j in indices)


def _oracle_monomials(th: list) -> dict[str, list]:
    """The forms as the mpc formulas wrote them before the factored kernel:
    name -> [(coefficient, monomial)], the form being the sum of the terms."""
    all10 = _prod(th, "0123456789")
    return {
        "g2": [(+1, _prod(th, "0145")), (-1, _prod(th, "1279")), (-1, _prod(th, "3478")),
               (+1, _prod(th, "0268")), (+1, _prod(th, "3569"))],
        "s5": [(mpmath.mpf(2) ** -6, all10)],
        "s6": [(mpmath.mpf(2) ** -8, _prod(th, q) ** 2)
               for q in ("012478", "012569", "034568", "236789", "134579")],
        "s10": [(mpmath.mpf(2) ** -12, all10 ** 2)],
        "s15": [(-sign * mpmath.mpf(2) ** -18, _prod(th, p9) ** 9 * _prod(th, p5) ** 5
                 * _prod(th, p1)) for sign, p9, p5, p1 in S15_TABLE],
    }


def _oracle_forms(theta: list, names: tuple[str, ...]) -> dict[str, tuple]:
    """name -> (the form, the sum of the moduli of its monomials), from the
    formulas of _oracle_monomials at the current precision.  With Jets, the
    moduli come from the same products of the thetas' moduli, so each
    derivative part gets the sum of the moduli of its own expanded terms."""
    if isinstance(theta[0], Jet):
        moduli = [Jet(abs(t.value), abs(t.d1), abs(t.d2)) for t in theta]
    else:
        moduli = [abs(t) for t in theta]
    terms, sizes = _oracle_monomials(theta), _oracle_monomials(moduli)
    out = {}
    for name in names:
        form = size = None
        for (c, m), (_, mm) in zip(terms[name], sizes[name]):
            form = c * m if form is None else form + c * m
            size = abs(c) * mm if size is None else size + abs(c) * mm
        out[name] = form, size
    return out


# the risk points, the diagonal, where theta_3 is exactly 0, and a point far
# into the cusp, whose thetas run from 1 down to 1e-66057 and whose s15
# cancels past every digit of either formula
FORM_POINTS = {**RISK_POINTS, "diagonal_1.3i": (("0", "1.3"), ("0", "1.3")),
               "cusp_1e10i": (("0", "1e10"), ("0", "1"))}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", sorted(FORM_POINTS))
def test_forms_match_the_doubled_table_oracle(name, bits):
    """mueller_forms against the table formulas at twice the bits, both fed
    the thetas of the same pass, plain and as Jets (g2, s6, s10, every part).
    The tolerance is series_tol times the sum of the moduli of the form's
    monomials: relative to the form itself it would fail wherever the
    monomials cancel, as s15's do at cusp_1e10i."""
    pol, ref = PrecisionPolicy(bits), PrecisionPolicy(2 * bits)
    (x1, y1), (x2, y2) = FORM_POINTS[name]
    with working_precision(pol):
        p = (mpmath.mpc(x1, y1), mpmath.mpc(x2, y2))
        plain = theta_batch(p, pol)
        jets = theta_batch(p, pol, derivatives=True)
        got = mueller_forms(p, pol, theta=plain)
        got_jets = mueller_forms(p, pol, theta=jets, names=("g2", "s6", "s10"))
    with working_precision(ref):
        for form, (want, size) in _oracle_forms(plain, FORM_NAMES).items():
            assert abs(getattr(got, form) - want) <= pol.series_tol * size, form
        for form, (want, size) in _oracle_forms(jets, ("g2", "s6", "s10")).items():
            jet = getattr(got_jets, form)
            for part in ("value", "d1", "d2"):
                error = abs(getattr(jet, part) - getattr(want, part))
                assert error <= pol.series_tol * getattr(size, part), (form, part)


def test_g2_boundary_value(policy):
    with working_precision(policy):
        f = mueller_forms((mpmath.mpc(0, 8), mpmath.mpc(0, 8)), policy)
        assert abs(f.g2 - 1) < 1e-6


def test_s10_vanishes_on_diagonal(policy):
    with working_precision(policy):
        z = mpmath.mpc(0, "1.3")
        f = mueller_forms((z, z), policy)
        assert abs(f.s10) < 1e-30


def test_s6_diagonal_product_formula(policy):
    with working_precision(policy):
        z = mpmath.mpc(0, "0.9")
        f = mueller_forms((z, z), policy)
        prod = (jacobi_theta("00", z, policy) * jacobi_theta("01", z, policy)
                * jacobi_theta("10", z, policy)) ** 8 / 2 ** 7
        assert abs(f.s6 - prod) / abs(prod) < policy.verify_tol


def test_mueller_relation_at_fixed_points(policy):
    with working_precision(policy):
        assert verify_mueller_relation(
            (mpmath.mpc(0, "1.1"), mpmath.mpc(0, "1.3")), policy) < policy.verify_tol
        assert verify_mueller_relation(
            (mpmath.mpc("0.6", "1.2"), mpmath.mpc("-0.3", "0.9")), policy) < policy.verify_tol


def test_mueller_relation_diagonal_reduces(policy):
    with working_precision(policy):
        z = mpmath.mpc(0, "1.1")
        f = mueller_forms((z, z), policy)
        # with s10 = 0 the relation collapses to the diagonal form
        lhs = f.s15 ** 2
        rhs = -2 * 27 * f.s6 ** 5 + f.g2 ** 3 * f.s6 ** 4 / 16
        assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < policy.verify_tol * 10


def test_mueller_relation_random_points(policy):
    rng = random.Random(41)
    with working_precision(policy):
        for _ in range(20):
            p = (mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 2.0), 6)),
                 mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 2.0), 6)))
            assert verify_mueller_relation(p, policy) < policy.verify_tol


def test_s10_is_s5_squared(policy):
    rng = random.Random(43)
    with working_precision(policy):
        for _ in range(5):
            p = (mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 2.0), 6)),
                 mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 2.0), 6)))
            f = mueller_forms(p, policy)
            assert abs(f.s10 - f.s5 ** 2) < policy.verify_tol * max(1, abs(f.s10))


def _record_theta_points(monkeypatch) -> list:
    """Make hilbert_theta.theta_batch record each point it is called at."""
    seen = []

    def recording(p, *args, **kwargs):
        seen.append((p.z1, p.z2) if isinstance(p, UHPPair) else tuple(p))
        return theta_batch(p, *args, **kwargs)

    monkeypatch.setattr(hilbert_theta, "theta_batch", recording)
    return seen


def test_modularity_laws(policy, monkeypatch):
    """The laws sum the forms at the point and at each of its four images, so
    no law compares a point with itself."""
    seen = _record_theta_points(monkeypatch)
    with working_precision(policy):
        for p in ((mpmath.mpc(0, "1.1"), mpmath.mpc(0, "1.4")),
                  (mpmath.mpc("0.3", "1.2"), mpmath.mpc("-0.2", "0.8"))):
            seen.clear()
            rep = verify_modularity(p, policy)
            for name, residual in rep.items():
                assert residual < policy.verify_tol * 100, name
            assert len(set(seen)) == len(seen) == 5


def test_inversion_law_at_fixed_point(policy):
    with working_precision(policy):
        z1, z2 = mpmath.mpc(0, "1.2"), mpmath.mpc(0, "0.8")
        base = unreduced_forms((z1, z2), policy)
        inv = unreduced_forms((-1 / z1, -1 / z2), policy)
        r = abs(inv.g2 - (z1 * z2) ** 2 * base.g2) / abs(inv.g2)
        assert r < policy.verify_tol * 10


def test_s5_antisymmetry_at_fixed_point(policy):
    with working_precision(policy):
        p = (mpmath.mpc(0, "1.1"), mpmath.mpc(0, "1.7"))
        a = unreduced_forms(p, policy)
        b = unreduced_forms((p[1], p[0]), policy)
        assert abs(a.s5 + b.s5) < policy.verify_tol * max(1, abs(a.s5))


# ------------------------------------------------------------ the reduction

def _reduction_point(name, policy):
    """A point near the real axis, or a group image as the benchmark builds
    them: g1 g3 g1^-3 g2^2 of a point high in the cusp, at Im 0.0217 and 0.0207."""
    if name == "cusp":
        return (mpmath.mpc("0.013", "0.02"), mpmath.mpc("-0.01", "0.021"))
    qc = quadratic_constants(policy)
    z1, z2 = mpmath.mpc("0.1", "46"), mpmath.mpc("-0.2", "48")
    return (1 - 1 / (z1 - 3 + 2 * qc.eps), 1 - 1 / (z2 - 3 + 2 * qc.eps_conj))


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("name", ["cusp", "image"])
def test_reduced_forms_match_the_raw_sum_at_four_times_the_bits(name, bits):
    """Every form, evaluated at the reduced point and divided by N^k, against
    the thetas summed where the point lies at 4x the bits, relative to the
    form itself.  Summed where it lies at the working precision, s15 at the
    cusp point is good only to about 1e-23 at 128 bits."""
    pol, ref = PrecisionPolicy(bits), PrecisionPolicy(4 * bits)
    with working_precision(pol):
        p = _reduction_point(name, pol)
        got = mueller_forms(p, pol)
    with working_precision(ref):
        want = unreduced_forms(p, ref)
        for form in FORM_NAMES:
            w = getattr(want, form)
            assert abs(getattr(got, form) - w) < pol.verify_tol * abs(w), form


@pytest.mark.parametrize("name", ["cusp", "image"])
def test_a_cusp_point_is_summed_once_at_a_reduced_point(name, monkeypatch):
    """One theta_batch call, at a point whose Im z1 Im z2 is at least that
    of the lowest point of the verify box, 0.8 * 0.8."""
    seen = _record_theta_points(monkeypatch)
    pol = PrecisionPolicy(128)
    with working_precision(pol):
        mueller_forms(_reduction_point(name, pol), pol)
    assert len(seen) == 1
    assert seen[0][0].imag * seen[0][1].imag >= 0.64


# sha256 of the five forms' parts at the risk points, with the thetas summed
# where each point lies, as mueller_forms summed every point before it reduced
RAW_FORMS_DIGEST = {
    128: "d6b8402c4f565f44728042116d77a14619d9d252eb05ee609be7be33df677153",
    256: "fb78ac5ed79a661ae60529c1006415b6fb6655ac39e587d3b378819b31b4c842",
}


@pytest.mark.parametrize("bits", [128, 256])
def test_forms_from_given_thetas_are_unchanged(bits):
    """mueller_forms with ``theta`` sums where it is told, bit for bit as
    before the reduction; Newton's Jacobian and the orbit checks rely on it."""
    pol = PrecisionPolicy(bits)
    h = hashlib.sha256()
    with working_precision(pol):
        for name in sorted(RISK_POINTS):
            f = unreduced_forms(_risk_point(name), pol)
            for form in FORM_NAMES:
                v = getattr(f, form)
                h.update(f"{v.real._mpf_}|{v.imag._mpf_}|".encode())
    assert h.hexdigest() == RAW_FORMS_DIGEST[bits]


def test_a_point_past_the_reduction_cap_raises(monkeypatch):
    monkeypatch.setattr(hilbert_theta, "REDUCTION_CAP", 0)
    with pytest.raises(NonConvergent, match="not reduced"):
        mueller_forms((mpmath.mpc(0, "0.5"), mpmath.mpc(0, "0.5")), PrecisionPolicy(128))


# ------------------------------------------------------------ derivatives

BOX_POINT = (mpmath.mpc("0.3", "1.1"), mpmath.mpc("-0.2", "0.9"))


def _derivative_point(name):
    # the box point, or its image z -> -1/(z + 3), at Im 0.091 and 0.104
    return BOX_POINT if name == "box" else tuple(-1 / (z + 3) for z in BOX_POINT)


@pytest.mark.parametrize("name, bits, slot", [
    ("box", 128, 0), ("box", 128, 1), ("box", 256, 0), ("box", 256, 1),
    ("image", 128, 0), ("image", 128, 1)])
def test_theta_derivatives_match_differentiated_oracle(name, bits, slot):
    """d theta_j / dz against mpmath.diff of the brute-force sum at twice the
    precision.  The differenced oracle itself is good to about 2^-(bits - 14)
    of the shift's largest derivative, so the bound leaves a factor 2^10."""
    pol, ref = PrecisionPolicy(bits), PrecisionPolicy(2 * bits)
    with working_precision(ref):
        p = _derivative_point(name)
    with working_precision(pol):
        jets = theta_batch(p, pol, derivatives=True)
        for j in range(10):
            def oracle(t, j=j):
                z = list(p)
                z[slot] = t
                return siegel_theta(psi(z, ref), THETA_CHARACTERISTICS[j], ref)

            got = (jets[j].d1, jets[j].d2)[slot]
            a = THETA_CHARACTERISTICS[j][0]
            scale = max(max(abs(jets[k].d1), abs(jets[k].d2))
                        for k in range(10) if THETA_CHARACTERISTICS[k][0] == a)
            assert abs(got - mpmath.diff(oracle, p[slot])) < 2 ** -(bits - 24) * scale, j


def test_theta_values_with_derivatives_match_the_plain_pass(policy):
    with working_precision(policy):
        points = [_derivative_point(name) for name in ("box", "image")]
        for p in points + [_risk_point(name) for name in sorted(RISK_POINTS)]:
            plain = theta_batch(p, policy)
            jets = theta_batch(p, policy, derivatives=True)
            scale = max(abs(t) for t in plain)
            for t, jet in zip(plain, jets):
                assert abs(jet.value - t) < policy.series_tol * scale


def test_reduced_forms_equal_the_full_forms(policy):
    with working_precision(policy):
        full = mueller_forms(BOX_POINT, policy)
        reduced = mueller_forms(BOX_POINT, policy, names=("g2", "s6", "s10"))
        assert (reduced.g2, reduced.s6, reduced.s10) == (full.g2, full.s6, full.s10)
        assert reduced.s5 is None and reduced.s15 is None
        # jets carry the plain values through the same products, bit for bit
        theta = [Jet(t, 0, 0) for t in theta_batch(BOX_POINT, policy)]
        names = ("g2", "s5", "s6", "s10")
        jets = mueller_forms(BOX_POINT, policy, theta=theta, names=names)
        for name in names:
            assert getattr(jets, name).value == getattr(full, name), name


def test_a_pass_makes_the_same_exponentials_whatever_its_row_count(monkeypatch):
    """Rows start from recurrences out of each shift's largest term, so the
    mpmath exp / expj calls of a pass do not grow with its rows."""
    pol = PrecisionPolicy(128)
    with working_precision(pol):
        points = {name: _risk_point(name) for name in ("off_axis", "low")}
        rows = {name: sum(len(lattice_region(psi(p, pol), a, mpmath.mp.prec).rows)
                          for a in SHIFTS) for name, p in points.items()}
    assert rows["low"] > 2 * rows["off_axis"]
    calls = []
    for name in ("exp", "expj"):
        inner = getattr(mpmath, name)
        monkeypatch.setattr(mpmath, name, lambda *a, inner=inner, **k: calls.append(1)
                            or inner(*a, **k))
    counts = {}
    for name, p in points.items():
        for derivatives in (False, True):
            calls.clear()
            theta_batch(p, pol, derivatives=derivatives)
            counts[name, derivatives] = len(calls)
    assert len(set(counts.values())) == 1, counts


def test_a_point_past_the_term_cap_raises_before_summing():
    tiny = (mpmath.mpc(0, "1e-30"), mpmath.mpc(0, "1e-30"))
    with pytest.raises(NonConvergent, match="over the cap of 200000 terms"):
        theta_batch(tiny, PrecisionPolicy(128))


def test_a_far_cusp_pass_allocates_no_integer_of_im_z_bits():
    """At (1e9i, 1e9i) the largest term of a shift is about e^(-pi 1e9 / 2),
    so its fixed-point scale is about 4.5e9 bits.  Scaling a state value
    by one shift of the net bit count keeps every integer near wp bits;
    shifting left by the scale first would build integers of hundreds of MB."""
    policy = PrecisionPolicy(128)
    with working_precision(policy):
        z = mpmath.mpc(0, "1e9")
        tracemalloc.start()
        try:
            theta_batch((z, z), policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 ** 20
