import hashlib
import random

import mpmath
import numpy as np
import pytest

from hilbert_k3.elliptic import (NotInUpperHalfPlane, eisenstein_and_J, j_qexpansion,
                                 jacobi_theta)
from hilbert_k3.numkernel import NonConvergent, PrecisionPolicy, to_mpc, working_precision


def test_uhp_validation():
    with pytest.raises(NotInUpperHalfPlane):
        jacobi_theta("00", mpmath.mpc(0, -1))


def test_jacobi_quartic_identity(policy):
    rng = random.Random(23)
    with working_precision(policy):
        pts = [mpmath.mpc(0, "1.3")] + [
            mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 2.0), 6))
            for _ in range(10)]
        for z in pts:
            t00, t01, t10 = (jacobi_theta(k, z, policy) for k in ("00", "01", "10"))
            resid = abs(t01 ** 4 + t10 ** 4 - t00 ** 4)
            assert resid < policy.verify_tol * abs(t00) ** 4


def test_theta10_decay(policy):
    # leading term 2 exp(i pi z / 4): at z = 10i that is 2 e^(-2.5 pi) ~ 7.8e-4,
    # so the strict 1e-6 threshold needs a taller point
    with working_precision(policy):
        v10 = jacobi_theta("10", mpmath.mpc(0, 10), policy)
        lead = 2 * mpmath.exp(-10 * mpmath.pi / 4)
        assert abs(v10 - lead) < 1e-9
        assert abs(v10) < 1e-3
        assert abs(jacobi_theta("10", mpmath.mpc(0, 26), policy)) < 1e-6


def test_theta00_at_i_agrees_with_agm(policy):
    with working_precision(policy):
        t00 = jacobi_theta("00", mpmath.mpc(0, 1), policy)
        oracle = 1 / mpmath.sqrt(mpmath.agm(1, 1 / mpmath.sqrt(2)))
        assert abs(t00 - oracle) < 1e-35
        assert abs(t00 - mpmath.mpf("1.08643481121330801457531612151")) < 1e-28


def test_theta00_at_i_converges_above_the_float_range():
    """At 1,100 bits series_tol is 2^-1092, below the smallest float; the sum
    still stops, and agrees with the AGM to that tolerance."""
    policy = PrecisionPolicy(1100)
    with working_precision(policy):
        t00 = jacobi_theta("00", 1j, policy)
        oracle = 1 / mpmath.sqrt(mpmath.agm(1, 1 / mpmath.sqrt(2)))
        assert abs(t00 - oracle) < policy.verify_tol


def test_J_special_values(policy):
    with working_precision(policy):
        assert abs(eisenstein_and_J(mpmath.mpc(0, 1), policy).J - 1) < policy.verify_tol
        rho = mpmath.mpc(mpmath.mpf(1) / 2, mpmath.sqrt(3) / 2)
        assert abs(eisenstein_and_J(rho, policy).J) < 1e-30


def test_J_at_2i_against_lattice_sum_oracle(policy):
    # truncated double sum G2 = 60 sum (m z + n)^-4 at z = 2i; the tail decays
    # like 1/R^2 after the J amplification, so R = 400 gives percent accuracy,
    # enough to validate the divisor-sum normalisation once
    R = 400
    m, n = np.meshgrid(np.arange(-R, R + 1), np.arange(-R, R + 1))
    mask = (m != 0) | (n != 0)
    w = m[mask] * 2j + n[mask]
    g2 = 60 * np.sum(w ** -4.0)
    g3 = 140 * np.sum(w ** -6.0)
    j_oracle = g2 ** 3 / (g2 ** 3 - 27 * g3 ** 2)
    assert abs(j_oracle - 166.375) < 0.02
    with working_precision(policy):
        v = eisenstein_and_J(mpmath.mpc(0, 2), policy)
        assert abs(v.J - mpmath.mpf(1331) / 8) < policy.verify_tol * 200


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("y", ["1.2", "2", "3", "5", "10"])
def test_J_keeps_the_digits_the_discriminant_cancels(bits, y):
    """E4^3 - E6^2 = 1728 q (1 + O(q)) cancels about log2(1/|1728 q|) bits, so
    J from sums to an absolute series_tol would lose them (9% of J at 16.5i,
    128 bits); with those bits carried, all four values are within verify_tol
    of a reference at four times the precision."""
    policy, reference = PrecisionPolicy(bits), PrecisionPolicy(4 * bits)
    with working_precision(reference):
        z = mpmath.mpc(0, mpmath.mpf(y))
        exact = eisenstein_and_J(z, reference)
        values = eisenstein_and_J(z, policy)
        for name in ("E4", "E6", "Delta", "J"):
            ref = getattr(exact, name)
            assert abs(getattr(values, name) - ref) < policy.verify_tol * abs(ref), name


def test_J_past_the_mantissa_raises_non_convergent(policy):
    """At Im z = 1e20 the discriminant cancels about 9e20 bits: more than the
    mantissa, so J raises NonConvergent rather than divide by zero."""
    with pytest.raises(NonConvergent, match="more than the 128-bit mantissa"):
        eisenstein_and_J(mpmath.mpc(0, "1e20"), policy)


def test_theta_delta_identity(policy):
    """(1/1728) (3/(4 pi^4))^3 Delta = 2^-8 (theta00 theta01 theta10)^8."""
    with working_precision(policy):
        for z in (mpmath.mpc(0, "1.1"), mpmath.mpc("0.8", "1.7"), mpmath.mpc(0, 1)):
            delta = eisenstein_and_J(z, policy).Delta
            lhs = (mpmath.mpf(3) / (4 * mpmath.pi ** 4)) ** 3 * delta / 1728
            prod = (jacobi_theta("00", z, policy) * jacobi_theta("01", z, policy)
                    * jacobi_theta("10", z, policy))
            rhs = prod ** 8 / 256
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < policy.verify_tol
        # at z = i the two shifted constants coincide
        t01 = jacobi_theta("01", mpmath.mpc(0, 1), policy)
        t10 = jacobi_theta("10", mpmath.mpc(0, 1), policy)
        assert abs(t01 - t10) < policy.verify_tol


def test_j_qexpansion_leading_coefficients():
    qe = j_qexpansion(2)
    assert (qe.expo, qe.prec) == (-1, 3)
    assert qe.coeffs[:3] == [1, 744, 196884]


def test_j_qexpansion_next_coefficient_stable_under_higher_order():
    # derived fixture: recompute at higher working order and freeze
    low = j_qexpansion(2)
    high = j_qexpansion(12)
    # the coefficients of q^2 and q^3; both series start at q^-1
    assert low.expo == high.expo == -1
    assert low.coeffs[3] == high.coeffs[3] == 21493760
    assert high.coeffs[4] == 864299970


# sha256 of the exponent, precision and every coefficient of j_qexpansion(40)
J_QEXPANSION_40_DIGEST = "039edd36032d61f5cd7d714f1303ec7a5afec7b3e4536769ca2a533c61eb0ae6"


def test_j_qexpansion_order_40_is_pinned():
    qe = j_qexpansion(40)
    text = f"{qe.expo}|{qe.prec}|{','.join(str(c) for c in qe.coeffs)}"
    assert hashlib.sha256(text.encode()).hexdigest() == J_QEXPANSION_40_DIGEST


def test_modularity_smoke(policy):
    rng = random.Random(31)
    with working_precision(policy):
        for _ in range(5):
            z = mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6),
                           round(rng.uniform(0.9, 2.0), 6))
            j0 = eisenstein_and_J(z, policy).J
            j1 = eisenstein_and_J(z + 1, policy).J
            j2 = eisenstein_and_J(-1 / z, policy).J
            scale = max(1, abs(j0))
            assert abs(j1 - j0) < policy.verify_tol * scale
            assert abs(j2 - j0) < policy.verify_tol * scale * 10


def test_qexpansion_evaluation_matches_eisenstein_path(policy):
    rng = random.Random(37)
    qe = j_qexpansion(48)
    with working_precision(policy):
        for _ in range(5):
            z = mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6),
                           round(rng.uniform(0.8, 2.0), 6))
            q = mpmath.exp(2j * mpmath.pi * z)
            lhs = mpmath.mpc(0)
            for k, c in enumerate(qe.coeffs):
                lhs += to_mpc(c) * q ** (qe.expo + k)
            rhs = 1728 * eisenstein_and_J(z, policy).J
            assert abs(lhs - rhs) < policy.verify_tol * max(1, abs(rhs))
