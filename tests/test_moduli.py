import random
from fractions import Fraction

import mpmath
import pytest

from hilbert_k3.elliptic import eisenstein_and_J
from hilbert_k3.moduli import (GENERATORS, JacobianSingular, K2_LOCUS,
                               NearZeroDenominator, RankDeficient, apply_generator,
                               match_projective_maps,
                               moduli_XY, moduli_XYZ, modular_invariance,
                               newton_invert)
from hilbert_k3.hilbert_theta import mueller_forms, theta_batch, unreduced_forms
from hilbert_k3.numkernel import PrecisionPolicy, working_precision


def test_diagonal_Y_vanishes(policy):
    with working_precision(policy):
        z = mpmath.mpc(0, "1.3")
        _, y, _ = moduli_XYZ((z, z), policy)
        assert abs(y) < policy.verify_tol


def test_diagonal_X_times_J(policy):
    with working_precision(policy):
        z = mpmath.mpc(0, "1.3")
        x, _, _ = moduli_XYZ((z, z), policy)
        j = eisenstein_and_J(z, policy)
        assert abs(x * j - mpmath.mpf(25) / 27) < policy.verify_tol


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("y", ["30", "1e6"])
def test_diagonal_X_far_into_the_cusp(bits, y):
    """X(iy, iy) = 25 / (27 J(iy)) = 1600 q (1 - 744 q + ...), q = e^(-2 pi y),
    so X = 1600 e^(-2 pi y) within verify_tol once 744 q is below it."""
    policy = PrecisionPolicy(bits)
    with working_precision(policy):
        z = mpmath.mpc(0, mpmath.mpf(y))
        x, _, _ = moduli_XYZ((z, z), policy)
        lead = 1600 * mpmath.exp(-2 * mpmath.pi * z.imag)
        assert abs(x / lead - 1) < policy.verify_tol


@pytest.mark.parametrize("bits", [128, 256])
def test_X_near_the_real_axis_equals_X_at_its_inverse(bits):
    """(0.02i, 0.02i) is summed at its g3 image (50i, 50i), so X keeps every
    digit there; summed where it lies, X kept about 15 at 128 bits."""
    policy = PrecisionPolicy(bits)
    with working_precision(policy):
        low, _, _ = moduli_XYZ((mpmath.mpc(0, "0.02"), mpmath.mpc(0, "0.02")), policy)
        high, _, _ = moduli_XYZ((mpmath.mpc(0, 50), mpmath.mpc(0, 50)), policy)
        assert abs(low - high) < policy.verify_tol * abs(high)


def test_quintic_relation_generic(policy):
    with working_precision(policy):
        x, y, z = moduli_XYZ((mpmath.mpc(0, "1.1"), mpmath.mpc(0, "0.8")), policy)
        lhs = 144 * z
        rhs = (-1728 * x ** 5 + 720 * x ** 3 * y - 80 * x * y ** 2
               + 64 * (5 * x ** 2 - y) ** 2 + y ** 3)
        assert abs(lhs - rhs) < policy.verify_tol * max(abs(lhs), abs(rhs))


def test_XYZ_invariant_under_all_generators_at_ten_points(policy):
    rng = random.Random(47)
    with working_precision(policy):
        pts = [(mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 2.0), 6)),
                mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(0.8, 2.0), 6)))
               for _ in range(10)]
        # summed where each point lies: reduced first, p and g p would be
        # summed at the same point
        values = [moduli_XYZ(p, policy, forms=unreduced_forms(p, policy)) for p in pts]
        for gen in GENERATORS:
            for p, (x0, y0, z0) in zip(pts, values):
                q = apply_generator(p, gen, policy)
                x1, y1, z1 = moduli_XYZ(q, policy, forms=unreduced_forms(q, policy))
                scale = 1 + abs(x0) + abs(y0) + abs(z0)
                assert abs(x1 - x0) + abs(y1 - y0) + abs(z1 - z0) \
                    < policy.verify_tol * 10 * scale, gen


def test_tau_swap_specific(policy):
    with working_precision(policy):
        p = (mpmath.mpc(0, "1.1"), mpmath.mpc(0, "1.6"))
        assert modular_invariance(p, "tau", policy) < policy.verify_tol


def test_newton_round_trip(policy):
    with working_precision(policy):
        ztrue = (mpmath.mpc(0, "1.2"), mpmath.mpc(0, "0.9"))
        x0, y0, _ = moduli_XYZ(ztrue, policy)
        guess = (mpmath.mpc("0.02", "1.17"), mpmath.mpc("-0.015", "0.93"))
        res = newton_invert(x0, y0, guess, policy)
        assert res.residual < 1e-12
        xr, yr, _ = moduli_XYZ(res.z, policy)
        assert abs(xr - x0) + abs(yr - y0) < 1e-8
        # recovered preimage agrees with the seed branch here
        assert abs(res.z.z1 - ztrue[0]) + abs(res.z.z2 - ztrue[1]) < 1e-8


def test_newton_diagonal_target_stays_diagonal(policy):
    with working_precision(policy):
        zd = mpmath.mpc(0, "1.25")
        x0, _, _ = moduli_XYZ((zd, zd), policy)
        guess = (mpmath.mpc(0, "1.3"), mpmath.mpc(0, "1.3"))
        res = newton_invert(x0, 0, guess, policy)
        assert abs(res.z.z1 - res.z.z2) < 1e-8
        xr, yr, _ = moduli_XYZ(res.z, policy)
        assert abs(xr - x0) + abs(yr) < 1e-8


def test_newton_offdiagonal_target_from_diagonal_guess(policy):
    with working_precision(policy):
        target = moduli_XYZ((mpmath.mpc(0, "1.2"), mpmath.mpc(0, "0.9")), policy)
        guess = (mpmath.mpc(0, "1.1"), mpmath.mpc(0, "1.1"))
        try:
            res = newton_invert(target[0], target[1], guess, policy)
        except JacobianSingular:
            return  # acceptable contract outcome
        # if it converged, the residual must be genuine
        xr, yr, _ = moduli_XYZ(res.z, policy)
        assert abs(xr - target[0]) + abs(yr - target[1]) < 1e-8


def test_inversion_result_carries_the_jacobian_of_its_last_pass(policy):
    with working_precision(policy):
        target = moduli_XYZ((mpmath.mpc("0.1", "1.3"), mpmath.mpc("-0.2", "1.6")), policy)
        res = newton_invert(target[0], target[1],
                            (mpmath.mpc("0.12", "1.28"), mpmath.mpc("-0.21", "1.62")), policy)
        x, y = moduli_XY(res.z, policy, derivatives=True)
        assert res.jacobian == (x.d1, x.d2, y.d1, y.d2)


def _vector(rng):
    return mpmath.matrix([mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)])


def _equal_up_to_scale(g, m, tol):
    """g = lam m for one complex lam, to a relative tol."""
    k = max(((i, j) for i in range(4) for j in range(4)), key=lambda ij: abs(m[ij]))
    lam = g[k] / m[k]
    return mpmath.mnorm(g - lam * m, 1) < tol * mpmath.mnorm(g, 1)


def test_match_identity(policy):
    with working_precision(policy):
        rng = random.Random(5)
        samples = [_vector(rng) for _ in range(14)]
        g, res = match_projective_maps(samples, samples)
        assert res < 1e-30
        assert _equal_up_to_scale(g, mpmath.eye(4), 1e-30)


def test_match_recovers_random_transform(policy):
    with working_precision(policy):
        rng = random.Random(6)
        samples = [_vector(rng) for _ in range(14)]
        m = mpmath.matrix([[mpmath.mpc(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)]
                           for _ in range(4)])
        g, res = match_projective_maps(samples, [m * v for v in samples])
        assert res < 1e-30
        assert _equal_up_to_scale(g, m, 1e-30)


def test_match_rank_deficient_on_ambiguous_data(policy):
    with working_precision(policy):
        rng = random.Random(8)
        # all samples proportional: many transforms fit
        v = _vector(rng)
        samples = [v * rng.gauss(0, 1) for _ in range(12)]
        with pytest.raises(RankDeficient):
            match_projective_maps(samples, samples)
        # the fifth sample in the span of three others: c_4 = 0
        samples = [_vector(rng) for _ in range(12)]
        samples[4] = samples[0] - 2 * samples[1] + samples[2]
        with pytest.raises(RankDeficient):
            match_projective_maps(samples, samples)


def test_near_zero_denominator_guard(policy):
    # g2 vanishes somewhere; rather than hunting a zero, check the guard fires
    # on an artificially tiny g2 via the forms override
    from hilbert_k3.hilbert_theta import MuellerForms
    fake = MuellerForms(g2=mpmath.mpc(1e-40), s5=mpmath.mpc(1), s6=mpmath.mpc(1),
                        s10=mpmath.mpc(1), s15=mpmath.mpc(1))
    with pytest.raises(NearZeroDenominator):
        moduli_XYZ((mpmath.mpc(0, 1), mpmath.mpc(0, 1)), policy, forms=fake)


def test_moduli_point_flags():
    # K2 locus polynomial fixture
    from fractions import Fraction
    assert K2_LOCUS.evaluate({"X": Fraction(0), "Y": Fraction(-64)}) == 0
    assert K2_LOCUS.evaluate({"X": Fraction(1), "Y": Fraction(1)}) == 63


def _xy_jets(p, policy):
    theta = theta_batch(p, policy, derivatives=True)
    forms = mueller_forms(p, policy, theta=theta, names=("g2", "s6", "s10"))
    x, y, z = moduli_XYZ(p, policy, forms=forms)
    assert z is None
    return x, y


@pytest.mark.parametrize("bits", [128, 256])
def test_jacobian_matches_central_differences_at_doubled_precision(bits):
    pol, ref = PrecisionPolicy(bits), PrecisionPolicy(2 * bits)
    p = (mpmath.mpc("0.3", "1.1"), mpmath.mpc("-0.2", "0.9"))
    with working_precision(pol):
        jets = _xy_jets(p, pol)
    with working_precision(ref):
        # the central difference errs by about h^2 = 2^-(bits + 16)
        h = mpmath.mpf(2) ** -(bits // 2 + 8)
        for slot in (0, 1):
            step = [0, 0]
            step[slot] = h
            fp = moduli_XYZ((p[0] + step[0], p[1] + step[1]), ref)[:2]
            fm = moduli_XYZ((p[0] - step[0], p[1] - step[1]), ref)[:2]
            for jet, a, b in zip(jets, fp, fm):
                got = (jet.d1, jet.d2)[slot]
                scale = max(abs(jet.d1), abs(jet.d2))
                assert abs(got - (a - b) / (2 * h)) < 2 ** -bits * scale


@pytest.mark.parametrize("bits", [128, 256])
def test_invert_reaches_verify_tol(bits):
    """Newton's default tolerance is verify_tol * (1 + |X| + |Y|); the point
    it returns meets it also when X and Y are evaluated at twice the
    precision."""
    pol, ref = PrecisionPolicy(bits), PrecisionPolicy(2 * bits)
    target = (Fraction(1, 10), Fraction(1, 10))
    with working_precision(pol):
        guess = (mpmath.mpc("0.309", "1.22"), mpmath.mpc("-0.809", "1.85"))
        res = newton_invert(*target, guess, pol)
    tol = pol.verify_tol * (1 + 2 * Fraction(1, 10))
    assert res.residual < tol
    with working_precision(ref):
        x, y, _ = moduli_XYZ(res.z, ref)
        assert abs(x - mpmath.mpf(1) / 10) + abs(y - mpmath.mpf(1) / 10) < tol
