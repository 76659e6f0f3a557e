import sys
import threading

import mpmath
import pytest

from hilbert_k3.hilbert_theta import FORM_NAMES, mueller_forms
from hilbert_k3.numkernel import (NonConvergent, PrecisionPolicy, quadratic_constants,
                                  sum_series, working_precision)


def test_geometric_series(policy):
    with working_precision(policy):
        q = mpmath.mpf("0.5")
        res = sum_series(lambda n: q ** n,
                         lambda n: q ** (n + 1) / (1 - q), policy)
        assert abs(res.value - 2) < policy.series_tol


def test_all_zero_generator_stops_after_one_term(policy):
    """A zero tail bound stops the sum as soon as it may: after two terms."""
    res = sum_series(lambda n: mpmath.mpc(0), lambda n: mpmath.mpf(0), policy)
    assert res.value == 0
    assert res.terms_used == 2


def test_arithmetico_geometric_series(policy):
    # sum n q^n = q/(1-q)^2 = 90 at q = 0.9, computed independently
    with working_precision(policy):
        q = mpmath.mpf("0.9")
        expected = q / (1 - q) ** 2
        assert abs(expected - 90) < 1e-25

        def tail(n):
            # n q^n decreasing ratio bound for n >= 10
            m = n + 1
            ratio = q * (m + 1) / m
            if ratio >= 1:
                return mpmath.inf
            return m * q ** m / (1 - ratio)

        res = sum_series(lambda n: n * q ** n, tail, policy)
        assert abs(res.value - 90) < policy.series_tol * 100


def test_nonconvergent_cap(monkeypatch):
    from hilbert_k3 import numkernel
    monkeypatch.setattr(numkernel, "SERIES_CAP", 50)
    calls = []
    with pytest.raises(NonConvergent, match="within 50 terms"):
        sum_series(lambda n: calls.append(n) or mpmath.mpf(1), lambda n: mpmath.mpf(1),
                   PrecisionPolicy(64))
    assert len(calls) == 51


def test_quadratic_constants(policy):
    qc = quadratic_constants(policy)
    with working_precision(policy):
        assert abs(qc.eps * qc.eps_conj + 1) < 1e-36
        assert abs(qc.eps + qc.eps_conj - 1) < 1e-36
        assert abs(qc.sqrt5 ** 2 - 5) < 1e-36


def test_policy_invariants():
    with pytest.raises(ValueError, match="at least 53"):
        PrecisionPolicy(40)
    for bits, series_tol in ((53, 2.0 ** -45), (128, 2.0 ** -120), (256, 2.0 ** -248),
                             (1082, 2.0 ** -1074)):
        pol = PrecisionPolicy(bits)
        assert pol.series_tol == series_tol
        assert pol.verify_tol == 10 * series_tol
    # exact past the float range, where 2.0 ** -1092 would underflow to 0.0
    pol = PrecisionPolicy(1100)
    assert pol.series_tol * 2 ** 1092 == 1
    assert pol.verify_tol * 2 ** 1092 == 10
    with pytest.raises(AttributeError):
        PrecisionPolicy(128).series_tol = 1e-10  # derived from the width, not set


def test_precision_doubling_consistency(policy):
    # doubling the mantissa moves exported values by less than the coarse tol
    from hilbert_k3.elliptic import eisenstein_and_J, jacobi_theta

    double = PrecisionPolicy(2 * policy.mantissa_bits)
    import random
    rng = random.Random(11)
    with working_precision(double):
        for _ in range(10):
            z = mpmath.mpc(round(rng.uniform(-0.5, 0.5), 6),
                           round(rng.uniform(0.8, 2.0), 6))
            a = jacobi_theta("00", z, policy)
            b = jacobi_theta("00", z, double)
            assert abs(a - b) < policy.series_tol
            ja = eisenstein_and_J(z, policy)
            jb = eisenstein_and_J(z, double)
            # J is a rational function of (theta10 / theta00)^4 and cancels
            # nothing, so it moves by a few series_tol relative to 1 + |J|
            assert abs(ja - jb) < policy.series_tol * 12 * (1 + abs(jb))


def test_threads_at_different_precisions_keep_their_digits():
    """Two threads evaluate the forms at 128 and at 256 bits while the
    interpreter switches between them as often as it can.  working_precision
    serialises the blocks that set the process-wide mp.prec, so every result
    agrees with a reference at twice its precision."""
    p = (mpmath.mpc("0.25", "1.125"), mpmath.mpc("-0.125", "0.875"))
    results: dict[int, list] = {128: [], 256: []}

    def work(bits):
        policy = PrecisionPolicy(bits)
        for _ in range(20):
            results[bits].append(mueller_forms(p, policy))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(bits,)) for bits in results]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(old)
    for bits, forms in results.items():
        assert len(forms) == 20, bits
        reference = PrecisionPolicy(2 * bits)
        ref = mueller_forms(p, reference)
        with working_precision(reference):
            worst = max(abs(getattr(f, name) - getattr(ref, name)) / abs(getattr(ref, name))
                        for f in forms for name in FORM_NAMES)
        assert worst < PrecisionPolicy(bits).verify_tol, (bits, worst)
