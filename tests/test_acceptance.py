"""Acceptance gate: every headline identity and classification at its stated
tolerance, one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -rA` to see the lines.
"""

import time
from fractions import Fraction

import mpmath

from hilbert_k3.diffops import indicial_exponents
from hilbert_k3.elliptic import jacobi_theta
from hilbert_k3.fibrations import classify_fibers
from hilbert_k3.hilbert_theta import mueller_forms, verify_mueller_relation
from hilbert_k3.klein import verify_klein_relation
from hilbert_k3.lattice import action_residuals, check_orthogonality, j_map
from hilbert_k3.moduli import moduli_XYZ, projective_distance
from hilbert_k3.numkernel import PrecisionPolicy, working_precision
from hilbert_k3.pde import (developing_map_match, quadric_from_grids, taylor_basis,
                            verify_pde_restriction)
from hilbert_k3.periods import (restricted_ode_X, restricted_operators,
                                verify_clausen_and_S, verify_symmetric_square,
                                verify_diagonal_inverse_identity)
from hilbert_k3.verify import diagonal_points, sample_points

POLICY = PrecisionPolicy(128)
BASE = (Fraction(1, 10), Fraction(1, 10))


def _report(cid: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {cid}: {status} {detail}".rstrip())
    assert ok, f"criterion {cid} failed: {detail}"


def test_criterion_01_klein_relation_exact():
    t0 = time.time()
    rep = verify_klein_relation()
    dt = time.time() - t0
    _report("1 (icosahedral relation)", rep["exact_zero"] and dt < 10,
            f"exact zero in {dt:.2f}s")


def test_criterion_02_operator_factorization():
    t0 = time.time()
    ode = restricted_operators()
    ok = ode.W1.compose(ode.W3) == ode.W4
    dt = time.time() - t0
    _report("2 (operator factorization)", ok and dt < 1.0,
            f"W1 o W3 == W4 exact in {dt:.2f}s")


def test_criterion_03_pde_restriction():
    t0 = time.time()
    rep = verify_pde_restriction()
    dt = time.time() - t0
    _report("3 (PDE -> ODE restriction)",
            rep["matches_restricted_ode"] and rep["no_zeroth_order_term"] and dt < 60,
            f"coefficient-exact in {dt:.1f}s")


def test_criterion_04_riemann_scheme():
    eq = restricted_ode_X()
    ok = (indicial_exponents(eq, 0) == [0, 1, 1, 1]
          and indicial_exponents(eq, Fraction(25, 27)) == [0, Fraction(1, 2), 1, 2]
          and indicial_exponents(eq, Fraction(40, 3)) == [0, 1, 2, 4]
          and indicial_exponents(eq, "infinity") == sorted(
              [Fraction(0), Fraction(-5, 6), Fraction(-1, 2), Fraction(-1, 6)]))
    _report("4 (Riemann scheme)", ok, "four exponent sets exact")


def test_criterion_05_clausen_and_symmetric_square():
    rep = verify_clausen_and_S(40)
    sym = verify_symmetric_square(40)
    ok = (rep["clausen"] and rep["antiderivative_identity"] and rep["S_annihilated"]
          and rep["derivative_consistency"])
    for name in ("t*y1^2", "t*y1*y2", "t*y2^2"):
        ok = ok and sym[name]["annihilated"]
    ok = ok and sym["s2^2 = s1*s3"]["holds"]
    _report("5 (Clausen + symmetric square)", ok, "exact series to order 40")


def _criterion_6(policy) -> tuple[bool, str]:
    with working_precision(policy):
        t0 = time.time()
        diag = verify_diagonal_inverse_identity(diagonal_points(10), policy)
        worst_q = mpmath.mpf(0)
        worst_m = mpmath.mpf(0)
        for p in sample_points(10):
            X, Y, Z = moduli_XYZ(p, policy)
            lhs = 144 * Z
            rhs = (-1728 * X ** 5 + 720 * X ** 3 * Y - 80 * X * Y ** 2
                   + 64 * (5 * X ** 2 - Y) ** 2 + Y ** 3)
            worst_q = max(worst_q, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            worst_m = max(worst_m, verify_mueller_relation(mueller_forms(p, policy), policy))
        dt = time.time() - t0
        ok = diag < 1e-8 and worst_q < 1e-8 and worst_m < 1e-8
        detail = (f"diag {mpmath.nstr(diag, 3)}, quintic {mpmath.nstr(worst_q, 3)}, "
                  f"ring {mpmath.nstr(worst_m, 3)}, {dt:.1f}s")
        if policy.mantissa_bits == 128:
            ok = ok and dt < 30
        return ok, detail


def test_criterion_06_main_theorem_constants():
    ok, detail = _criterion_6(POLICY)
    _report("6 (main-theorem constants)", ok, detail)


def _criterion_7(policy) -> tuple[bool, str]:
    with working_precision(policy):
        f8 = mueller_forms((mpmath.mpc(0, 8), mpmath.mpc(0, 8)), policy)
        r_g2 = abs(f8.g2 - 1)
        z = mpmath.mpc(0, "1.3")
        fd = mueller_forms((z, z), policy)
        scale = max(mpmath.mpf(1), abs(fd.g2) ** 5)
        r_s10 = abs(fd.s10)
        z9 = mpmath.mpc(0, "0.9")
        f9 = mueller_forms((z9, z9), policy)
        prod = (jacobi_theta("00", z9, policy) * jacobi_theta("01", z9, policy)
                * jacobi_theta("10", z9, policy)) ** 8 / 2 ** 7
        r_s6 = abs(f9.s6 - prod) / abs(prod)
        ok = r_g2 < 1e-6 and r_s10 < 1e-10 * scale and r_s6 < 1e-10
        return ok, (f"g2-1: {mpmath.nstr(r_g2, 3)}, s10: {mpmath.nstr(r_s10, 3)}, "
                    f"s6: {mpmath.nstr(r_s6, 3)}")


def test_criterion_07_boundary_values():
    ok, detail = _criterion_7(POLICY)
    _report("7 (boundary values)", ok, detail)


def test_criterion_08_fiber_classification():
    expected = {
        (1, 1): {"IV*": 1, "I1": 5, "I5*": 1},
        (1, 0): {"III*": 1, "I1": 3, "I6*": 1},
        (0, -64): {"IV*": 1, "I1": 3, "I2": 1, "I5*": 1},
    }
    ok = True
    for (x, y), want in expected.items():
        cfg = classify_fibers(Fraction(x), Fraction(y))
        ok = ok and cfg.multiset() == want and cfg.euler_total == 24
    origin = classify_fibers(Fraction(0), Fraction(0))
    ok = ok and origin.euler_total < 24 and not origin.is_k3
    _report("8 (fiber classification)", ok,
            "three K3 configurations with Euler 24, origin degenerate")


def _criterion_9(policy) -> tuple[bool, str]:
    orth = check_orthogonality()
    with working_precision(policy):
        action = max(action_residuals(sample_points(5), policy).values())
        ji = j_map((mpmath.mpc(0, 1), mpmath.mpc(0, 1)), policy)
        anchor = (mpmath.mpc(1), mpmath.mpc(1), mpmath.mpc(0, -1), mpmath.mpc(0))
        r = projective_distance(ji, anchor)
        ok = all(orth.values()) and action < 1e-8 and r < 1e-8
        return ok, (f"orthogonality exact, each generator acts as written at "
                    f"{mpmath.nstr(action, 3)}, anchor {mpmath.nstr(r, 3)}")


def test_criterion_09_monodromy_constants():
    ok, detail = _criterion_9(POLICY)
    _report("9 (monodromy constants)", ok, detail)


def _criterion_10(policy) -> tuple[bool, str]:
    t0 = time.time()
    fit = quadric_from_grids(taylor_basis(BASE, 10).scaled, 10)
    match = developing_map_match(samples=14, policy=policy)
    dt = time.time() - t0
    ok = (fit.rank == 4 and fit.holdout_residual < 1e-6
          and match["holdout_residual"] < 1e-5 and dt < 300)
    return ok, (f"quadric rank {fit.rank} holdout {float(fit.holdout_residual):.2e}, "
                f"match holdout {float(match['holdout_residual']):.2e}, {dt:.1f}s")


def test_criterion_10_developing_map_pipeline():
    ok, detail = _criterion_10(POLICY)
    _report("10 (developing-map pipeline)", ok, detail)


def test_criterion_11_precision_consistency():
    double = PrecisionPolicy(256)
    ok6, d6 = _criterion_6(double)
    ok7, d7 = _criterion_7(double)
    ok9, d9 = _criterion_9(double)
    ok10, d10 = _criterion_10(double)
    ok = ok6 and ok7 and ok9 and ok10
    _report("11 (precision consistency at 256 bits)", ok,
            f"[6] {d6} | [7] {d7} | [9] {d9} | [10] {d10}")
