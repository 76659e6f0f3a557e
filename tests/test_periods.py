import hashlib
from fractions import Fraction

import mpmath
import pytest

from hilbert_k3.diffops import DiffOperator, indicial_exponents
from hilbert_k3.elliptic import eisenstein_and_J
from hilbert_k3.numkernel import PrecisionPolicy, working_precision
from hilbert_k3.polynomials import RationalFunction as RF
from hilbert_k3.polynomials import UniPoly
from hilbert_k3.periods import (gauss_operator,
                                hypergeom_coefficients,
                                restricted_ode_X, restricted_operators,
                                schwarz_map, verify_clausen_and_S,
                                verify_symmetric_square, verify_diagonal_inverse_identity)


def test_hypergeom_params_validation():
    for b in (0, -3):
        with pytest.raises(ValueError, match=f"lower parameter {b} is a nonpositive integer"):
            hypergeom_coefficients([Fraction(1, 2)], [Fraction(b)], 3)


def test_2f1_at_zero_and_first_coefficient():
    coeffs = hypergeom_coefficients([Fraction(1, 12), Fraction(5, 12)], [1], 3)
    assert coeffs[0] == 1
    assert coeffs[1] == Fraction(5, 144)


def test_2f1_value_against_ode_integration_oracle(policy):
    """A partial sum of the exact coefficients at t = 1/2 against mpmath's
    hyp2f1 and against integrating the hypergeometric equation."""
    with working_precision(policy):
        # the terms fall like 2^-n, so 140 of them leave a tail below 2^-140
        coeffs = hypergeom_coefficients([Fraction(1, 12), Fraction(5, 12)], [1], 140)
        direct = mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator / 2 ** n
                             for n, c in enumerate(coeffs))
        expected = mpmath.hyp2f1(mpmath.mpf(1) / 12, mpmath.mpf(5) / 12, 1,
                                 mpmath.mpf(1) / 2)
        assert abs(direct - expected) < policy.verify_tol * abs(expected)
    a, b = mpmath.mpf(1) / 12, mpmath.mpf(5) / 12
    # oracle: integrate the hypergeometric equation from t0 = 0.01
    mp2 = mpmath.mp.clone()
    mpmath.mp.dps = 30
    try:
        t0 = mpmath.mpf("0.01")
        coeffs = hypergeom_coefficients([Fraction(1, 12), Fraction(5, 12)], [1], 40)
        u0 = sum(mpmath.mpf(c.numerator) / c.denominator * t0 ** n
                 for n, c in enumerate(coeffs))
        du0 = sum(mpmath.mpf(c.numerator) / c.denominator * n * t0 ** (n - 1)
                  for n, c in enumerate(coeffs) if n)

        def rhs(t, y):
            u, du = y
            return [du, (a * b * u - (1 - (a + b + 1) * t) * du) / (t * (1 - t))]

        f = mpmath.odefun(rhs, t0, [u0, du0], tol=1e-22)
        oracle = f(mpmath.mpf(1) / 2)[0]
    finally:
        mpmath.mp.dps = 15
    assert abs(direct - oracle) < 1e-18


def test_factorization_is_exact():
    ode = restricted_operators()
    assert ode.W1.compose(ode.W3) == ode.W4


def test_transport_consistency_runs():
    """The X <-> t = 27 X / 25 transport of the restricted equation is W4;
    the factorization suite's moduli_coordinate_transport row is the one
    check of it."""
    transported = restricted_ode_X().rescale_variable(Fraction(25, 27))
    assert transported.monic().rename_variable("t") == restricted_operators().W4


def test_a_bad_transport_fails_only_its_row(monkeypatch):
    """A restricted equation with one coefficient perturbed no longer
    transports to W4: the factorization suite reports
    moduli_coordinate_transport as its one fail row, and its other check
    still passes, in place of one ``error`` row for the whole suite."""
    from hilbert_k3 import periods, verify
    eq = restricted_ode_X()
    moved = DiffOperator("X", [eq.coeffs[0], eq.coeffs[1] + RF(1), *eq.coeffs[2:]])
    monkeypatch.setattr(periods, "restricted_ode_X", lambda: moved)
    restricted_operators.cache_clear()
    try:
        report = verify.run_suite("factorization", PrecisionPolicy())
    finally:
        restricted_operators.cache_clear()
    assert [(c.name, c.passed) for c in report.checks] == [
        ("W4_equals_W1_compose_W3", True), ("moduli_coordinate_transport", False)]


def test_truncated_basis_is_a_fail_row(monkeypatch):
    """A Gauss basis ten terms short still gives W3 residuals that vanish,
    but only to a precision below the floor: the three W3 checks and the
    quadratic relation become fail rows, and the other checks still pass."""
    from hilbert_k3 import periods, verify
    basis = periods.gauss_frobenius_basis
    monkeypatch.setattr(periods, "gauss_frobenius_basis", lambda order: basis(order - 10))
    report = verify.run_suite("clausen", PrecisionPolicy())
    assert len(report.checks) == 8
    assert {c.name for c in report.checks if not c.passed} == {
        "W3_annihilates_t*y1^2", "W3_annihilates_t*y1*y2", "W3_annihilates_t*y2^2",
        "quadratic_relation_s2sq_s1s3"}


def test_riemann_scheme_all_four_points():
    eq = restricted_ode_X()
    assert indicial_exponents(eq, 0) == [0, 1, 1, 1]
    assert indicial_exponents(eq, Fraction(25, 27)) == [0, Fraction(1, 2), 1, 2]
    assert indicial_exponents(eq, Fraction(40, 3)) == [0, 1, 2, 4]
    assert indicial_exponents(eq, "infinity") == sorted(
        [Fraction(0), Fraction(-5, 6), Fraction(-1, 2), Fraction(-1, 6)])


def test_symmetric_square_order_20():
    rep = verify_symmetric_square(20)
    for name in ("t*y1^2", "t*y1*y2", "t*y2^2"):
        assert rep[name]["annihilated"]
        assert rep[name]["checked_order"] >= 20
    assert rep["s2^2 = s1*s3"]["holds"]
    assert rep["s2^2 = s1*s3"]["checked_order"] >= 29


def _log_series_digest(series) -> str:
    """sha256 of the log index, exponent, precision and every coefficient of
    each part of each LogSeries, in order."""
    h = hashlib.sha256()
    for ls in series:
        for l in sorted(ls.parts):
            s = ls.parts[l]
            h.update(f"{l}|{s.expo}|{s.prec}|{','.join(str(c) for c in s.coeffs)};".encode())
        h.update(b"#")
    return h.hexdigest()


def _applications(monkeypatch, run) -> list[tuple]:
    """(operator, argument, result) of every DiffOperator.apply that run makes."""
    calls = []
    apply = DiffOperator.apply

    def recorded(self, f):
        out = apply(self, f)
        calls.append((self, f, out))
        return out

    monkeypatch.setattr(DiffOperator, "apply", recorded)
    run()
    return calls


# sha256 of the series that the order-40 clausen checks build: the products
# t*y1^2, t*y1*y2 and t*y2^2 that W3 is applied to, and restdiff3 applied to S
CLAUSEN_DIGESTS = {
    "symmetric_products": "6136a627b285d8bce556a50cad8a06c7692a62bcf2dd9091462bda7252439356",
    "restdiff3_of_S": "f7aa0886a95d562e91a44450a34c58cdd68be162d8315657e673a2b723831e7b",
}


def test_symmetric_square_products_are_pinned(monkeypatch):
    calls = _applications(monkeypatch, lambda: verify_symmetric_square(40))
    w3 = restricted_operators().W3
    products = [f for op, f, _ in calls if op is w3]
    assert len(products) == 3
    assert _log_series_digest(products) == CLAUSEN_DIGESTS["symmetric_products"]


def test_restdiff3_is_the_transcribed_operator():
    """restdiff3, derived from W4 by dropping its zero zeroth-order term,
    equals the operator transcribed coefficient by coefficient."""
    t = UniPoly([0, 1])
    core = t * (t - 1) * (5 * t - 72)
    transcribed = DiffOperator("t", [
        RF(25 * t - 720, 72 * t * core),
        RF(1130 * t ** 2 - 24408 * t + 5184, 72 * t * core),
        RF(1620 * t ** 3 - 29232 * t ** 2 + 15552 * t, 72 * t * core),
        RF(1),
    ])
    ode = restricted_operators()
    assert ode.restdiff3 == transcribed
    assert ode.W4.coeffs[0].is_zero()


def test_restdiff3_of_S_is_pinned(monkeypatch):
    calls = _applications(monkeypatch, lambda: verify_clausen_and_S(40))
    restdiff3 = restricted_operators().restdiff3
    [resid] = [out for op, _, out in calls if op is restdiff3]
    assert _log_series_digest([resid]) == CLAUSEN_DIGESTS["restdiff3_of_S"]


def test_clausen_identities_order_40():
    rep = verify_clausen_and_S(40)
    assert rep["clausen"]
    assert rep["antiderivative_identity"]
    assert rep["S_annihilated"]
    assert rep["S_checked_order"] >= 30
    assert rep["derivative_consistency"]


def test_schwarz_branch_near_one(policy):
    with working_precision(policy):
        # sigma(t) - i ~ C sqrt(1 - t): the approach to i has square-root rate
        z = schwarz_map("0.9999", policy)
        assert z.real == 0
        assert abs(z - mpmath.mpc(0, 1)) < 5e-3
        z = schwarz_map(1 - mpmath.mpf(1e-9), policy)
        assert abs(z - mpmath.mpc(0, 1)) < 1e-4


def test_schwarz_round_trip(policy):
    with working_precision(policy):
        jv = eisenstein_and_J(mpmath.mpc(0, 2), policy)
        z = schwarz_map(1 / jv.real, policy)
        assert abs(z - mpmath.mpc(0, 2)) < 1e-8


def test_schwarz_branch_imaginary(policy):
    with working_precision(policy):
        z = schwarz_map("0.3", policy)
        assert z.real == 0
        assert z.imag > 1


def test_schwarz_domain_validation(policy):
    with pytest.raises(ValueError):
        schwarz_map("1.5", policy)


def test_diagonal_identity_at_fixed_points(policy):
    with working_precision(policy):
        pts = [mpmath.mpc(0, "1.3"), mpmath.mpc(0, 1), mpmath.mpc("0.4", "1.1")]
        assert verify_diagonal_inverse_identity(pts, policy) < 1e-8
        # at z = i, J = 1 and X(i, i) = 25/27
        from hilbert_k3.moduli import moduli_XYZ
        x, _, _ = moduli_XYZ((mpmath.mpc(0, 1), mpmath.mpc(0, 1)), policy)
        assert abs(x - mpmath.mpf(25) / 27) < 1e-10
        assert abs(x - mpmath.mpf("0.925925925925925925925925926")) < 1e-12


def test_gauss_operator_shape():
    g = gauss_operator()
    assert g.order == 2
    assert indicial_exponents(g, 0) == [0, 0]
    assert indicial_exponents(g, 1) == [0, Fraction(1, 2)]
    assert indicial_exponents(g, "infinity") == [Fraction(1, 12), Fraction(5, 12)]
