import mpmath
import sympy

from hilbert_k3 import lattice, verify
from hilbert_k3.lattice import (FORM_A, FORM_A_X, GTILDE, MX_GENERATORS,
                                action_residuals, check_orthogonality, form_value, j_map,
                                j_map_symbolic_identities, mat_identity, mat_mul,
                                mat_transpose, preserves_form)
from hilbert_k3.moduli import projective_distance
from hilbert_k3.numkernel import working_precision
from hilbert_k3.verify import sample_points


def test_all_generators_preserve_form_exactly():
    rep = check_orthogonality()
    assert all(rep.values()), rep


def test_tau_is_involution():
    assert mat_mul(GTILDE["tau"], GTILDE["tau"]) == mat_identity(4)


def test_g3_orthogonality_explicit():
    g = GTILDE["g3"]
    assert mat_mul(mat_transpose(g), mat_mul(FORM_A, g)) == FORM_A


def test_restricted_generators_preserve_restricted_form():
    for g in MX_GENERATORS:
        assert preserves_form(g, FORM_A_X)


def test_displayed_unit_translation_row_fails_orthogonality():
    # regression: the source display carries a copied first row for the
    # fundamental-unit translation; that matrix is not in the orthogonal group
    displayed = ((1, -1, 2, 1), (0, 1, 0, 0), (0, -1, 1, 0), (0, 1, 0, 1))
    assert not preserves_form(displayed, FORM_A)
    assert preserves_form(GTILDE["g2"], FORM_A)


def test_matrix_inverse_exact():
    for g in GTILDE.values():
        inv = sympy.Matrix(g).inv()
        assert all(x.is_integer for x in inv)
        assert mat_mul(g, tuple(map(tuple, inv.tolist()))) == mat_identity(4)


def test_symbolic_quadric_and_hermitian_identities():
    rep = j_map_symbolic_identities()
    assert rep["quadric_identically_zero"]
    assert rep["hermitian_matches_4ImIm"]


def test_symbolic_identities_read_FORM_A(monkeypatch):
    """Zeroing the off-diagonal entries of the <2, 1; 1, -2> block breaks
    both identities, so they are proved for FORM_A as stored."""
    broken = tuple(tuple(0 if {i, j} == {2, 3} else c for j, c in enumerate(row))
                   for i, row in enumerate(FORM_A))
    monkeypatch.setattr(lattice, "FORM_A", broken)
    assert j_map_symbolic_identities() == {"quadric_identically_zero": False,
                                           "hermitian_matches_4ImIm": False}


def test_form_values_of_xi_at_128_and_256_bits(policy, policy256):
    """xi lies on the quadric, and its Hermitian value is 4 Im z1 Im z2."""
    for pol in (policy, policy256):
        with working_precision(pol):
            xi = j_map((mpmath.mpc("0.3", "1.2"), mpmath.mpc("-0.1", "0.7")), pol)
            assert abs(form_value(xi, xi)) < pol.verify_tol
            hermitian = form_value(xi, tuple(map(mpmath.conj, xi)))
            want = 4 * mpmath.mpf("1.2") * mpmath.mpf("0.7")
            assert abs(hermitian - want) < mpmath.mpf(2) ** (8 - pol.mantissa_bits)


def test_j_map_anchor_point(policy):
    with working_precision(policy):
        ji = j_map((mpmath.mpc(0, 1), mpmath.mpc(0, 1)), policy)
        anchor = (mpmath.mpc(1), mpmath.mpc(1), mpmath.mpc(0, -1), mpmath.mpc(0))
        assert projective_distance(ji, anchor) < policy.verify_tol


def test_identity_transform_has_zero_residual(policy):
    with working_precision(policy):
        p = (mpmath.mpc("0.1", "1.2"), mpmath.mpc("-0.2", "0.9"))
        xi = j_map(p, policy)
        assert projective_distance(xi, xi) < policy.series_tol


def test_intertwine_tau(policy):
    with working_precision(policy):
        rep = action_residuals([(mpmath.mpc(0, "1.1"), mpmath.mpc(0, "1.6"))], policy)
        assert rep["tau"] < policy.verify_tol


def test_intertwine_g1(policy):
    with working_precision(policy):
        rep = action_residuals([(mpmath.mpc(0, "0.9"), mpmath.mpc(0, "1.3"))], policy)
        assert rep["g1"] < policy.verify_tol


def test_single_common_convention(policy):
    """Each generator's matrix acts as written, on column vectors."""
    with working_precision(policy):
        rep = action_residuals(sample_points(5), policy)
        assert sorted(rep) == sorted(GTILDE)
        assert max(rep.values()) < 1e-8
        for gen, residual in rep.items():
            assert residual < policy.verify_tol, gen


def test_a_transposed_generator_fails_the_monodromy_suite(policy, monkeypatch):
    """The action check is not vacuous: g1's transpose does not realise g1,
    and the suite ends in a fail row that names it."""
    monkeypatch.setitem(lattice.GTILDE, "g1", mat_transpose(GTILDE["g1"]))
    report = verify.run_suite("monodromy", policy)
    assert not report.overall_pass
    (row,) = report.checks
    assert row.name == "error"
    assert row.residual.startswith("ValueError: GTILDE does not act as written")
    assert "'g1'" in row.residual
    for gen in ("g2", "g3", "tau"):
        assert f"'{gen}'" not in row.residual
