"""Self-tests of the benchmark: seeded inputs, output checkers, the
``verify all`` report parser and the span tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = workloads.inputs_for(workload, 7)
    assert a == workloads.inputs_for(workload, 7)
    assert workloads.fingerprint(a) == workloads.fingerprint(workloads.inputs_for(workload, 7))
    assert a != workloads.inputs_for(workload, 8)
    assert workloads.fingerprint(a) != workloads.fingerprint(workloads.inputs_for(workload, 8))


def test_requests_share_no_input():
    first = workloads.points_inputs(3)
    boxes = [json.dumps(r["box"]) for reqs in first["eval"].values() for r in reqs]
    boxes += [json.dumps(r["box"]) for reqs in first["invert"].values() for r in reqs]
    assert len(boxes) == len(set(boxes))
    exact = workloads.exact_inputs(3)
    assert len({tuple(b) for b in exact["taylor_bases"]}) == workloads.TAYLOR_BASES
    assert len({tuple(p) for p in exact["fiber_points"]}) == workloads.FIBER_POINTS


def test_box_points_stratify_the_smaller_imaginary_part():
    n = 7
    boxes = workloads._boxes(workloads._rng("points", 4), n)
    lo, hi = workloads.BOX_IM
    width = (hi - lo) / n
    lows = sorted(min(float(z[1]) for z in box) for box in boxes)
    for k, low in enumerate(lows):
        assert lo + k * width <= low <= lo + (k + 1) * width
    assert all(abs(float(z[0])) <= 0.5 and lo <= float(z[1]) <= hi
               for box in boxes for z in box)


def test_group_images_land_in_their_bands():
    sqrt5 = 5 ** 0.5
    inputs = workloads.points_inputs(11)
    for bits, (boxes, images) in workloads.EVAL_PLAN.items():
        reqs = inputs["eval"][str(bits)]
        assert len(reqs) == boxes + len(images)
        for req, (_, (lo, hi)) in zip(reqs[boxes:], images):
            z = workloads.apply_word(*(complex(float(r), float(i)) for r, i in req["box"]),
                                     req["word"], (1 + sqrt5) / 2, (1 - sqrt5) / 2)
            low, high = sorted(w.imag for w in z)
            assert lo <= low <= hi and high <= workloads.IMAGE_MAX_IM


# ----------------------------------------------------------------- checkers


def test_eval_checker_rejects_a_perturbed_X():
    req = workloads.points_inputs(5)["eval"]["128"][0]
    p = workloads._point(req, 256)
    ref = workloads._xy(p, 256)
    got = workloads._xy(p, 128)
    ok, rel = workloads.check_eval(got, ref, 128, image=False)
    assert ok and rel < 1e-35
    with mpmath.workprec(300):
        bad = (got[0] * (1 + mpmath.mpf("1e-20")), got[1])
    assert not workloads.check_eval(bad, ref, 128, image=False)[0]
    with mpmath.workprec(300):
        worse = (got[0] * (1 + mpmath.mpf("1e-6")), got[1])
    assert not workloads.check_eval(worse, ref, 128, image=True)[0]


def test_invert_checker_rejects_wrong_value_and_lower_half_plane():
    target = (mpmath.mpc("0.3", "0.1"), mpmath.mpc("0.1", "-0.2"))
    upper = SimpleNamespace(z1=mpmath.mpc(0.1, 1.1), z2=mpmath.mpc(-0.2, 1.4))
    lower = SimpleNamespace(z1=mpmath.mpc(0.1, -1.1), z2=mpmath.mpc(-0.2, 1.4))
    assert workloads.check_invert(upper, target, target, 128)[0]
    assert not workloads.check_invert(lower, target, target, 128)[0]
    off = (target[0] + mpmath.mpf("1e-6"), target[1])
    assert not workloads.check_invert(upper, off, target, 128)[0]


def test_identical_passed_output_is_not_checked_again():
    x = (mpmath.mpc("0.25", "-1.5"), mpmath.mpf("3.75"))
    digest = workloads.output_digest(*x)
    assert digest == workloads.output_digest(mpmath.mpc("0.25", "-1.5"), mpmath.mpf("3.75"))
    with mpmath.workprec(300):
        assert digest != workloads.output_digest(x[0] * (1 + mpmath.mpf("1e-80")), x[1])
    prior = {"kind": "eval128", "ms": 1.0, "ok": True, "error": None,
             "digest": digest, "rel_err": 1e-40, "reused": False}
    calls = []

    def check(ok):
        calls.append(ok)
        return ok, {"rel_err": 1.0}

    assert workloads.reuse_check(prior, digest, lambda: check(False)) == (
        True, {"digest": digest, "rel_err": 1e-40, "reused": True})
    assert not calls
    assert not workloads.reuse_check(prior, "other", lambda: check(False))[0]
    assert not workloads.reuse_check({**prior, "ok": False}, digest, lambda: check(False))[0]
    assert workloads.reuse_check(None, digest, lambda: check(True))[1]["reused"] is False
    assert calls == [False, False, True]


def test_digits_lost():
    assert workloads.digits_lost(0.0, 1e-35) == 0.0
    assert workloads.digits_lost(1e-36, 1e-35) == 0.0
    assert workloads.digits_lost(1e-27, 1e-35) == pytest.approx(8.0)


def test_exact_report_checkers_reject_flipped_flags():
    pde_rep = {"matches_restricted_ode": True, "no_zeroth_order_term": True, "order": 4}
    assert workloads.check_pde_restriction(pde_rep)
    assert not workloads.check_pde_restriction({**pde_rep, "matches_restricted_ode": False})
    assert not workloads.check_pde_restriction({**pde_rep, "order": 3})
    jets = {"consistent": True, "compared_orders": 6}
    assert workloads.check_mixed_jets(jets)
    assert not workloads.check_mixed_jets({**jets, "consistent": False})
    clausen = {"clausen": True, "antiderivative_identity": True, "S_annihilated": True,
               "derivative_consistency": True, "clausen_exact_to_order": 40}
    assert workloads.check_clausen(clausen, 40)
    assert not workloads.check_clausen({**clausen, "S_annihilated": False}, 40)
    assert not workloads.check_clausen({**clausen, "clausen_exact_to_order": -1}, 40)


def test_klein_checker_rejects_nonzero_residual():
    from hilbert_k3 import klein
    rep = klein.verify_klein_relation()
    assert workloads.check_klein(rep)
    one = klein.SparsePoly.const(klein.ZETA_VARS, 1)
    assert not workloads.check_klein({**rep, "exact_zero": False})
    assert not workloads.check_klein({**rep, "residual_poly": rep["residual_poly"] + one})


def test_series_checker_rejects_a_wrong_operator():
    from hilbert_k3 import diffops, periods
    op = periods.gauss_operator()
    basis = diffops.series_solve(op, 0, 12)
    assert workloads.check_series_basis(op, basis)
    wrong = diffops.DiffOperator(op.var, [op.coeffs[0] * 2] + list(op.coeffs[1:]))
    assert not workloads.check_series_basis(wrong, basis)
    assert not workloads.check_series_basis(op, basis[:1])


def test_taylor_checker_rejects_a_corrupted_coefficient():
    from hilbert_k3 import pde
    base = (Fraction(1, 10), Fraction(1, 7))
    sol = pde.taylor_basis(base, 3)
    assert workloads.check_taylor(base, sol)
    grids = list(sol.grids)
    grids[2] = {**grids[2], (2, 0): grids[2][(2, 0)] + 1}
    assert not workloads.check_taylor(base, dataclasses.replace(sol, grids=tuple(grids)))


def test_fiber_checker_rejects_wrong_euler_number():
    from hilbert_k3 import fibrations
    cfg = fibrations.classify_fibers(Fraction(3, 7), Fraction(-2, 5))
    assert workloads.check_fibers(cfg)
    assert not workloads.check_fibers(dataclasses.replace(cfg, euler_total=23))
    assert not workloads.check_fibers(fibrations.classify_fibers(Fraction(0), Fraction(0)))


# ----------------------------------------------------------- verify all JSON


def _report(statuses: dict[str, list[str]], overall=None) -> str:
    suites = [{"suite": name, "overall": "pass" if all(s == "pass" for s in checks) else "fail",
               "checks": [{"name": f"c{k}", "status": s, "residual": "exact", "runtime_ms": 0}
                          for k, s in enumerate(checks)]}
              for name, checks in statuses.items()]
    ok = all(s["overall"] == "pass" for s in suites)
    return json.dumps({"overall": overall or ("pass" if ok else "fail"), "suites": suites})


def test_verify_all_parser_counts_a_failing_suite():
    n = workloads.EXPECTED_CHECKS
    passing = {"a": ["pass"] * (n - 3), "b": ["pass"] * 3}
    ok = workloads.parse_verify_all(_report(passing), 0)
    assert (ok["attempted"], ok["failed"], ok["failures"]) == (n + 1, 0, [])
    failing = {"a": ["pass"] * (n - 3), "b": ["pass", "fail", "pass"]}
    bad = workloads.parse_verify_all(_report(failing), 1)
    assert bad["failed"] == 2   # the check and the nonzero exit
    assert any("b/c1" in f for f in bad["failures"])


def test_verify_all_parser_counts_missing_checks_exit_code_and_garbage():
    short = workloads.parse_verify_all(_report({"a": ["pass"] * 10}), 0)
    assert short["failed"] == workloads.EXPECTED_CHECKS - 10
    full = {"a": ["pass"] * workloads.EXPECTED_CHECKS}
    assert workloads.parse_verify_all(_report(full), 1)["failed"] == 1
    garbage = workloads.parse_verify_all("Traceback (most recent call last):", 1)
    assert garbage["failed"] == garbage["attempted"] > 0


# ------------------------------------------------------------------ tracing


def test_tracer_wraps_every_module_that_binds_a_name():
    from hilbert_k3 import cli, hilbert_theta, moduli, pde
    originals = (moduli.newton_invert, hilbert_theta.mueller_forms, moduli.moduli_XYZ)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.absent == []
        assert pde.newton_invert is moduli.newton_invert is cli.newton_invert
        assert moduli.newton_invert is not originals[0]
        assert moduli.mueller_forms is hilbert_theta.mueller_forms is cli.mueller_forms
        assert cli.moduli_XYZ is moduli.moduli_XYZ is not originals[2]
        assert pde.continuation_invert is moduli.continuation_invert
        tracer.active = True
        tracer.request = "r1"
        cli.moduli_XYZ((mpmath.mpc(0, 2), mpmath.mpc(0, 3)))
        tracer.active = False
    finally:
        tracer.uninstall()
    assert (moduli.newton_invert, hilbert_theta.mueller_forms, moduli.moduli_XYZ) == originals
    assert cli.moduli_XYZ is originals[2]
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["moduli.moduli_XYZ", "hilbert_theta.mueller_forms",
                         "hilbert_theta.theta_batch"]
    assert [s[3] for s in tracer.spans[:3]] == [-1, 0, 1]
    assert {s[4] for s in tracer.spans} == {"r1"}
    layers = tracer.layer_metrics()
    assert layers["moduli.moduli_XYZ.calls"] == 1
    assert layers["hilbert_theta.theta_batch.calls"] == 1
    assert layers["moduli.moduli_XYZ.self_s"] < layers["moduli.moduli_XYZ.total_s"]


def test_missing_target_reads_as_absent():
    tracer = spans.Tracer()
    tracer.install(("moduli.no_such_function", "nomodule.f", "klein.verify_klein_relation"))
    tracer.uninstall()
    assert tracer.absent == ["moduli.no_such_function", "nomodule.f"]
    assert "moduli.no_such_function.calls" not in tracer.layer_metrics()


def test_self_time_subtracts_direct_children_and_errors_are_recorded():
    tracer = spans.Tracer()
    tracer.spans = [
        ["moduli.newton_invert", 0.0, 10.0, -1, "r", {"iterations": 4}],
        ["hilbert_theta.theta_batch", 1.0, 3.0, 0, "r", None],
        ["hilbert_theta.theta_batch", 4.0, 8.0, 0, "r", None],
        ["moduli.newton_invert", 20.0, 21.0, -1, "s", {"error": "NoConvergence"}],
    ]
    layers = tracer.layer_metrics()
    assert layers["moduli.newton_invert.total_s"] == 11.0
    assert layers["moduli.newton_invert.self_s"] == 5.0
    assert layers["moduli.newton_invert.iterations"] == 4
    assert layers["moduli.newton_invert.failed"] == 1
    assert layers["moduli.newton_invert.theta_calls_per_solve"] == 1.0
    assert layers["hilbert_theta.theta_batch.ms_p50"] == 3000.0
    assert tracer.errors() == {"moduli.newton_invert:NoConvergence": 1}
