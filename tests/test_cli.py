import json
import os
import re
import time
from fractions import Fraction

import mpmath
import pytest

from hilbert_k3.cli import main, parse_complex, parse_rational
from hilbert_k3.hilbert_theta import mueller_forms
from hilbert_k3.moduli import moduli_XYZ
from hilbert_k3.numkernel import PrecisionPolicy, working_precision


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_complex_forms():
    assert parse_complex("2") == mpmath.mpc(2)
    assert parse_complex("1.3i") == mpmath.mpc(0, mpmath.mpf("1.3"))
    assert parse_complex("i") == mpmath.mpc(0, 1)
    assert parse_complex("-i") == mpmath.mpc(0, -1)
    v = parse_complex("0.5+1.2i")
    assert abs(v - mpmath.mpc("0.5", "1.2")) < 1e-15
    v = parse_complex("-1/3+7/5i")
    assert abs(v.real + mpmath.mpf(1) / 3) < 1e-30
    assert abs(v.imag - mpmath.mpf(7) / 5) < 1e-30
    # the sign after an exponent marker, in either case, does not split the literal
    assert parse_complex("0.1+12E-1i") == parse_complex("0.1+12e-1i") == parse_complex("0.1+1.2i")
    assert parse_rational("3/4") == Fraction(3, 4)


def test_verify_klein_exit_zero(capsys):
    code, out = run_cli(capsys, "verify", "klein")
    assert code == 0
    payload = json.loads(out)
    assert payload["overall"] == "pass"
    names = [c["name"] for c in payload["checks"]]
    assert names == sorted(names)


def test_forms_eval_diagonal(capsys):
    code, out = run_cli(capsys, "forms", "eval", "--z1", "1.3i", "--z2", "1.3i")
    assert code == 0
    payload = json.loads(out)
    assert abs(float(payload["Y_re"])) < 1e-20
    assert abs(float(payload["Y_im"])) < 1e-20
    assert float(payload["g2_re"]) > 0


def test_forms_eval_far_into_the_cusp_prints_finite_fields(capsys):
    """At (1e10i, i) the thetas run from 1 down to 1e-66057 and s15 cancels
    past every digit; the evaluation still exits 0 with a finite number in
    every field."""
    code, out = run_cli(capsys, "forms", "eval", "--z1", "1e10i", "--z2", "1i")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 16
    assert all(mpmath.isfinite(mpmath.mpf(v)) for v in payload.values())
    assert mpmath.mpf(payload["g2_re"]) == 1


def test_forms_eval_at_the_far_diagonal_cusp_exits_zero(capsys):
    """At (1e20i, 1e20i) a theta pass's fixed-point scale is about 4.5e20
    bits; the pass shifts by the net count once and never builds an integer
    of that size."""
    code, out = run_cli(capsys, "forms", "eval", "--z1", "1e20i", "--z2", "1e20i")
    assert code == 0
    payload = json.loads(out)
    assert mpmath.mpf(payload["g2_re"]) == 1
    assert mpmath.mpf(payload["g2_im"]) == 0


def test_forms_eval_far_into_the_cusp_prints_at_high_precision(capsys):
    """At 20,000 bits some fields lie below 1e-500000, where mpmath's decimal
    conversion of the full mantissa passes Python's 4300-digit limit for
    printing an integer; valid input still exits 0, with every field printed
    to 30 digits."""
    code, out = run_cli(capsys, "--prec", "20000", "forms", "eval",
                        "--z1", "1e10i", "--z2", "1i")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 16
    assert mpmath.mpf(payload["Y_re"]) < mpmath.mpf("1e-500000")
    for value in payload.values():
        assert value == "0.0" or len(value.split("e")[0].lstrip("-").replace(".", "")) == 30


def test_forms_eval_reads_the_point_at_working_precision(capsys):
    """0.3 and 1/3 are not binary: each printed digit must be the exact
    rational point's, not that of the point rounded to 53 bits."""
    code, out = run_cli(capsys, "--prec", "256", "forms", "eval",
                        "--z1", "0.3+1.1i", "--z2", "1/3+0.9i")
    assert code == 0
    payload = json.loads(out)
    policy = PrecisionPolicy(256)
    with working_precision(policy):
        p = (mpmath.mpc(mpmath.mpf(3) / 10, mpmath.mpf(11) / 10),
             mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(9) / 10))
        f = mueller_forms(p, policy)
        x, y, z = moduli_XYZ(p, policy, forms=f)
        for name, exact in (("g2", f.g2), ("s5", f.s5), ("s6", f.s6), ("s10", f.s10),
                            ("s15", f.s15), ("X", x), ("Y", y), ("Z", z)):
            printed = mpmath.mpc(payload[f"{name}_re"], payload[f"{name}_im"])
            assert abs(printed - exact) < 1e-28 * abs(exact), name


def test_fibers_classify_json(capsys):
    code, out = run_cli(capsys, "fibers", "classify", "--X", "1", "--Y", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_total"] == 24
    assert payload["is_k3"] is True
    types = {f["type"]: f["count"] for f in payload["fibers"]}
    assert types == {"IV*": 1, "I1": 5, "I5*": 1}


def test_fibers_origin_not_k3(capsys):
    code, out = run_cli(capsys, "fibers", "classify", "--X", "0", "--Y", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["euler_total"] < 24
    assert payload["is_k3"] is False


def test_series_jfunction(capsys):
    code, out = run_cli(capsys, "series", "jfunction", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["leading_exponent"] == -1
    assert payload["coefficients"][:3] == ["1", "744", "196884"]


def test_series_hypergeom_default(capsys):
    code, out = run_cli(capsys, "series", "hypergeom", "--order", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][0] == "1"
    assert payload["coefficients"][1] == "5/144"


def test_invert_round_trip(capsys):
    code, out = run_cli(capsys, "--prec", "80", "invert",
                        "--X", "0.3", "--Y", "0.1",
                        "--guess", "0.2+1.1i,-0.3+1.5i")
    assert code == 0
    payload = json.loads(out)
    assert float(payload["residual"]) < 1e-10


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fibers", "classify", "--X", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["--prec", "20"], "at least 53"),
    (["--prec", "-3"], "at least 53"),
    (["--prec", "0"], "at least 53"),
])
def test_bad_precision_exits_two_with_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["series", "jfunction", "--order", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv, message", [
    (["fibers", "classify", "--X", "1", "--Y", "1/0"], "zero denominator in '1/0'"),
    (["forms", "eval", "--z1", "1/0+1i", "--z2", "1i"], "zero denominator in '1/0'"),
    (["forms", "eval", "--z1", "1+1/0i", "--z2", "1i"], "zero denominator in '+1/0'"),
    (["invert", "--X", "1/0", "--Y", "1", "--guess", "0.2+1.1i,-0.3+1.5i"],
     "zero denominator in '1/0'"),
    (["series", "hypergeom", "--order", "3", "--lower", "1/0"], "zero denominator in '1/0'"),
    (["series", "hypergeom", "--order", "-3"], "--order must be >= 0"),
])
def test_bad_numbers_exit_two_with_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonexistent"])
    assert exc.value.code == 2


def test_csv_format(capsys):
    code, out = run_cli(capsys, "--format", "csv", "verify", "riemann-scheme")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,status,residual,runtime_ms"
    assert all(",pass," in line for line in lines[1:])


def test_stable_output_deterministic(capsys):
    code1, out1 = run_cli(capsys, "--stable-output", "verify", "monodromy")
    code2, out2 = run_cli(capsys, "--stable-output", "verify", "monodromy")
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("command, target, error", [
    (("invert", "--X", "0", "--Y", "0", "--guess", "0.2+1.1i,-0.3+1.5i"),
     "newton_invert", "NoConvergence"),
    (("invert", "--X", "0.3", "--Y", "0.1", "--guess", "0.2+1.1i,-0.3+1.5i"),
     "newton_invert", "JacobianSingular"),
    (("forms", "eval", "--z1", "1.3i", "--z2", "1.3i"),
     "moduli_XYZ", "NearZeroDenominator"),
    (("invert", "--X", "0.3", "--Y", "0.1", "--guess", "0.2+1.1i,-0.3+1.5i"),
     "newton_invert", "ZeroDivisionError"),
])
def test_numeric_failure_exits_one_with_json(capsys, monkeypatch, command, target, error):
    """Any exception but ValueError and KeyError, not only the package's own."""
    import builtins

    from hilbert_k3 import cli, moduli

    def fail(*args, **kwargs):
        raise (getattr(moduli, error, None) or getattr(builtins, error))("injected failure")

    monkeypatch.setattr(cli, target, fail)
    code, out = run_cli(capsys, *command)
    assert code == 1
    assert json.loads(out) == {"error": error, "message": "injected failure"}


def test_invert_from_a_zero_jacobian_ends_in_jacobian_singular(capsys):
    """At (i, i) all four Jacobian entries vanish, so det is 0: the ridge step
    runs, makes no progress, and Newton stops with JacobianSingular."""
    code, out = run_cli(capsys, "invert", "--X", "0.9", "--Y", "0.1", "--guess", "1i,1i")
    assert code == 1
    assert json.loads(out)["error"] == "JacobianSingular"


def test_invert_at_a_singular_root_stops_on_linear_convergence(capsys):
    """At (X, Y) = (0, 0) the full Newton steps cut the residual by about
    0.35 each, a linear rate at a degenerate root: the solve stops by
    iteration 10 and says so, instead of running all its iterations."""
    code, out = run_cli(capsys, "invert", "--X", "0", "--Y", "0",
                        "--guess", "0.2+1.1i,-0.3+1.5i")
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NoConvergence"
    assert "linear" in payload["message"]
    assert int(re.search(r"iteration (\d+)", payload["message"]).group(1)) <= 10


def test_forms_eval_near_the_real_axis_exits_one_at_once(capsys):
    """(1e-30i, 1e-30i) reduces by g3 to (1e30i, 1e30i) and exits 0 at once,
    with the X of that point to 15 digits: at that height the kernel keeps
    only about 20.  (1e-30i, i) reduces to (1e30i, i), far up one cusp, as
    no unit action balances the two heights: the search for the largest
    term stops at numkernel.SERIES_CAP rows, and the call exits 1."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "forms", "eval", "--z1", "1e-30i", "--z2", "1e-30i")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    _, far = run_cli(capsys, "forms", "eval", "--z1", "1e30i", "--z2", "1e30i")
    low, high = (mpmath.mpf(json.loads(text)["X_re"]) for text in (out, far))
    assert abs(low - high) < 1e-15 * abs(high)
    start = time.perf_counter()
    code, out = run_cli(capsys, "forms", "eval", "--z1", "1e-30i", "--z2", "1i")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NonConvergent"
    assert "largest term lies past the cap of 200000 rows" in payload["message"]


@pytest.mark.parametrize("z1", ["1e30i", "1e60i"])
def test_forms_eval_far_up_the_cusp_exits_one_at_once(capsys, z1):
    """Far up one cusp the largest theta term lies past numkernel.SERIES_CAP
    rows: the search for it stops at the cap.  At 1e60i, p r - q^2 of Im Z
    cancels at the working precision; the determinant is Im z1 Im z2, so the
    point is still valid input."""
    start = time.perf_counter()
    code, out = run_cli(capsys, "forms", "eval", "--z1", z1, "--z2", "1i")
    assert time.perf_counter() - start < 1.0
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NonConvergent"
    assert "largest term lies past the cap of 200000 rows" in payload["message"]


def test_invert_prints_no_noise_digits(capsys):
    """The target is real, so the preimage lies on the imaginary axes and the
    real parts are zero to the working precision: they print as zero, and a
    guess changed in its 13th digit gives the same payload byte for byte."""
    outs = [run_cli(capsys, "--prec", "256", "invert", "--X", "0.3", "--Y", "0.1",
                    "--guess", guess)
            for guess in ("0.2+1.1i,-0.3+1.5i", "0.2000000000001+1.1i,-0.3+1.5i")]
    assert outs[0] == outs[1]
    code, out = outs[0]
    payload = json.loads(out)
    assert code == 0
    assert payload["z1_re"] == payload["z2_re"] == "0.0"
    assert float(payload["z1_im"]) > 1 and float(payload["z2_im"]) > 1


def stub_suites(monkeypatch, developing_map):
    """Every suite becomes one passing ``stub`` check; the developing-map stub
    first calls ``developing_map()``."""
    from hilbert_k3 import verify

    def stub(name):
        def suite(policy, seed):
            if name == "developing-map":
                developing_map()
            report = verify.VerificationReport(name)
            report.checks.append(verify.CheckResult("stub", True, "exact", 0))
            return report
        return suite

    for name in list(verify.SUITES):
        monkeypatch.setitem(verify.SUITES, name, stub(name))
    return sorted(verify.SUITES)


STUB_ROWS = [{"name": "stub", "status": "pass", "residual": "exact", "runtime_ms": 0}]


@pytest.mark.parametrize("error", ["NoConvergence", "JacobianSingular", "NearZeroDenominator",
                                   "RankDeficient", "NonConvergent", "ValueError",
                                   "IrregularSingular", "NonRationalRoot", "IncompleteBasis",
                                   "EliminationFailed", "InconsistentReduction",
                                   "SingularBasePoint", "NonMinimal",
                                   "NoConventionMatches", "ZeroDivisionError"])
def test_a_suite_that_raises_becomes_a_fail_row(capsys, monkeypatch, cpus, error):
    """On one CPU and on two, where the fail row comes back from a worker;
    every other suite still reports.  Any exception type does, not only the
    package's own."""
    import builtins

    from hilbert_k3 import diffops, fibrations, lattice, moduli, numkernel, pde, periods

    exc_type = next(getattr(m, error) for m in (moduli, numkernel, diffops, pde, periods,
                                                 fibrations, lattice, builtins)
                    if hasattr(m, error))

    def fail():
        raise exc_type("injected failure")

    names = stub_suites(monkeypatch, fail)
    for count in (1, 2):
        cpus(count)
        code, out = run_cli(capsys, "--stable-output", "verify", "all")
        assert code == 1
        payload = json.loads(out)
        assert payload["overall"] == "fail"
        assert [s["suite"] for s in payload["suites"]] == names
        failed = [s for s in payload["suites"] if s["overall"] == "fail"]
        assert failed == [{"suite": "developing-map", "overall": "fail", "checks": [
            {"name": "error", "status": "fail", "residual": f"{error}: injected failure",
             "runtime_ms": 0}]}]
        assert all(s["checks"] == STUB_ROWS for s in payload["suites"] if s not in failed)


def test_a_dead_worker_gives_fail_rows(capsys, monkeypatch, cpus):
    """A worker that dies leaves its suite, and any suite the broken pool had
    not finished, with a fail row; every suite is still listed, in order."""
    parent = os.getpid()

    def die_in_worker():
        if os.getpid() != parent:
            os._exit(3)

    names = stub_suites(monkeypatch, die_in_worker)
    cpus(2)
    code, out = run_cli(capsys, "--stable-output", "verify", "all")
    assert code == 1
    payload = json.loads(out)
    assert payload["overall"] == "fail"
    assert [s["suite"] for s in payload["suites"]] == names
    rows = {s["suite"]: s["checks"] for s in payload["suites"]}
    [dead] = rows["developing-map"]
    assert dead["name"] == "error" and dead["status"] == "fail"
    assert dead["residual"].startswith("BrokenProcessPool: ")
    for checks in rows.values():
        assert checks == STUB_ROWS or checks == [dead]
    # a single named suite runs in this process, so the stub does not exit
    code, out = run_cli(capsys, "--stable-output", "verify", "developing-map")
    assert code == 0
    assert json.loads(out)["checks"] == STUB_ROWS


def test_verify_all_report_is_the_same_on_one_cpu_and_on_two(capsys, monkeypatch, cpus):
    from hilbert_k3 import verify

    counts = []
    worker_count = verify.worker_count

    def counting(suites, usable):
        counts.append(worker_count(suites, usable))
        return counts[-1]

    monkeypatch.setattr(verify, "worker_count", counting)
    outs = []
    for count in (1, 2):
        cpus(count)
        outs.append(run_cli(capsys, "--prec", "128", "--stable-output", "verify", "all"))
    assert counts == [1, 2]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_run_suites_submits_longest_first_and_reports_in_name_order(monkeypatch):
    """Two workers take the suites in the order of SUITES, developing-map
    first; the reports still come back in the order of the names asked for."""
    from concurrent.futures import ProcessPoolExecutor

    from hilbert_k3 import verify

    names = stub_suites(monkeypatch, lambda: None)
    submitted = []
    submit = ProcessPoolExecutor.submit

    def recording(self, fn, name, *args):
        submitted.append(name)
        return submit(self, fn, name, *args)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", recording)
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    reports = verify.run_suites(names)
    assert submitted[0] == "developing-map" != names[0]
    assert submitted == list(verify.SUITES)
    assert [r.suite_name for r in reports] == names
    assert [r.suite_name for r in verify.run_suites(names[::-1])] == names[::-1]


def test_worker_count_is_suites_capped_by_usable_cpus(monkeypatch, cpus):
    from hilbert_k3 import verify

    cpus(64)
    assert verify.usable_cpus() == 64
    assert verify.worker_count(13, verify.usable_cpus()) == 13
    assert verify.worker_count(13, 2) == 2
    assert verify.worker_count(1, 64) == 1
    assert verify.worker_count(13, 1) == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert verify.usable_cpus() == 1


def test_checks_that_read_one_computation_share_its_time(monkeypatch):
    """verify_symmetric_square's time is split evenly among the three W3 rows
    and the quadratic relation, not given to the first of them."""
    from hilbert_k3 import periods, verify

    symmetric_square = periods.verify_symmetric_square

    def slow(order):
        time.sleep(0.2)
        return symmetric_square(order)

    monkeypatch.setattr(periods, "verify_symmetric_square", slow)
    rows = {c.name: c.runtime_ms for c in verify.run_suite("clausen").checks}
    shared = [rows.pop(f"W3_annihilates_{n}") for n in ("t*y1^2", "t*y1*y2", "t*y2^2")]
    shared.append(rows.pop("quadratic_relation_s2sq_s1s3"))
    assert min(shared) >= 50 and max(shared) - min(shared) <= 1
    assert all(t < 50 for t in rows.values())
