"""Seeded inputs, requests and output checks for the three workloads.

Inputs are plain data (decimal strings, ``p/q`` rationals, generator words),
so one seed always gives the same inputs and the same fingerprint.  Every
iteration of a run gets the seed's inputs, so iterations differ only in the
machine's speed at the time.  Making inputs needs only the standard library;
running requests imports ``hilbert_k3``.  Within one iteration no two requests
share an input.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

WORKLOADS = ("verify-all", "points", "exact")

# ------------------------------------------------------------------ verify-all

VERIFY_PREC = 128
EXPECTED_CHECKS = 63

# ---------------------------------------------------------------------- points

PRECISIONS = (128, 256)
BOX_RE = (-0.5, 0.5)          # the verify.sample_points box
BOX_IM = (0.8, 2.0)
# Per precision: how many box points, then one group image per (pre-image Im
# range, band for the image's smaller Im).  X and Y are of order one on the
# box, so images of box points lose no digits; the first 128-bit image comes
# from high in the cusp (Im 45.5-50) and lands near Re 0, Im 0.02, where X and
# Y are tiny and the theta sums cancel: that is where digits are lost.  A theta
# sum costs about 1/Im of the smaller imaginary part, so each band is narrow
# and the cost of an iteration varies little with the seed.
CUSP_IM = (45.5, 50.0)
EVAL_PLAN = {128: (14, ((CUSP_IM, (0.020, 0.022)), (BOX_IM, (0.10, 0.12)))),
             256: (7, ((BOX_IM, (0.05, 0.06)),))}
IMAGE_MAX_IM = 0.3
# Invert targets are images of points in the upper part of the box, where
# Newton takes a steady number of steps (4 at 128 bits, 5 at 256); below Im
# 1.4 it takes one step more on some seeds and not others, and the run time
# would follow the seed.  The evals cover the lower part and the cusp.
INVERT_PLAN = {128: 2, 256: 2}
INVERT_IM = (1.4, 2.0)
GUESS_OFFSET = 0.01
# residual threshold of the acceptance criteria; a group image may lose digits
# (reported as eval_digits_lost) but not this many
WRONG_RESULT_TOL = 1e-8

# ----------------------------------------------------------------------- exact

TAYLOR_ORDER = 10
TAYLOR_BASES = 2
FIBER_POINTS = 8
SERIES_ORDER = 40
CLAUSEN_ORDER = 40
SINGULAR_POINTS = ("0", "25/27", "40/3", "infinity")
KLEIN_TERM_COUNTS = {"A": 2, "B": 5, "C": 12, "D": 20}
TAYLOR_UNITS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


# ===================================================================== inputs


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def fingerprint(inputs) -> str:
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()[:16]


def inputs_for(workload: str, seed: int):
    if workload == "verify-all":
        return {"prec": VERIFY_PREC, "seed": seed}
    if workload == "points":
        return points_inputs(seed)
    if workload == "exact":
        return exact_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def apply_word(z1, z2, word, eps, eps_conj):
    """Act on (z1, z2) by a word of the generators, rightmost letter first:
    g1 (z1 + 1, z2 + 1), g2 (z1 + eps, z2 + eps'), g3 (-1/z1, -1/z2).  Works
    for Python complex numbers and for mpmath numbers alike."""
    for gen, power in reversed(word):
        if gen == "g1":
            z1, z2 = z1 + power, z2 + power
        elif gen == "g2":
            z1, z2 = z1 + power * eps, z2 + power * eps_conj
        elif gen == "g3" and power % 2:
            z1, z2 = -1 / z1, -1 / z2
        elif gen != "g3":
            raise ValueError(f"unknown generator {gen!r}")
    return z1, z2


def _box(rng: random.Random, im_range=BOX_IM) -> list[list[str]]:
    return [[f"{rng.uniform(*BOX_RE):.6f}", f"{rng.uniform(*im_range):.6f}"]
            for _ in range(2)]


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One value from each of ``n`` equal slices of [lo, hi], in random order."""
    width = (hi - lo) / n
    values = [lo + (k + rng.random()) * width for k in range(n)]
    rng.shuffle(values)
    return values


def _boxes(rng: random.Random, n: int, im_range=BOX_IM) -> list[list[list[str]]]:
    """``n`` box points whose smaller imaginary part takes one value from each
    of ``n`` equal slices of ``im_range``; the larger is uniform above it.  A
    theta sum's cost follows the smaller imaginary part, so the total cost of
    the ``n`` points varies little with the seed."""
    boxes = []
    for low in _strata(rng, n, *im_range):
        ims = [low, rng.uniform(low, im_range[1])]
        rng.shuffle(ims)
        boxes.append([[f"{rng.uniform(*BOX_RE):.6f}", f"{im:.6f}"] for im in ims])
    return boxes


def _group_image(rng: random.Random, pre_im, lo: float, hi: float) -> dict:
    """A point with Im in ``pre_im`` and a word g1^c g3 g1^a g2^b whose image
    has its smaller imaginary part in [lo, hi] and both at most IMAGE_MAX_IM."""
    sqrt5 = math.sqrt(5)
    while True:
        box = _box(rng, pre_im)
        word = [["g1", rng.randint(-2, 2)], ["g3", 1],
                ["g1", rng.randint(-8, 8)], ["g2", rng.randint(-3, 3)]]
        z1, z2 = apply_word(*(complex(float(r), float(i)) for r, i in box), word,
                            (1 + sqrt5) / 2, (1 - sqrt5) / 2)
        low, high = sorted((z1.imag, z2.imag))
        if lo <= low <= hi and high <= IMAGE_MAX_IM:
            return {"box": box, "word": word}


def _offset(rng: random.Random) -> list[str]:
    angle = rng.uniform(0, 2 * math.pi)
    return [f"{GUESS_OFFSET * math.cos(angle):.6f}", f"{GUESS_OFFSET * math.sin(angle):.6f}"]


def points_inputs(seed: int) -> dict:
    rng = _rng("points", seed)
    evals = {}
    for bits, (boxes, images) in EVAL_PLAN.items():
        reqs = [{"box": box, "word": []} for box in _boxes(rng, boxes)]
        reqs += [_group_image(rng, pre_im, *band) for pre_im, band in images]
        evals[str(bits)] = reqs
    inverts = {str(bits): [{"box": box, "offset": [_offset(rng), _offset(rng)]}
                           for box in _boxes(rng, n, INVERT_IM)]
               for bits, n in INVERT_PLAN.items()}
    return {"eval": evals, "invert": inverts}


def _small_rational(rng: random.Random, num: tuple[int, int], den: tuple[int, int]) -> str:
    return str(Fraction(rng.randint(*num), rng.randint(*den)))


def exact_inputs(seed: int) -> dict:
    """Taylor base points in (0, 1/2]^2, where every coefficient of the system
    is regular, and fiber points with Y != 0."""
    rng = _rng("exact", seed)
    bases: list[list[str]] = []
    while len(bases) < TAYLOR_BASES:
        base = [_small_rational(rng, (1, 7), (15, 31)) for _ in range(2)]
        if base not in bases:
            bases.append(base)
    fibers: list[list[str]] = []
    while len(fibers) < FIBER_POINTS:
        point = [_small_rational(rng, (-20, 20), (1, 9)),
                 _small_rational(rng, (1, 20), (1, 9))]
        if rng.random() < 0.5:
            point[1] = str(-Fraction(point[1]))
        if point not in fibers:
            fibers.append(point)
    return {"taylor_bases": bases, "taylor_order": TAYLOR_ORDER,
            "fiber_points": fibers, "series_points": list(SINGULAR_POINTS),
            "series_order": SERIES_ORDER, "clausen_order": CLAUSEN_ORDER}


# =================================================================== requests


def run_requests(calls, tracer) -> tuple[float, list[dict]]:
    """Run ``(kind, call, check)`` requests one after another, then check each
    result outside the timed region.  ``check(result)`` returns ``(ok,
    details)``; an exception in a call or a check is a failed request."""
    done = []
    t0 = time.perf_counter()
    tracer.active = True
    for k, (kind, call, check) in enumerate(calls):
        tracer.request = f"{kind}-{k}"
        start = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:  # noqa: BLE001 - every failure is a counted outcome
            result, error = None, type(exc).__name__
        done.append((kind, 1000 * (time.perf_counter() - start), result, error, check))
    tracer.active = False
    tracer.request = None
    run_s = time.perf_counter() - t0

    records = []
    for kind, ms, result, error, check in done:
        ok, details = False, {}
        if error is None:
            try:
                ok, details = check(result)
            except Exception as exc:  # noqa: BLE001 - a malformed result fails its check
                error = f"check: {type(exc).__name__}"
        records.append({"kind": kind, "ms": ms, "ok": bool(ok), "error": error, **details})
    return run_s, records


# ------------------------------------------------------------------- points


def _mpc(pair: list[str]):
    import mpmath
    return mpmath.mpc(mpmath.mpf(pair[0]), mpmath.mpf(pair[1]))


def _point(req: dict, bits: int):
    """The request's (z1, z2), made at ``bits`` plus guard bits."""
    import mpmath
    with mpmath.workprec(bits + 16):
        box = (_mpc(req["box"][0]), _mpc(req["box"][1]))
        if "offset" in req:
            return (box[0] + _mpc(req["offset"][0]), box[1] + _mpc(req["offset"][1]))
        s = mpmath.sqrt(5)
        return apply_word(*box, req["word"], (1 + s) / 2, (1 - s) / 2)


def _preimage(req: dict, bits: int):
    """The request's box (or cusp) point, before any group word."""
    return _point({"box": req["box"], "word": []}, bits)


def _xy(p, bits: int):
    from hilbert_k3 import moduli
    from hilbert_k3.numkernel import PrecisionPolicy, working_precision
    pol = PrecisionPolicy(bits)
    with working_precision(pol):
        x, y, _ = moduli.moduli_XYZ(p, pol)
    return x, y


def relative_error(xy, ref, bits: int) -> float:
    """Normwise relative error max(|dX|, |dY|) / max(|X|, |Y|), evaluated at
    ``bits`` plus guard bits."""
    import mpmath
    with mpmath.workprec(bits + 16):
        err = max(abs(xy[0] - ref[0]), abs(xy[1] - ref[1]))
        return float(err / max(abs(ref[0]), abs(ref[1])))


def digits_lost(rel_err: float, verify_tol: float) -> float:
    return max(0.0, math.log10(rel_err / verify_tol)) if rel_err > 0 else 0.0


def check_eval(xy, ref, bits: int, image: bool) -> tuple[bool, float]:
    """(ok, relative error) of an eval result against its reference.  A box
    point must meet verify_tol; a group image, the acceptance threshold."""
    from hilbert_k3.numkernel import PrecisionPolicy
    rel = relative_error(xy, ref, 2 * bits)
    bound = WRONG_RESULT_TOL if image else PrecisionPolicy(bits).verify_tol
    return math.isfinite(rel) and rel <= bound, rel


def check_invert(z, xy_at_z, target, bits: int) -> tuple[bool, float]:
    """(ok, relative error): the preimage lies in H x H and its (X, Y) meets
    the target to the acceptance threshold."""
    rel = relative_error(xy_at_z, target, 2 * bits)
    in_domain = z.z1.imag > 0 and z.z2.imag > 0
    return in_domain and math.isfinite(rel) and rel <= WRONG_RESULT_TOL, rel


def output_digest(*values) -> str:
    """Fingerprint of exact outputs: the binary mantissa and exponent of each
    mpmath number, or the value itself."""
    exact = [getattr(v, "_mpc_", None) or getattr(v, "_mpf_", v) for v in values]
    return hashlib.sha256(repr(exact).encode()).hexdigest()[:32]


def reuse_check(prior, digest: str, check):
    """``check()`` with the output's digest added to its details, unless an
    earlier iteration of the run gave this request the identical output and
    that output passed its check: then its details stand."""
    if prior and prior["ok"] and prior.get("digest") == digest:
        details = {k: v for k, v in prior.items() if k not in ("kind", "ms", "ok", "error")}
        return True, {**details, "reused": True}
    ok, details = check()
    return ok, {**details, "digest": digest, "reused": False}


def run_points(inputs: dict, tracer, expected=None) -> tuple[float, list[dict]]:
    """Eval and invert requests, one precision phase after the other.  Inputs
    and invert targets are made before the timed region and references (at
    twice the mantissa) after it.  ``expected`` holds the request records of
    an earlier iteration on the same inputs; an output identical to a checked
    one is not checked again."""
    import mpmath
    from hilbert_k3 import hilbert_theta, moduli
    from hilbert_k3.numkernel import PrecisionPolicy, working_precision

    def evaluate(p, pol):
        with working_precision(pol):
            forms = hilbert_theta.mueller_forms(p, pol)
            return moduli.moduli_XYZ(p, pol, forms=forms)[:2]

    def invert(target, guess, pol):
        with working_precision(pol):
            return moduli.newton_invert(target[0], target[1], guess, pol)

    def prior(index):
        return expected[index] if expected and index < len(expected) else None

    def eval_check(req, bits, index):
        def fresh(xy):
            ref = _xy(_preimage(req, 2 * bits), 2 * bits)
            ok, rel = check_eval(xy, ref, bits, image=bool(req["word"]))
            return ok, {"image": bool(req["word"]), "rel_err": rel,
                        "digits_lost": digits_lost(rel, PrecisionPolicy(bits).verify_tol)}
        return lambda xy: reuse_check(prior(index), output_digest(*xy), lambda: fresh(xy))

    def invert_check(target, bits, index):
        def fresh(res):
            ok, rel = check_invert(res.z, _xy(res.z, 2 * bits), target, bits)
            return ok, {"rel_err": rel, "iterations": res.iterations,
                        "digits_lost": digits_lost(rel, PrecisionPolicy(bits).verify_tol)}
        return lambda res: reuse_check(
            prior(index), output_digest(res.z.z1, res.z.z2, res.iterations),
            lambda: fresh(res))

    calls = []
    for bits in PRECISIONS:
        pol = PrecisionPolicy(bits)
        for req in inputs["eval"][str(bits)]:
            p = _point(req, 2 * bits)
            calls.append((f"eval{bits}", lambda p=p, pol=pol: evaluate(p, pol),
                          eval_check(req, bits, len(calls))))
        for req in inputs["invert"][str(bits)]:
            target = _xy(_preimage(req, 2 * bits), 2 * bits)
            with mpmath.workprec(bits + 16):
                rounded = (+target[0], +target[1])
            guess = _point(req, bits)
            calls.append((f"invert{bits}",
                          lambda t=rounded, g=guess, pol=pol: invert(t, g, pol),
                          invert_check(target, bits, len(calls))))
    return run_requests(calls, tracer)


# -------------------------------------------------------------------- exact


def check_pde_restriction(rep: dict) -> bool:
    """The eliminated operator equals restricted_ode_X().monic(), has no
    zeroth-order term and order 4."""
    return (rep["matches_restricted_ode"] is True and rep["no_zeroth_order_term"] is True
            and rep["order"] == 4)


def check_mixed_jets(rep: dict) -> bool:
    return rep["consistent"] is True and rep["compared_orders"] >= 1


def check_klein(rep: dict) -> bool:
    return (rep["exact_zero"] is True and rep["residual_poly"].is_zero()
            and rep["term_counts"] == KLEIN_TERM_COUNTS)


def check_clausen(rep: dict, order: int) -> bool:
    return (rep["clausen"] and rep["antiderivative_identity"] and rep["S_annihilated"]
            and rep["derivative_consistency"] and rep["clausen_exact_to_order"] == order)


def check_series_basis(local_op, basis) -> bool:
    """A full basis: one series per order of the operator, each annihilated
    to its truncation order."""
    return (len(basis) == local_op.order
            and all(local_op.apply(s).is_zero_to_precision() for s in basis))


def check_taylor(base, solution) -> bool:
    """Each of the four solutions has the prescribed free jets and satisfies
    both equations of the system at the base point."""
    from hilbert_k3 import pde
    system = pde.build_pde()
    at = {"X": base[0], "Y": base[1]}
    c = {name: getattr(system, name).evaluate(at)
         for name in ("L1", "M1", "A1", "B1", "C1", "D1", "P1", "Q1")}
    if len(solution.grids) != len(TAYLOR_UNITS):
        return False
    for unit, t in zip(TAYLOR_UNITS, solution.grids):
        u, ux, uy, uxy = (t[(0, 0)], t[(1, 0)], t[(0, 1)], t[(1, 1)])
        if (u, ux, uy, uxy) != unit:
            return False
        if 2 * t[(2, 0)] != c["L1"] * uxy + c["A1"] * ux + c["B1"] * uy + c["P1"] * u:
            return False
        if 2 * t[(0, 2)] != c["M1"] * uxy + c["C1"] * ux + c["D1"] * uy + c["Q1"] * u:
            return False
    return True


def check_fibers(cfg) -> bool:
    return not cfg.degenerate and cfg.is_k3 and cfg.euler_total == 24


def _local_operator(op, point: str):
    if point == "infinity":
        return op.invert_variable()
    p = Fraction(point)
    return op.shift_variable(p) if p != 0 else op


def _flag(check):
    return lambda result: (check(result), {})


def run_exact(inputs: dict, tracer) -> tuple[float, list[dict]]:
    from hilbert_k3 import diffops, fibrations, klein, pde, periods

    calls = [("pde-restriction", pde.verify_pde_restriction, _flag(check_pde_restriction)),
             ("mixed-jets", pde.verify_mixed_jet_compatibility, _flag(check_mixed_jets))]
    for base in inputs["taylor_bases"]:
        b = tuple(Fraction(v) for v in base)
        calls.append(("taylor", lambda b=b: pde.taylor_basis(b, inputs["taylor_order"]),
                      _flag(lambda sol, b=b: check_taylor(b, sol))))
    calls.append(("klein", klein.verify_klein_relation, _flag(check_klein)))
    for point in inputs["series_points"]:
        def solve(point=point):
            local = _local_operator(periods.restricted_ode_X(), point)
            return local, diffops.series_solve(local, 0, inputs["series_order"])
        calls.append(("series", solve, _flag(lambda r: check_series_basis(*r))))
    order = inputs["clausen_order"]
    calls.append(("clausen", lambda: periods.verify_clausen_and_S(order),
                  _flag(lambda rep: check_clausen(rep, order))))
    for x, y in inputs["fiber_points"]:
        calls.append(("fibers", lambda x=x, y=y: fibrations.classify_fibers(
            Fraction(x), Fraction(y)), _flag(check_fibers)))
    return run_requests(calls, tracer)


# --------------------------------------------------------------- verify-all


def verify_argv(seed: int) -> list[str]:
    return ["--prec", str(VERIFY_PREC), "--seed", str(seed), "verify", "all"]


def parse_verify_all(stdout: str, returncode) -> dict:
    """Operations and failures of one ``verify all`` run.  Every check is an
    operation and so is the process; a failing or missing check, a nonzero
    exit and an unreadable report each count as a failure."""
    try:
        report = json.loads(stdout)
        checks = [(suite["suite"], check["name"], check["status"])
                  for suite in report["suites"] for check in suite["checks"]]
    except (ValueError, KeyError, TypeError):
        return {"attempted": EXPECTED_CHECKS + 1, "failed": EXPECTED_CHECKS + 1,
                "failures": [f"unreadable report (exit code {returncode})"]}
    failures = [f"{suite}/{name}: {status}" for suite, name, status in checks
                if status != "pass"]
    missing = max(0, EXPECTED_CHECKS - len(checks))
    if missing:
        failures.append(f"{missing} of {EXPECTED_CHECKS} checks missing")
    process_failed = returncode != 0 or report.get("overall") != "pass"
    if process_failed:
        failures.append(f"exit code {returncode}, overall {report.get('overall')!r}")
    return {"attempted": max(len(checks), EXPECTED_CHECKS) + 1,
            "failed": len(checks) - sum(s == "pass" for _, _, s in checks)
            + missing + int(process_failed),
            "failures": failures}


def run_verify_inprocess(seed: int, tracer) -> tuple[float, dict]:
    """``verify all`` through ``cli.main`` in this process, for traced runs."""
    from hilbert_k3 import cli
    out = io.StringIO()
    t0 = time.perf_counter()
    tracer.active = True
    try:
        with redirect_stdout(out):
            code = cli.main(verify_argv(seed))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - reported as a failed run
        code = f"exception {type(exc).__name__}"
    finally:
        tracer.active = False
    return time.perf_counter() - t0, parse_verify_all(out.getvalue(), code)
