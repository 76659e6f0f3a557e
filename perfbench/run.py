"""Benchmark of the hilbert-k3 toolkit.

    python3 perfbench/run.py --workload {verify-all,points,exact} --seed N \\
                             --seconds S --trace {0,1}

Run it from the root of a source checkout; the package is imported from
``src``.  Each workload is a closed loop with one client: requests run one
after another in a single process.  Every iteration starts a fresh
interpreter, because a command-line user pays every cache fill on every run.
Iterations run the seed's inputs again until ``--seconds`` have passed (at
least one runs; none starts that would end past 1.5 x ``--seconds``), and
``run_s`` is their median.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it runs one untraced and one traced iteration on the same inputs and reports
per-layer span metrics.  Every output is checked.  The lines before the last
describe the run for a reader; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Results and spans are also
written under ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
# every run must end within 180 s; leave room for the report
DEADLINE_S = 170.0
OVERRUN = 1.5


# ================================================================ processes


class Spawned:
    """Outcome of one child process."""

    def __init__(self, returncode, stdout: str, ready_s, wall_s: float, rss_mb: float):
        self.returncode = returncode
        self.stdout = stdout
        self.ready_s = ready_s
        self.wall_s = wall_s
        self.rss_mb = rss_mb

    def last_json(self):
        lines = [line for line in self.stdout.splitlines() if line.startswith("{")]
        try:
            return json.loads(lines[-1]) if lines else None
        except ValueError:
            return None


def spawn(argv: list[str], deadline: float) -> Spawned:
    """Run a child to completion, killing it at ``deadline``.  Records when
    its first line of output arrived, its wall time and its peak RSS (which
    includes any grandchild it waited for)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    chunks: list[bytes] = []
    ready_s = None
    finished = False
    try:
        fd = proc.stdout.fileno()
        while time.perf_counter() < deadline:
            readable, _, _ = select.select([fd], [], [], deadline - time.perf_counter())
            if not readable:
                continue
            data = os.read(fd, 1 << 16)
            if not data:
                finished = True
                break
            chunks.append(data)
            if ready_s is None and b"\n" in data:
                ready_s = time.perf_counter() - t0
    finally:
        if not finished:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    wall_s = time.perf_counter() - t0
    return Spawned(proc.returncode, b"".join(chunks).decode(errors="replace"),
                   ready_s, wall_s, usage.ru_maxrss / 1024)


def worker_argv(workload: str, seed: int, **flags) -> list[str]:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    for key, value in flags.items():
        if value is True:
            argv.append(f"--{key.replace('_', '-')}")
        elif value is not None:
            argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


# ============================================================== environment


def environment(workload: str, seed: int) -> dict:
    import mpmath
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "hilbert_k3").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "workload": workload,
        "seed": seed,
        "inputs_sha256": workloads.fingerprint(workloads.inputs_for(workload, seed)),
    }


# ================================================================ statistics


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (statistics' inclusive
    method); q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def latency_summary(records: list[dict], kind: str, high: float | None) -> dict:
    ms = sorted(r["ms"] for r in records if r["kind"] == kind)
    if not ms:
        return {}
    out = {f"{kind}_ms_p50": (statistics.median(ms), "ms")}
    if high is not None:
        value = percentile(ms, high)
        name = f"{kind}_ms_p{round(100 * high)}"
        out[name] = (value, "ms")
        out[f"{name}_samples_beyond"] = (sum(1 for v in ms if v > value), "count")
    out[f"{kind}_samples"] = (len(ms), "count")
    return out


def points_summary(records: list[dict]) -> dict:
    out = {}
    for bits in workloads.PRECISIONS:
        out.update(latency_summary(records, f"eval{bits}", 0.9))
    for bits in workloads.PRECISIONS:
        out.update(latency_summary(records, f"invert{bits}", None))
    for kind in ("eval", "invert"):
        lost = [r["digits_lost"] for r in records
                if r["kind"].startswith(kind) and "digits_lost" in r]
        if lost:
            out[f"{kind}_digits_lost"] = (max(lost), "digits")
    iterations = [r["iterations"] for r in records if "iterations" in r]
    if iterations:
        out["invert_newton_iterations_p50"] = (statistics.median(iterations), "count")
    return out


# ===================================================================== runs


def timed_run(workload: str, seed: int, seconds: float, deadline: float,
              expect_path: Path) -> dict:
    """Untraced run: set-up samples, then fresh-interpreter iterations on the
    seed's inputs until ``seconds`` have passed.  On points, the first
    iteration's request records go to ``expect_path`` for the later ones."""
    setups = []
    for _ in range(SETUP_SAMPLES):
        child = spawn(worker_argv(workload, seed, setup_only=True), deadline)
        if child.returncode != 0 or child.ready_s is None:
            raise RuntimeError(f"set-up failed with exit code {child.returncode}")
        setups.append(child.ready_s)

    iterations: list[dict] = []
    start = time.perf_counter()
    while not iterations or time.perf_counter() - start < seconds:
        # an iteration that would end past 1.5 x seconds is not started, so a
        # run's length does not double when one long iteration ends early
        end = time.perf_counter() + (iterations[-1]["wall_s"] if iterations else 0.0)
        if iterations and (end - start > OVERRUN * seconds or end > deadline):
            break
        expect = expect_path if iterations and expect_path.exists() else None
        iterations.append(run_iteration(workload, seed, len(iterations), deadline, expect))
        if workload == "points" and len(iterations) == 1:
            expect_path.write_text(json.dumps(iterations[0].get("requests", [])))

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    records = [r for it in iterations for r in it.get("requests", [])]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(it["run_s"] for it in iterations), "s"),
        "peak_rss_mb": (statistics.median(it["rss_mb"] for it in iterations), "MB"),
    }
    details = {"failed_ratio": (failed / attempted, "ratio"),
               "iterations": (len(iterations), "count")}
    if workload == "points":
        details.update(points_summary(records))
    failures = [f for it in iterations for f in it["failures"]]
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "details": details, "failures": failures,
            "iterations": [{k: v for k, v in it.items() if k != "requests"}
                           for it in iterations],
            "requests": records}


def run_iteration(workload: str, seed: int, index: int, deadline: float,
                  expect: Path | None = None) -> dict:
    if workload == "verify-all":
        # the command a user types, one fresh process per iteration
        argv = [sys.executable, "-m", "hilbert_k3.cli", *workloads.verify_argv(seed)]
        child = spawn(argv, deadline)
        outcome = workloads.parse_verify_all(child.stdout, child.returncode)
        return {"run_s": child.wall_s, "wall_s": child.wall_s, "rss_mb": child.rss_mb,
                **outcome}
    child = spawn(worker_argv(workload, seed, expect=expect), deadline)
    result = child.last_json()
    if child.returncode != 0 or result is None:
        return {"run_s": child.wall_s, "wall_s": child.wall_s, "rss_mb": child.rss_mb,
                "attempted": 1, "failed": 1,
                "failures": [f"iteration {index}: worker exit code {child.returncode}"]}
    failures = [f"iteration {index}: {r['kind']} {r['error'] or 'wrong result'}"
                for r in result["requests"] if not r["ok"]]
    return {**result, "wall_s": child.wall_s, "rss_mb": child.rss_mb,
            "failures": failures}


def traced_run(workload: str, seed: int, deadline: float, spans_path: Path) -> dict:
    """One untraced and one traced iteration on the same inputs, both
    in-process in fresh interpreters; per-layer metrics come from the traced
    one and their run-time ratio is the tracing overhead."""
    outcomes = []
    for trace in (0, 1):
        flags = {"trace": trace, "spans": spans_path if trace else None}
        child = spawn(worker_argv(workload, seed, **flags), deadline)
        result = child.last_json()
        if child.returncode != 0 or result is None:
            raise RuntimeError(f"traced iteration failed with exit code {child.returncode}")
        outcomes.append(result)
    plain, traced = outcomes
    metrics = {name: (value, spans.unit(name)) for name, value in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced["run_s"] / plain["run_s"], "ratio")
    details = {"traced_run_s": (traced["run_s"], "s"),
               "untraced_run_s": (plain["run_s"], "s")}
    if workload == "verify-all":
        suites = sum(v for k, v in traced["layers"].items()
                     if k.startswith("verify.run_suite."))
        details["suites_sum_s"] = (suites, "s")
        details["run_s_minus_suites_s"] = (traced["run_s"] - suites, "s")
    failures = [f for o in outcomes for f in o.get("failures", [])]
    failures += [f"{r['kind']} {r['error'] or 'wrong result'}"
                 for o in outcomes for r in o.get("requests", []) if not r["ok"]]
    return {"attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "metrics": metrics, "details": details, "failures": failures,
            "absent": traced["absent"], "errors": traced["errors"]}


# ==================================================================== main


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "hilbert_k3" / "cli.py").is_file():
        print(f"error: no hilbert_k3 sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        result = traced_run(args.workload, args.seed, deadline,
                            RESULTS / f"{stem}.spans.jsonl")
    else:
        result = timed_run(args.workload, args.seed, args.seconds, deadline,
                           RESULTS / f"{stem}.expect.json")

    print("environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in {**result["metrics"], **result["details"]}.items():
        print(f"  {name:<48} {_fmt(value):>14} {unit}")
    for name in result.get("absent", []):
        print(f"  {name:<48} {'absent':>14}")
    for name, count in result.get("errors", {}).items():
        print(f"  raised {name} x{count}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1, default=str))

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
