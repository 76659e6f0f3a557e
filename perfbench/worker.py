"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N [--expect PATH]
                                [--setup-only] [--trace 0|1] [--spans PATH]

Imports ``hilbert_k3.cli``, does the workload's untimed warm-up and prints
``READY``; the parent times set-up up to that line.  Then it runs the
iteration's timed work, checks every result and prints one JSON line.
``--expect`` names the request records of an earlier iteration of the run
(points only): an output identical to one that passed its check there is not
checked against a reference again.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402


def warm_up(workload: str) -> None:
    """Fill the interpreter's and mpmath's own lazy state, never a result
    the timed work reuses."""
    if workload == "points":
        import mpmath
        from hilbert_k3 import moduli
        from hilbert_k3.numkernel import PrecisionPolicy, working_precision
        for bits in workloads.PRECISIONS:
            pol = PrecisionPolicy(bits)
            with working_precision(pol):
                moduli.moduli_XYZ((mpmath.mpc(0, 2), mpmath.mpc(0, 3)), pol)
    elif workload == "exact":
        from hilbert_k3.polynomials import SparsePoly
        x = SparsePoly.variable(("X",), "X")
        (x ** 3 - 1).divmod_exact(x - 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--expect", help="request records of an earlier iteration (JSON)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the recorded spans (JSON lines)")
    args = ap.parse_args(argv)

    import hilbert_k3.cli  # noqa: F401 - set-up: the CLI and every module it imports
    warm_up(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    if args.workload == "verify-all":
        run_s, outcome = workloads.run_verify_inprocess(args.seed, tracer)
        result = {"run_s": run_s, **outcome}
    else:
        inputs = workloads.inputs_for(args.workload, args.seed)
        if args.workload == "points":
            expected = json.loads(Path(args.expect).read_text()) if args.expect else None
            run_s, records = workloads.run_points(inputs, tracer, expected)
        else:
            run_s, records = workloads.run_exact(inputs, tracer)
        result = {"run_s": run_s, "requests": records,
                  "attempted": len(records),
                  "failed": sum(1 for r in records if not r["ok"])}
    if args.trace:
        result.update(layers=tracer.layer_metrics(), absent=tracer.absent,
                      errors=tracer.errors())
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
