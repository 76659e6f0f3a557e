"""Command-line front end: evaluation commands, named verification suites with
pass/fail exit codes, and JSON/CSV output.

Exit codes: 0 all requested checks pass, 1 verification failure or a numeric
failure (reported as {"error": <type>, "message": <text>}), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

import mpmath

from .elliptic import j_qexpansion
from .fibrations import classify_fibers
from .hilbert_theta import mueller_forms
from .moduli import (JacobianSingular, NearZeroDenominator, NoConvergence, moduli_XYZ,
                     newton_invert)
from .numkernel import (PRECISION_ENV_VAR, PrecisionPolicy, default_policy, to_mpf,
                        working_precision)
from .periods import hypergeom_coefficients
from .verify import DEFAULT_SEED, SUITES, run_suites


def parse_rational(text: str) -> Fraction:
    """An exact rational such as '3/4', '-2' or '0.25'; a zero denominator
    is a ValueError, as any other malformed number is."""
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def parse_complex(text: str):
    """Parse 'a+bi' with decimal or rational parts: '1.3i', '0.5+1.2i',
    '-1/3+7/5i', '2', 'i'.  The parts are read as exact fractions and rounded
    once, at the current mpmath precision; call it inside working_precision."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if not s.endswith("i"):
        return mpmath.mpc(to_mpf(parse_rational(s)), 0)
    body = s[:-1]
    # split off the imaginary coefficient: last top-level +/- not in position 0
    split = None
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "e/":
            split = k
            break
    if split is None:
        re_part = Fraction(0)
        im_text = body
    else:
        re_part = parse_rational(body[:split])
        im_text = body[split:]
    if im_text in ("", "+"):
        im_part = Fraction(1)
    elif im_text == "-":
        im_part = Fraction(-1)
    else:
        im_part = parse_rational(im_text)
    return mpmath.mpc(to_mpf(re_part), to_mpf(im_part))


def _nstr(x, digits: int = 30) -> str:
    return mpmath.nstr(x, digits, strip_zeros=False)


def _floored(x, scale, policy: PrecisionPolicy, digits: int = 30) -> str:
    """x to ``digits`` digits, or zero when |x| <= verify_tol * scale: below
    that the digits are rounding noise."""
    return _nstr(mpmath.mpf(0) if abs(x) <= policy.verify_tol * scale else x, digits)


def _complex_fields(name, value, policy: PrecisionPolicy):
    """Real and imaginary parts; a part within verify_tol of zero, relative
    to |value|, prints as zero."""
    return {f"{name}_re": _floored(value.real, abs(value), policy),
            f"{name}_im": _floored(value.imag, abs(value), policy)}


def _emit(payload, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True)
    buf = io.StringIO()
    if isinstance(payload, dict) and "checks" in payload:
        rows = payload["checks"]
        writer = csv.DictWriter(buf, fieldnames=["name", "status", "residual", "runtime_ms"])
        writer.writeheader()
        writer.writerows(rows)
    elif isinstance(payload, dict) and "suites" in payload:
        writer = csv.DictWriter(buf, fieldnames=["suite", "name", "status",
                                                 "residual", "runtime_ms"])
        writer.writeheader()
        for suite in payload["suites"]:
            for row in suite["checks"]:
                writer.writerow({"suite": suite["suite"], **row})
    else:
        writer = csv.writer(buf)
        for key in sorted(payload):
            writer.writerow([key, payload[key]])
    return buf.getvalue().rstrip("\n")


def cmd_forms(args, policy: PrecisionPolicy) -> tuple[int, object]:
    with working_precision(policy):
        p = (parse_complex(args.z1), parse_complex(args.z2))
        f = mueller_forms(p, policy)
        x, y, z = moduli_XYZ(p, policy, forms=f)
        payload: dict = {}
        for name, value in (("g2", f.g2), ("s5", f.s5), ("s6", f.s6),
                            ("s10", f.s10), ("s15", f.s15),
                            ("X", x), ("Y", y), ("Z", z)):
            payload.update(_complex_fields(name, value, policy))
        return 0, payload


def cmd_verify(args, policy: PrecisionPolicy) -> tuple[int, object]:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, policy, args.seed)
    ok = all(r.overall_pass for r in reports)
    if len(reports) == 1:
        payload = reports[0].as_dict(stable=args.stable_output)
    else:
        payload = {"overall": "pass" if ok else "fail",
                   "suites": [r.as_dict(stable=args.stable_output) for r in reports]}
    return (0 if ok else 1), payload


def cmd_fibers(args, policy: PrecisionPolicy) -> tuple[int, object]:
    cfg = classify_fibers(parse_rational(args.X), parse_rational(args.Y))
    payload = {
        "X": args.X, "Y": args.Y,
        "summary": cfg.summary(),
        "fibers": [{"location": p.location, "type": str(p.type), "count": p.count}
                   for p in cfg.placements],
        "euler_total": cfg.euler_total,
        "is_k3": cfg.is_k3,
        "certified": cfg.certified,
    }
    return 0, payload


def cmd_invert(args, policy: PrecisionPolicy) -> tuple[int, object]:
    guess_parts = args.guess.split(",")
    if len(guess_parts) != 2:
        raise ValueError("--guess needs the form z1,z2")
    with working_precision(policy):
        guess = (parse_complex(guess_parts[0]), parse_complex(guess_parts[1]))
        X, Y = parse_complex(args.X), parse_complex(args.Y)
        res = newton_invert(X, Y, guess, policy)
        # X and Y are evaluated to verify_tol * (1 + |X| + |Y|) at best
        payload = {"iterations": res.iterations,
                   "residual": _floored(res.residual, 1 + abs(X) + abs(Y), policy, 8)}
        payload.update(_complex_fields("z1", res.z.z1, policy))
        payload.update(_complex_fields("z2", res.z.z2, policy))
        return 0, payload


def cmd_series(args, policy: PrecisionPolicy) -> tuple[int, object]:
    if args.kind == "jfunction":
        qe = j_qexpansion(args.order)
        payload = {
            "series": "1728*J",
            "leading_exponent": qe.expo,
            "coefficients": [str(c) for c in qe.coeffs],
        }
        return 0, payload
    if args.order < 0:
        raise ValueError(f"--order must be >= 0, got {args.order}")
    upper = [parse_rational(a) for a in args.upper.split(",")]
    lower = [parse_rational(b) for b in args.lower.split(",")]
    coeffs = hypergeom_coefficients(upper, lower, args.order)
    payload = {
        "series": f"hypergeometric {args.upper};{args.lower}",
        "leading_exponent": 0,
        "coefficients": [str(c) for c in coeffs],
    }
    return 0, payload


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hilbert-k3",
        description="verification and evaluation toolkit for the K3 family "
                    "attached to the Hilbert modular group of Q(sqrt 5)")
    ap.add_argument("--prec", type=int, default=None,
                    help=f"mantissa bits (default 128; env {PRECISION_ENV_VAR})")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seed for the sampled numeric checks")
    ap.add_argument("--stable-output", action="store_true",
                    help="zero out runtime fields for byte-for-byte comparisons")
    sub = ap.add_subparsers(dest="command", required=True)

    forms = sub.add_parser("forms", help="evaluate the theta forms")
    forms_sub = forms.add_subparsers(dest="forms_command", required=True)
    ev = forms_sub.add_parser("eval")
    ev.add_argument("--z1", required=True)
    ev.add_argument("--z2", required=True)

    ver = sub.add_parser("verify", help="run a named verification suite")
    ver.add_argument("suite", choices=sorted(SUITES) + ["all"])

    fib = sub.add_parser("fibers", help="fiber classification")
    fib_sub = fib.add_subparsers(dest="fibers_command", required=True)
    cl = fib_sub.add_parser("classify")
    cl.add_argument("--X", required=True)
    cl.add_argument("--Y", required=True)

    inv = sub.add_parser("invert", help="invert the period map numerically")
    inv.add_argument("--X", required=True)
    inv.add_argument("--Y", required=True)
    inv.add_argument("--guess", required=True, help="z1,z2")

    ser = sub.add_parser("series", help="exact series expansions")
    ser.add_argument("kind", choices=("jfunction", "hypergeom"))
    ser.add_argument("--order", type=int, required=True)
    ser.add_argument("--upper", default="1/12,5/12")
    ser.add_argument("--lower", default="1")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "forms": cmd_forms,
        "verify": cmd_verify,
        "fibers": cmd_fibers,
        "invert": cmd_invert,
        "series": cmd_series,
    }
    try:
        policy = PrecisionPolicy(args.prec) if args.prec is not None else default_policy()
        code, payload = handlers[args.command](args, policy)
    except (NoConvergence, JacobianSingular, NearZeroDenominator) as exc:
        code, payload = 1, {"error": type(exc).__name__, "message": str(exc)}
    except (ValueError, KeyError) as exc:
        ap.exit(2, f"error: {exc}\n")
        return 2  # unreachable; keeps type checkers happy
    print(_emit(payload, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
