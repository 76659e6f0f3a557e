"""List the functions of ``src/hilbert_k3`` that no CLI command reaches.

Runs a fixed set of ``hilbert-k3`` commands in this process under
``sys.setprofile`` (the package is imported under the profiler too, so code
that runs at import counts as reached) and prints every non-dunder function
or method defined in ``src/hilbert_k3`` that none of them entered.  Functions
named in ``ALLOWED`` are exempt, each for the reason given there.

``sys.setprofile`` sees only this process, and ``verify all`` forks one
worker process per CPU it may use, so the script first pins itself to one
allowed CPU: the suites then run here, under the profiler.  Pinning needs
``os.sched_setaffinity`` (Linux).

    python tools/unreached.py

Exits 0 when nothing is listed, 1 otherwise.  It takes about as long as the
two ``verify all`` runs it contains.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "hilbert_k3"

RUNS = [
    ["--prec", "128", "--stable-output", "verify", "all"],
    ["--prec", "256", "--stable-output", "verify", "all"],
    ["forms", "eval", "--z1", "0.5+1.25i", "--z2=-0.25+0.75i"],
    ["--format", "csv", "forms", "eval", "--z1", "0.5+1.25i", "--z2=-0.25+0.75i"],
    ["--prec", "256", "forms", "eval", "--z1", "0.3+1.1i", "--z2", "1/3+0.9i"],
    ["fibers", "classify", "--X", "1", "--Y", "1"],
    ["fibers", "classify", "--X", "0", "--Y", "0"],
    ["fibers", "classify", "--X", "0", "--Y=-64"],
    ["fibers", "classify", "--X", "1", "--Y", "0"],
    ["fibers", "classify", "--X", "3/7", "--Y=-2/5"],
    ["invert", "--X", "1/10", "--Y", "1/10", "--guess", "0.2+1.1i,-0.3+1.5i"],
    ["series", "jfunction", "--order", "12"],
    ["series", "hypergeom", "--order", "6", "--upper", "1/6,1/2,5/6", "--lower", "1,1"],
]

# module.qualname -> why it stays although no command above enters it
ALLOWED = {
    "pde.Quotient.evaluate": "the exact benchmark's Taylor-basis checker calls it",
    "polynomials.RationalFunction.format": "RationalFunction.__repr__ prints with it",
}


def defined_functions() -> dict[tuple[str, str], str]:
    """(file, qualname) -> module.qualname for every def in the package,
    nested defs included; a def in a function body gets ``<locals>`` in its
    qualname, as in ``code.co_qualname``."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = prefix + child.name
                    found[(str(path), qualname)] = f"{module}.{qualname}"
                    walk(child, qualname + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return found


def entered_functions() -> tuple[set[tuple[str, str]], list[str]]:
    """(file, qualname) of every code object the runs enter, and the runs
    that did not exit 0."""
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    failed = []
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    sys.setprofile(profile)
    try:
        from hilbert_k3 import cli
        for argv in RUNS:
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != 0:
                failed.append(f"{' '.join(argv)} (exit {code})")
    finally:
        sys.setprofile(None)
    entered = {(str(Path(c.co_filename).resolve()), c.co_qualname) for c in codes}
    return entered, failed


def main() -> int:
    defined = defined_functions()
    entered, failed = entered_functions()
    missed = {name for key, name in defined.items()
              if key not in entered and not name.rsplit(".", 1)[-1].startswith("__")}
    unreached = sorted(missed - set(ALLOWED))
    # an allowlist entry that is gone or now reached would hide nothing; drop it
    stale = sorted(set(ALLOWED) - missed)
    for run in failed:
        print(f"run failed: {run}")
    for name in unreached:
        print(f"unreached: {name}")
    for name in stale:
        print(f"allowlisted but reached or not defined: {name}")
    print(f"{len(defined)} functions, {len(unreached)} unreached, "
          f"{len(ALLOWED)} allowlisted, {len(RUNS)} runs")
    return 1 if failed or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
