"""List the statements of ``src/hilbert_k3`` functions that no CLI command runs.

Runs a fixed set of ``hilbert-k3`` commands in this process under
``sys.settrace`` and prints every statement in a function body, in
``src/hilbert_k3``, that none of them executed.  A function that no command
enters shows up through its statements.  Not listed, because they are not
code a run is expected to reach: docstrings, ``raise`` statements and the
bodies of ``except`` clauses (error handling, which the tests cover), and the
statements of the functions named in ``ALLOWED``, each for the reason given
there.  A statement counts as executed when a line event fires on any of its
own lines (a compound statement's own lines are its header: the ``if`` test,
the ``for`` target and iterable, the ``with`` items).

Each run names the exit code it must end with: 0 for a passing command, 1
for a command that prints a JSON error, 2 for a usage error.  ``sys.settrace``
sees only this process, and ``verify all`` forks one worker process per CPU
it may use, so the script pins itself to one allowed CPU for every run but
the last, whose suites then run here, under the tracer.  The last run keeps
the CPU affinity the script started with, so that on two or more CPUs it
reaches the worker pool; on one CPU the pool's statements are listed.
Pinning needs ``os.sched_setaffinity`` (Linux).

    python tools/unreached.py

Exits 0 when nothing is listed, 1 otherwise.  It takes about as long as the
three ``verify all`` runs it contains, traced.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "hilbert_k3"

# (argv, the exit code the run must end with)
RUNS = [
    (["--prec", "128", "--stable-output", "verify", "all"], 0),
    (["--prec", "256", "--stable-output", "verify", "all"], 0),
    (["forms", "eval", "--z1", "0.5+1.25i", "--z2=-0.25+0.75i"], 0),
    (["--format", "csv", "forms", "eval", "--z1", "0.5+1.25i", "--z2=-0.25+i"], 0),
    (["--prec", "256", "forms", "eval", "--z1", "0.3+1.1i", "--z2", "1/3+0.9i"], 0),
    (["forms", "eval", "--z1", "1e20i", "--z2", "1e20i"], 0),
    # near the real axis: mueller_forms inverts and translates before it sums
    (["forms", "eval", "--z1", "0.013+0.02i", "--z2=-0.01+0.021i"], 0),
    (["--format", "csv", "verify", "klein"], 0),
    (["fibers", "classify", "--X", "1", "--Y", "1"], 0),
    (["fibers", "classify", "--X", "0", "--Y", "0"], 0),
    (["fibers", "classify", "--X", "0", "--Y=-64"], 0),
    (["fibers", "classify", "--X", "1", "--Y", "0"], 0),
    (["fibers", "classify", "--X", "3/7", "--Y=-2/5"], 0),
    (["fibers", "classify", "--X", "4/15", "--Y", "64/27"], 0),   # II at y = 1
    (["invert", "--X", "1/10", "--Y", "1/10", "--guess", "0.2+1.1i,-0.3+1.5i"], 0),
    (["invert", "--X", "0.9", "--Y", "0.1", "--guess", "1i,1i"], 1),
    (["series", "jfunction", "--order", "12"], 0),
    (["series", "hypergeom", "--order", "6", "--upper", "1/6,1/2,5/6", "--lower", "1,1"], 0),
    # last: runs at the CPU affinity the script started with
    (["--format", "csv", "--stable-output", "verify", "all"], 0),
]

# module.qualname -> why its statements may stay unreached
ALLOWED = {
    "pde.Quotient.evaluate": "the exact benchmark's Taylor-basis checker calls it",
    "fibrations.kodaira_type":
        "the standard table; the rows III, IV, I0* and II* type no fiber of a "
        "`fibers classify` point in RUNS",
    "polynomials.RationalFunction._of":
        "the gcd split of a square-free factor that divides the numerator only in part "
        "keeps every result in lowest terms; no command's arithmetic meets such a factor",
}


@dataclass(frozen=True)
class Statement:
    path: str
    line: int           # first line, for the listing
    lines: frozenset    # its own lines that hold bytecode
    function: str       # module.qualname of the function whose body holds it
    text: str


def _own_lines(stmt: ast.stmt) -> set[int]:
    """The lines of ``stmt`` that are not lines of a statement nested in it."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    lines = set(range(start, stmt.end_lineno + 1))
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(stmt, field, []):
            lines -= set(range(child.lineno, child.end_lineno + 1))
    return lines


def _code_lines(code) -> set[int]:
    """Lines that hold bytecode in ``code`` and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path, module: str) -> list[Statement]:
    """Every statement in a function body of ``path`` that a run is expected
    to reach: not a docstring, not a ``raise``, not in an ``except`` body,
    and holding bytecode (a ``global`` holds none)."""
    source = path.read_text()
    text = source.splitlines()
    executable = _code_lines(compile(source, str(path), "exec"))
    found = []

    def walk(body, prefix, function):
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + stmt.name
                inner = stmt.body[1:] if ast.get_docstring(stmt) is not None else stmt.body
                walk(inner, qualname + ".<locals>.", f"{module}.{qualname}")
            elif isinstance(stmt, ast.ClassDef):
                walk(stmt.body, prefix + stmt.name + ".", None)
            else:
                for field in ("body", "orelse", "finalbody"):
                    walk(getattr(stmt, field, []), prefix, function)
            if function is None or isinstance(stmt, ast.Raise):
                continue
            lines = _own_lines(stmt) & executable
            if lines:
                found.append(Statement(str(path), stmt.lineno, frozenset(lines), function,
                                       text[stmt.lineno - 1].strip()))

    walk(ast.parse(source, str(path)).body, "", None)
    return sorted(found, key=lambda s: s.line)


def traced_lines(run, prefix: str) -> set[tuple[str, int]]:
    """(file, line) of every line event in a file under ``prefix`` while
    ``run()`` runs, the file as a resolved path."""
    hits = set()

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local(frame, event, arg) if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return {(str(Path(f).resolve()), line) for f, line in hits}


def run_commands(runs) -> list[str]:
    """Run each command of ``runs``, pinned to one CPU but the last; return
    those that did not end with their exit code."""
    failed = []
    start_cpus = os.sched_getaffinity(0)
    sys.path.insert(0, str(SRC))
    from hilbert_k3 import cli
    try:
        for k, (argv, want) in enumerate(runs):
            os.sched_setaffinity(0, start_cpus if k == len(runs) - 1 else {min(start_cpus)})
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != want:
                failed.append(f"{' '.join(argv)} (exit {code}, want {want})")
    finally:
        os.sched_setaffinity(0, start_cpus)
    return failed


def unreached(stmts, hits) -> list[Statement]:
    return [s for s in stmts if not any((s.path, line) in hits for line in s.lines)]


def main() -> int:
    stmts = [s for path in sorted(PACKAGE.glob("*.py")) for s in statements(path, path.stem)]
    failed = []
    hits = traced_lines(lambda: failed.extend(run_commands(RUNS)), str(PACKAGE))
    missed = unreached(stmts, hits)
    listed = [s for s in missed if s.function not in ALLOWED]
    # an allowlist entry that is gone or now reached would hide nothing; drop it
    stale = sorted(set(ALLOWED) - {s.function for s in missed})
    for run in failed:
        print(f"run failed: {run}")
    for s in listed:
        print(f"unreached: {Path(s.path).name}:{s.line} {s.function}: {s.text}")
    for name in stale:
        print(f"allowlisted but reached or not defined: {name}")
    print(f"{len(stmts)} statements, {len(listed)} unreached, "
          f"{len(ALLOWED)} functions allowlisted, {len(RUNS)} runs")
    return 1 if failed or listed or stale else 0


if __name__ == "__main__":
    sys.exit(main())
