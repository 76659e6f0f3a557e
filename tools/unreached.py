"""List the statements and arms of ``src/hilbert_k3`` functions that no CLI command runs.

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

It also prints every arm, the body or ``else`` of a conditional expression,
an ``and``/``or`` operand after the first or the element of a filtered
comprehension, in whose source span no executed instruction (``opcode``
event, ``co_positions``) lay.  Arms are exempt where statements are and in
``ALLOWED_ARMS``; an arm in the test of an ``if`` whose body only raises is
listed like any other, since that test runs on the normal path.

Each run names the exit code it must end with: 0 for a passing command, 1
for a command that prints a JSON error, 2 for a usage error.  ``sys.settrace``
sees only this process, and ``verify all`` forks one worker process per CPU
that ``os.sched_getaffinity`` reports, so for every run but the last the
script makes it report one CPU, and those runs' suites run here, under the
tracer.  For the last run it reports two, whatever the machine has, so that
run reaches the parent's side of ``run_suites``: the queue pipe, the forks,
the reading of the reports and the reaping of the workers.  The workers' own
loop is allowlisted.  ``os.sched_getaffinity`` is Linux's, and the spans
need Python 3.11.

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
    (["forms", "eval", "--z1", "0.2+5i", "--z2=-0.3+0.1i"], 0),   # shift (0, 1) peaks in row 1
    (["--format", "csv", "verify", "klein"], 0),
    (["fibers", "classify", "--X", "1", "--Y", "1"], 0),
    (["fibers", "classify", "--X", "0", "--Y", "0"], 0),
    (["fibers", "classify", "--X", "0", "--Y=-64"], 0),
    (["fibers", "classify", "--X", "1", "--Y", "0"], 0),
    (["fibers", "classify", "--X", "3/7", "--Y=-2/5"], 0),
    (["fibers", "classify", "--X", "4/15", "--Y", "64/27"], 0),   # II at y = 1
    (["invert", "--X", "1/10", "--Y", "1/10", "--guess", "0.2+1.1i,-0.3+1.5i"], 0),
    (["invert", "--X", "0.9", "--Y", "0.1", "--guess", "1i,1i"], 1),
    (["invert", "--X", "0", "--Y", "0", "--guess", "0.2+1.1i,-0.3+1.5i"], 1),  # linear convergence
    (["series", "jfunction", "--order", "12"], 0),
    (["series", "hypergeom", "--order", "6", "--upper", "1/6,1/2,5/6", "--lower", "1,1"], 0),
    # last: runs with two CPUs reported, so verify all forks two workers
    (["--format", "csv", "--stable-output", "verify", "all"], 0),
]

# module.qualname -> why its statements may stay unreached
ALLOWED = {
    "pde._BaseFraction.evaluate": "the exact benchmark's Taylor-basis checker calls it",
    "verify._claim_suites": "runs only in forked workers; `sys.settrace` does not follow `fork`",
}

# (module.qualname, the arm's source text) -> why the arm may stay unreached
FAILED = "the report of a failing check; every check of every run passes"
ALLOWED_ARMS = {
    ("cli.cmd_verify", '"fail"'): FAILED,
    ("cli.cmd_verify", "1"): FAILED,
    ("verify.CheckResult.as_dict", '"fail"'): FAILED,
    ("verify.VerificationReport.as_dict", '"fail"'): FAILED,
    ("periods.verify_clausen_and_S", "-1"): FAILED,
    ("lattice.action_residuals", "name: mpmath.nstr(r, 3)"): "the message of the raise below",
    ("verify.run_suites", "_claim_suites(queue, w, names, policy, seed)"): "in the forked child",
    ("verify.run_suites", "s"): "the exit status of a worker that died",
    ("verify.run_suites", 'VerificationReport(name, [CheckResult("error", False, residual, ms)])'):
        "the report of a suite whose worker died",
    # exact arithmetic over Q defines these for every operand, zero and non-integral ones too
    ("polynomials.SparsePoly.divmod_exact", "Fraction(c) / d_coeff"):
        "a quotient coefficient outside Z: a Fraction term, or a leading coefficient not +-1",
    ("polynomials.FormalSeries.valuation", "self.prec"):
        "a series that vanishes to its precision has valuation at least prec, as products read it",
    ("polynomials.FormalSeries.multiply_rational", "0"):
        "f = 0, whose numerator has no valuation: the product is zero, known as far as self is",
}


@dataclass(frozen=True)
class Site:
    """A statement or an arm, reached when a hit of the trace is among its keys."""
    path: str
    line: int           # first line, for the listing
    keys: frozenset     # (path, line) of its own lines with bytecode, or an arm's (path, span)
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


def _arms(stmt: ast.stmt, lines: list[bytes], path: str, function: str) -> list[Site]:
    """The arms in the expressions of ``stmt``; ``lines`` are the file's, in bytes."""
    found = []
    for node in (n for child in ast.iter_child_nodes(stmt)
                 if not isinstance(child, (ast.stmt, ast.excepthandler)) for n in ast.walk(child)):
        filtered = any(gen.ifs for gen in getattr(node, "generators", ()))
        arms = ([[node.body], [node.orelse]] if isinstance(node, ast.IfExp)
                else [[value] for value in node.values[1:]] if isinstance(node, ast.BoolOp)
                else [[node.key, node.value]] if isinstance(node, ast.DictComp) and filtered
                else [[node.elt]] if filtered else [])
        for nodes in arms:   # a dict comprehension's element is its key and its value
            span = (nodes[0].lineno, nodes[0].col_offset, nodes[-1].end_lineno,
                    nodes[-1].end_col_offset)
            block = b"\n".join(lines[span[0] - 1:span[2]])
            text = block[span[1]:len(block) - len(lines[span[2] - 1]) + span[3]].decode()
            found.append(Site(path, span[0], frozenset({(path, span)}), function,
                              " ".join(text.split())))
    return found


def sites(path: Path, module: str) -> tuple[list[Site], list[Site]]:
    """The statements and the arms in function bodies of ``path`` that a run
    is expected to reach: not a docstring, a ``raise`` or in an ``except`` body,
    and a statement holds bytecode (a ``global`` holds none)."""
    file, source = str(path), path.read_text()
    text, raw = source.splitlines(), source.encode().splitlines()
    executable = _code_lines(compile(source, file, "exec"))
    stmts, arms = [], []

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
                stmts.append(Site(file, stmt.lineno, frozenset((file, line) for line in lines),
                                  function, text[stmt.lineno - 1].strip()))
            arms.extend(_arms(stmt, raw, file, function))

    walk(ast.parse(source, file).body, "", None)
    return sorted(stmts, key=lambda s: s.line), sorted(arms, key=lambda a: min(a.keys))


def traced_lines(run, prefix: str, arms=()) -> set:
    """The hits while ``run()`` runs: (file, line) of every line event in a
    file under ``prefix``, the file as a resolved path, and the key of every
    arm of ``arms`` that an executed instruction lies in."""
    lines, hits, local = set(), set(), {}

    def local_trace(code):
        """The local trace function of ``code``, which traces opcodes only on
        a line that holds an instruction of an arm not yet taken."""
        path = str(Path(code.co_filename).resolve())
        spans = [span for arm in arms for file, span in arm.keys if file == path]
        at_offset, at_line = {}, {}   # keys of the arms an instruction, a line holds
        for i, (line, end_line, col, end_col) in enumerate(code.co_positions()):
            keys = [(path, span) for span in spans if col is not None
                    and span[:2] <= (line, col) and (end_line, end_col) <= span[2:]]
            if keys:
                at_offset[2 * i] = keys   # one position per 2-byte code unit
                at_line.setdefault(line, set()).update(keys)

        def trace_code(frame, event, arg):
            if event == "line":
                lines.add((code.co_filename, frame.f_lineno))
                if at_line:
                    frame.f_trace_opcodes = not hits.issuperset(at_line.get(frame.f_lineno, ()))
            elif event == "opcode":
                hits.update(at_offset.get(frame.f_lasti, ()))
            return trace_code
        return trace_code

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(prefix):
            return local.get(code) or local.setdefault(code, local_trace(code))

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return hits | {(str(Path(f).resolve()), line) for f, line in lines}


def run_commands(runs) -> list[str]:
    """Run each command of ``runs``; return those that did not end with their
    exit code.  ``os.sched_getaffinity`` reports one CPU for every run but the
    last and two for the last, whatever the machine has, and is restored
    afterwards."""
    failed = []
    sys.path.insert(0, str(SRC))
    from hilbert_k3 import cli
    getaffinity = os.sched_getaffinity
    try:
        for k, (argv, want) in enumerate(runs):
            cpus = {0, 1} if k == len(runs) - 1 else {0}
            os.sched_getaffinity = lambda pid, cpus=cpus: set(cpus)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code != want:
                failed.append(f"{' '.join(argv)} (exit {code}, want {want})")
    finally:
        os.sched_getaffinity = getaffinity
    return failed


def unreached(sites, hits) -> list[Site]:
    return [s for s in sites if not s.keys & hits]


def findings(stmts, arms, hits, allowed, allowed_arms) -> tuple[list[Site], list[Site], list[str]]:
    """The unreached statements and arms that ``allowed`` (functions) and
    ``allowed_arms`` do not exempt, and the entries of either that hide
    nothing, because what they name is reached or not defined."""
    missed_arms = [a for a in unreached(arms, hits) if a.function not in allowed]
    listed = [s for s in unreached(stmts, hits) if s.function not in allowed]
    listed_arms = [a for a in missed_arms if (a.function, a.text) not in allowed_arms]
    stale = sorted(set(allowed) - {s.function for s in unreached(stmts + arms, hits)})
    stale += sorted(f"{f}: {t}" for f, t in
                    set(allowed_arms) - {(a.function, a.text) for a in missed_arms})
    return listed, listed_arms, stale


def main() -> int:
    found = [sites(path, path.stem) for path in sorted(PACKAGE.glob("*.py"))]
    stmts, arm_sites = [s for f, _ in found for s in f], [a for _, f in found for a in f]
    failed = []
    hits = traced_lines(lambda: failed.extend(run_commands(RUNS)), str(PACKAGE), arm_sites)
    listed, listed_arms, stale = findings(stmts, arm_sites, hits, ALLOWED, ALLOWED_ARMS)
    for run in failed:
        print(f"run failed: {run}")
    for kind, listing in (("unreached", listed), ("unreached arm", listed_arms)):
        for s in listing:
            print(f"{kind}: {Path(s.path).name}:{s.line} {s.function}: {s.text}")
    for name in stale:
        print(f"allowlisted but reached or not defined: {name}")
    print(f"{len(stmts)} statements, {len(listed)} unreached; {len(arm_sites)} arms, "
          f"{len(listed_arms)} unreached; {len(ALLOWED)} functions and "
          f"{len(ALLOWED_ARMS)} arms allowlisted; {len(RUNS)} runs")
    return 1 if failed or listed or listed_arms or stale else 0


if __name__ == "__main__":
    sys.exit(main())
