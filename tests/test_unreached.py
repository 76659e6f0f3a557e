import importlib
import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unreached.py"

SYNTHETIC = '''
def f(x):
    """A docstring is not a statement."""
    try:
        y = 1 / x
    except ZeroDivisionError:
        y = 0
    if x < 0:
        raise ValueError("negative")
    if x > 10:
        y = -y
    return y
'''


def _tool():
    spec = importlib.util.spec_from_file_location("unreached", TOOL)
    tool = importlib.util.module_from_spec(spec)
    sys.modules["unreached"] = tool   # the tool's dataclass looks its module up
    spec.loader.exec_module(tool)
    return tool


def test_lists_the_unreached_plain_statement_only(tmp_path, monkeypatch):
    """f(2) skips one plain statement, an except body and a raise: only the
    plain statement is listed, and the docstring is no statement at all."""
    tool = _tool()
    root = tmp_path.resolve()
    path = root / "synthetic.py"
    path.write_text(SYNTHETIC)
    monkeypatch.syspath_prepend(str(root))
    module = importlib.import_module("synthetic")
    stmts = tool.sites(path, "synthetic")[0]
    assert [s.text for s in stmts] == ["try:", "y = 1 / x", "if x < 0:", "if x > 10:",
                                       "y = -y", "return y"]
    hits = tool.traced_lines(lambda: module.f(2), str(root))
    assert [(s.function, s.line, s.text) for s in tool.unreached(stmts, hits)] == [
        ("synthetic.f", 11, "y = -y")]


ARMS = '''
def g(x, xs):
    a = 1 if x > 0 else -1
    b = x or len(xs)
    c = [y for y in xs if y > 100]
    e = {k:
         k * 2 for k in xs if k > 1}
    try:
        d = 1 / x
    except ZeroDivisionError:
        d = 0 if x == 0 else 1
    if x < 0 and not xs:
        raise ValueError("negative")
    return a, b, c, d, e
'''


def test_lists_the_untaken_arms_only(tmp_path, monkeypatch):
    """g(2, [1, 2]) takes neither the else of a conditional expression, nor
    the second operand of an or, nor the element of a comprehension whose
    filter never passes, nor the second operand of the and in the test of an
    if whose body only raises: those four are listed.  The arm in an except
    body is not an arm a run is expected to reach; the taken body and the
    two-line element of a dict comprehension are reached."""
    tool = _tool()
    root = tmp_path.resolve()
    path = root / "synthetic_arms.py"
    path.write_text(ARMS)
    monkeypatch.syspath_prepend(str(root))
    module = importlib.import_module("synthetic_arms")
    arms = tool.sites(path, "synthetic_arms")[1]
    assert [(a.function, a.text) for a in arms] == [
        ("synthetic_arms.g", "1"), ("synthetic_arms.g", "-1"),
        ("synthetic_arms.g", "len(xs)"), ("synthetic_arms.g", "y"),
        ("synthetic_arms.g", "k: k * 2"), ("synthetic_arms.g", "not xs")]
    hits = tool.traced_lines(lambda: module.g(2, [1, 2]), str(root), arms)
    assert [(a.line, a.text) for a in tool.unreached(arms, hits)] == [
        (3, "-1"), (4, "len(xs)"), (5, "y"), (12, "not xs")]


def test_an_allowlist_entry_that_hides_nothing_is_stale(tmp_path, monkeypatch):
    """Under g(2, [1, 2]), an allowlisted arm that the run takes and an
    allowlisted function that is not defined are stale; an allowlisted arm
    that stays unreached is neither stale nor listed."""
    tool = _tool()
    root = tmp_path.resolve()
    path = root / "synthetic_stale.py"
    path.write_text(ARMS)
    monkeypatch.syspath_prepend(str(root))
    module = importlib.import_module("synthetic_stale")
    stmts, arms = tool.sites(path, "synthetic_stale")
    hits = tool.traced_lines(lambda: module.g(2, [1, 2]), str(root), arms)
    allowed = {"synthetic_stale.h": "not defined"}
    allowed_arms = {("synthetic_stale.g", "1"): "taken", ("synthetic_stale.g", "-1"): "untaken"}
    listed, listed_arms, stale = tool.findings(stmts, arms, hits, allowed, allowed_arms)
    assert listed == []
    assert [a.text for a in listed_arms] == ["len(xs)", "y", "not xs"]
    assert stale == ["synthetic_stale.h", "synthetic_stale.g: 1"]
