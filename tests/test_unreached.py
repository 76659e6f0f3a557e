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
    stmts = tool.statements(path, "synthetic")
    assert [s.text for s in stmts] == ["try:", "y = 1 / x", "if x < 0:", "if x > 10:",
                                       "y = -y", "return y"]
    hits = tool.traced_lines(lambda: module.f(2), str(root))
    assert [(s.function, s.line, s.text) for s in tool.unreached(stmts, hits)] == [
        ("synthetic.f", 11, "y = -y")]
