import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names():
    """TRACED from perfbench/tracer.py, read as a literal, without import."""
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("TRACED not found in perfbench/tracer.py")


def test_traced_functions_resolve():
    # the benchmark's --trace 1 wraps each of these at install time
    names = traced_names()
    assert names
    for modname, fname, _ in names:
        mod = importlib.import_module(f"burgess.{modname}")
        assert callable(getattr(mod, fname, None)), f"burgess.{modname}.{fname}"
