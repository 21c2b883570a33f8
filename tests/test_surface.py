"""``src`` holds only what the product runs.

Every module-level function or class of ``src/approvalwd`` must be referenced
by ``src`` code other than its own definition: a name, an attribute or an
import in the syntax tree, so a mention in a comment or docstring does not
count.  Code that only tests call belongs in ``tests/helpers.py``.  Two
allowances: the package's ``__all__``, and the names that perfbench's tracer
looks up in its ``TARGETS``, which must exist until a benchmark change stops
naming them.
"""

import ast
from pathlib import Path

import approvalwd

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "approvalwd"
TRACING = ROOT / "perfbench" / "tracing.py"


def _referenced(node):
    """The names that ``node``'s code refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced(package):
    """(module, name) of each module-level function or class of the package's
    modules that no code of the package refers to outside its own definition."""
    tops = [(path.stem, node)
            for path in sorted(package.glob("*.py"))
            for node in ast.parse(path.read_text(), str(path)).body]
    refs = [_referenced(node) for _, node in tops]
    return {
        (module, node.name)
        for i, (module, node) in enumerate(tops)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(node.name in names for j, names in enumerate(refs) if j != i)
    }


def traced_names():
    """The function and class names of the tracer's ``TARGETS``, read off its
    source: ``Class.method`` entries name the class."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return {attr.split(".")[0] for _, attr, _, _ in ast.literal_eval(node.value)}
    raise AssertionError(f"no TARGETS in {TRACING}")


def test_src_holds_only_what_the_product_runs():
    allowed = set(approvalwd.__all__) | traced_names()
    stray = sorted(f"{module}.{name}" for module, name in unreferenced(PACKAGE)
                   if name not in allowed)
    assert not stray, f"only tests reach {stray}: move them to tests/helpers.py"


def test_the_guard_sees_code_and_not_prose(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""Mentions orphan() and Lonely in prose only."""\n'
        "def used():\n    return 1\n\n"
        "def orphan():  # helper(), used()\n    return orphan()\n\n"
        "class Lonely:\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from .a import used\n\n"
        "def caller():\n    return used() + helper.attr\n\n"
        "def helper():\n    return caller\n")
    assert unreferenced(tmp_path) == {("a", "orphan"), ("a", "Lonely")}
