"""A guard against library code that only tests call.

Every public top-level function of ``src/cocyclib`` must be exported from
the package, referenced by name from library code (its own module
included), a script or the benchmark, or named in the benchmark tracer's
``FUNCTIONS`` table.  A helper that meets none of these is reached only
from the tests; it belongs in the tests as a reference, or nowhere.
``fixtures.py`` holds the example systems that the tests share and is
exempt.  Everything is read with ``ast``, so a name in a comment or a
string does not count as a use.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cocyclib"
EXEMPT = {"fixtures.py"}


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _names_used(tree: ast.Module) -> set[str]:
    """Every name that the module reads, as a bare name, an attribute or an
    imported name."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _exported() -> set[str]:
    return {alias.name for node in ast.walk(_tree(PACKAGE / "__init__.py"))
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _traced() -> set[str]:
    """The function names of ``perfbench/tracing.FUNCTIONS``."""
    for node in _tree(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return {attr for _, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracing.py defines no FUNCTIONS table")


def test_every_public_function_has_a_caller_outside_the_tests():
    modules = {p: _tree(p) for p in sorted(PACKAGE.glob("*.py"))}
    callers = list(modules.values()) + [
        _tree(p) for d in ("scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    allowed = _exported() | _traced() | set().union(*map(_names_used, callers))
    uncalled = [f"{path.stem}.{node.name}" for path, tree in modules.items()
                if path.name not in EXEMPT for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and not node.name.startswith("_") and node.name not in allowed]
    assert not uncalled, f"public functions that only the tests call: {uncalled}"
