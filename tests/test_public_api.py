"""A guard against library code that only tests call.

Every public top-level function of ``src/cocyclib``, and every public method
and property of its classes, must be exported from the package, referenced
by name from library code (its own module included), a script or the
benchmark, or named in the benchmark tracer's ``FUNCTIONS`` or ``METHODS``
table.  A helper that meets none of these is reached only from the tests;
it belongs in the tests as a reference, or nowhere.  ``fixtures.py`` holds
the example systems that the tests share and is exempt.  Everything is read
with ``ast``, so a name in a comment or a string does not count as a use.

Matching is by name, not by owner: a method counts as used when any code
reads an attribute of that name.  So a method named like one in use
elsewhere passes unseen, such as an ``at`` beside ``_Transport.at`` or a
``to_jsonable`` beside the reports that the CLI serializes; those are found
and deleted by hand.
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


def _tracer_table(name: str) -> list[tuple]:
    """The rows of the table ``name`` in ``perfbench/tracing.py``."""
    for node in _tree(ROOT / "perfbench" / "tracing.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/tracing.py defines no {name} table")


def _allowed() -> set[str]:
    modules = [_tree(p) for p in sorted(PACKAGE.glob("*.py"))]
    callers = modules + [
        _tree(p) for d in ("scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    return (_exported() | {row[1] for row in _tracer_table("FUNCTIONS")}
            | {row[2] for row in _tracer_table("METHODS")}
            | set().union(*map(_names_used, callers)))


def _public_defs(body) -> list[str]:
    return [node.name for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def _library() -> dict[str, ast.Module]:
    return {p.stem: _tree(p) for p in sorted(PACKAGE.glob("*.py")) if p.name not in EXEMPT}


def test_every_public_function_has_a_caller_outside_the_tests():
    allowed = _allowed()
    uncalled = [f"{module}.{name}" for module, tree in _library().items()
                for name in _public_defs(tree.body) if name not in allowed]
    assert not uncalled, f"public functions that only the tests call: {uncalled}"


def test_every_public_method_has_a_caller_outside_the_tests():
    allowed = _allowed()
    uncalled = [f"{module}.{cls.name}.{name}" for module, tree in _library().items()
                for cls in tree.body if isinstance(cls, ast.ClassDef)
                for name in _public_defs(cls.body) if name not in allowed]
    assert not uncalled, f"public methods and properties that only the tests call: {uncalled}"
