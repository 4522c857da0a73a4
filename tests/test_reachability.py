"""Every function, class and method of the package is reached from outside
the tests.

A top-level function or class, or a non-dunder method, of
``src/besselbeams`` counts as reached when its name appears elsewhere: in
``src/`` as an AST ``Name`` or ``Attribute`` (its own ``def`` or ``class``
line is neither), or in ``perfbench/`` as a ``Name``, an ``Attribute``, an
imported name or a string constant (the benchmark's tracer looks names up
by string).  Demos are examples, not callers: code that only tests or
demos reach is deleted, or listed in ``ALLOWED`` with its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "besselbeams"

ALLOWED = {
    # the closed-form radial kernel kept for the radial-integral work on the roadmap
    "lommel_overlap",
    "lommel_overlap_equal",
}


def _trees(directory):
    return [ast.parse(p.read_text(encoding="utf-8")) for p in sorted(directory.rglob("*.py"))]


def _definitions(tree):
    """Names of the module's top-level functions and classes and of their
    non-dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield item.name


def _uses(tree, *, outside):
    """Names `tree` refers to; `outside` adds imported names and string
    constants, for code outside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif outside and isinstance(node, ast.alias):
            yield node.name
        elif outside and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_named_outside_the_tests():
    package = _trees(PACKAGE)
    used = {name for tree in package for name in _uses(tree, outside=False)}
    used |= {name for tree in _trees(ROOT / "perfbench") for name in _uses(tree, outside=True)}
    defined = {name for tree in package for name in _definitions(tree)}
    assert sorted(defined - used - ALLOWED) == []
    assert sorted(ALLOWED - defined) == []
