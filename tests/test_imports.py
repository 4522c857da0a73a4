"""No module of the package imports a name it never uses.

An import that exists only for perfbench/tracing.py, which wraps the name
in the importing module's dict, carries ``# noqa: F401`` on its own line.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "besselbeams"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# imported only for the tracer to find them at these sites
PERFBENCH_PINS = {
    ("cli", "build_stokes"),
    ("cli", "expansion_coefficients"),
    ("cli", "_spherical_wave_pair"),
    ("dynops", "commutator"),
    ("modes", "bessel_j_over_x"),
}


def _imports(tree):
    """(bound name, line of its alias) for every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.split(".")[0], a.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, a.lineno


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [(name, line) for name, line in _imports(tree) if name not in used]
    exempt = {name for name, line in unused if "# noqa: F401" in lines[line - 1]}
    assert [u for u in unused if u[0] not in exempt] == []
    assert {(path.stem, name) for name in exempt} <= PERFBENCH_PINS
