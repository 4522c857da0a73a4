"""Mutants of the term table: each must make the algebra suites fail.

Every mutant replaces one `dynops.TERMS` entry for the length of a test, by
monkeypatching the table; nothing in the package knows about mutants.  A
mutant is killed when `commutator_suite` plus `basis_suite` on the default
lattice report at least one unexpected failure: a relation that neither
passes, nor is inconclusive, nor is flagged in `cli.DEFAULT_EXPECTED_FAIL`.
"""

import pytest

from besselbeams import cli, dynops
from besselbeams.verify import basis_suite, commutator_suite


def _unexpected_failures():
    lat = cli.RunConfig().lattice()
    results = commutator_suite(lat) + basis_suite(lat)
    return [
        r.name for r in results
        if not r.passed and not r.inconclusive and r.name not in cli.DEFAULT_EXPECTED_FAIL
    ]


def _factor(name, mutate):
    """TERMS[name] with every node factor f replaced by mutate(f)."""
    return tuple((bilinear, mutate(factor)) for bilinear, factor in dynops.TERMS[name])


def _scaled(name, x):
    return _factor(name, lambda f: lambda n: x * f(n))


def _rows(name, mutate):
    """TERMS[name] with the rows of every bilinear replaced by mutate(rows)."""
    return tuple((mutate(bilinear), factor) for bilinear, factor in dynops.TERMS[name])


def _each_row(mutate):
    return lambda rows: tuple(mutate(*row) for row in rows)


MUTANTS = {
    **{f"{name} x 1.001": (name, _scaled(name, 1.001))
       for name in ("energy", "P+", "P3", "L+", "L3", "S+", "S3")},
    **{f"{name} x -1": (name, _scaled(name, -1.0)) for name in ("P+", "S+", "S3")},
    "Lambda+ without its -1/2": (
        "L+", _rows("L+", _each_row(lambda r, c, s, c0, c1: (r, c, s, 0, c1)))),
    "Lambda+ slope negated": (
        "L+", _rows("L+", _each_row(lambda r, c, s, c0, c1: (r, c, s, c0, -c1)))),
    "Sigma+ first row sign flipped": (
        "S+", _rows("S+", lambda rows: ((*rows[0][:3], -rows[0][3], rows[0][4]),) + rows[1:])),
    "S+ k_perp swapped for k_z": (
        "S+", _factor("S+", lambda f: lambda n: f(n) * n.kz / n.kp)),
    "L+ k_z/k_perp inverted": (
        "L+", _factor("L+", lambda f: lambda n: n.hbar * n.kp / n.kz)),
    "S3 k_z swapped for k_perp": (
        "S3", _factor("S3", lambda f: lambda n: f(n) * n.kp / n.kz)),
}


def test_unmutated_table_has_no_unexpected_failure():
    assert _unexpected_failures() == []


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_is_killed(mutant, monkeypatch):
    name, entry = MUTANTS[mutant]
    assert entry != dynops.TERMS[name]
    monkeypatch.setitem(dynops.TERMS, name, entry)
    assert _unexpected_failures(), f"{mutant} survives the algebra suites"
