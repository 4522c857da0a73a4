"""Mutants of the tables and formulas that the suites check: each must make
a suite fail.

Every mutant replaces one table entry or function for the length of a test,
by monkeypatching; nothing in the package knows about mutants.  A mutant is
killed when the suites it reaches report at least one unexpected failure: a
relation that neither passes, nor is inconclusive, nor is flagged in
`cli.DEFAULT_EXPECTED_FAIL`.
"""

import operator

import pytest

from besselbeams import cli, dynops, modes, verify
from besselbeams.lattice import build_lattice
from besselbeams.modes import TE
from besselbeams.verify import (
    basis_suite, commutator_suite, energy_per_photon_check, quadrature_suite, spherical_suite,
)


def _unexpected(results):
    return [
        r.name for r in results
        if not r.passed and not r.inconclusive and r.name not in cli.DEFAULT_EXPECTED_FAIL
    ]


def _unexpected_failures():
    lat = cli.RunConfig().lattice()
    return _unexpected(commutator_suite(lat) + basis_suite(lat))


def _edited(monomial, scale=1.0, shifts=(0, 0, 0, 0, 0)):
    """The node-factor monomial (q, powers) as (scale q, powers + shifts)."""
    q, powers = monomial
    return scale * q, tuple(map(operator.add, powers, shifts))


def _factor(name, scale=1.0, shifts=(0, 0, 0, 0, 0)):
    """TERMS[name] with every node factor edited by `_edited`."""
    return tuple((bilinear, _edited(factor, scale, shifts))
                 for bilinear, factor in dynops.TERMS[name])


def _rows(name, mutate):
    """TERMS[name] with the rows of every bilinear replaced by mutate(rows)."""
    return tuple((mutate(bilinear), factor) for bilinear, factor in dynops.TERMS[name])


def _each_row(mutate):
    return lambda rows: tuple(mutate(*row) for row in rows)


MUTANTS = {
    **{f"{name} x 1.001": (name, _factor(name, 1.001))
       for name in ("energy", "P+", "P3", "L+", "L3", "S+", "S3")},
    **{f"{name} x -1": (name, _factor(name, -1.0)) for name in ("P+", "S+", "S3")},
    "Lambda+ without its -1/2": (
        "L+", _rows("L+", _each_row(lambda r, c, s, c0, c1: (r, c, s, 0, c1)))),
    "Lambda+ slope negated": (
        "L+", _rows("L+", _each_row(lambda r, c, s, c0, c1: (r, c, s, c0, -c1)))),
    "Sigma+ first row sign flipped": (
        "S+", _rows("S+", lambda rows: ((*rows[0][:3], -rows[0][3], rows[0][4]),) + rows[1:])),
    # exponent shifts in (hbar, c, k_perp, k_z, w) order
    "S+ k_perp swapped for k_z": ("S+", _factor("S+", shifts=(0, 0, -1, 1, 0))),
    "L+ k_z/k_perp inverted": ("L+", _factor("L+", shifts=(0, 0, 2, -2, 0))),
    "S3 k_z swapped for k_perp": ("S3", _factor("S3", shifts=(0, 0, 1, -1, 0))),
}


def test_unmutated_table_has_no_unexpected_failure():
    assert _unexpected_failures() == []


@pytest.mark.parametrize("mutant", list(MUTANTS))
def test_mutant_is_killed(mutant, monkeypatch):
    name, entry = MUTANTS[mutant]
    assert entry != dynops.TERMS[name]
    monkeypatch.setitem(dynops.TERMS, name, entry)
    assert _unexpected_failures(), f"{mutant} survives the algebra suites"


# Mutants of the mode vectors, basis maps, spherical harmonics and envelope
# formulas.  Each applies itself to a monkeypatch and names suites to run:
# for a killed mutant the cheapest suite that kills it, for a survivor every
# suite that reads what it changes.

_mode_terms = modes.mode_terms
_vsh_grid, _lplus_analytic = verify._vsh_grid, verify._lplus_analytic

SUITES = {
    "basis": lambda: basis_suite(cli.RunConfig().lattice()),
    "quadrature": quadrature_suite,
    # the one relation of the quadrature suite that reads FIELD_RULE
    "energy per photon": lambda: [energy_per_photon_check()],
    "spherical": spherical_suite,
}


def _term(vector, index, mutate):
    """Patch mode_terms, in modes and in verify, so that term `index` of the
    `vector` table ("M" or "N") becomes mutate(pol, order, coeff)."""
    def mutated(which, *args, **kwargs):
        table = _mode_terms(which, *args, **kwargs)
        if which != vector:
            return table
        return table[:index] + (mutate(*table[index]),) + table[index + 1:]

    def apply(mp):
        mp.setattr(modes, "mode_terms", mutated)
        mp.setattr(verify, "mode_terms", mutated)
    return apply


def _field_rule(key, value):
    return lambda mp: mp.setitem(modes.FIELD_RULE, key, value)


def _attr(owner, name, replacement):
    return lambda mp: mp.setattr(owner, name, replacement)


KILLED = {
    "M e- coefficient x 1.001": (
        _term("M", 0, lambda p, o, c: (p, o, 1.001 * c)), ("quadrature",)),
    "M e- order m+1 -> m+2": (
        _term("M", 0, lambda p, o, c: (p, o + 1, c)), ("spherical",)),  # and 5 quadrature rows
    "N e- coefficient x 1.001": (
        _term("N", 0, lambda p, o, c: (p, o, 1.001 * c)), ("spherical",)),
    "N e- sign flipped": (
        _term("N", 0, lambda p, o, c: (p, o, -c)), ("spherical",)),
    "_pair_blocks beta x 1.001": (
        lambda mp: mp.setitem(dynops.PAIR_BETA, "R/L", _edited(dynops.PAIR_BETA["R/L"], 1.001)),
        ("basis",)),
    "Y^E x 1.001 in _vsh_grid": (
        _attr(verify, "_vsh_grid",
              lambda *args: (lambda ye, ym: (1.001 * ye, ym))(*_vsh_grid(*args))), ("spherical",)),
    # Flipping the sign of Y^M is an equivalent mutant, so it is not listed:
    # the sign cancels between the projection onto Y^M and the reconstruction
    # from it.
}

# Survivors, with the residuals each leaves.  No relation reads the TE rows
# of FIELD_RULE, because the energy-per-photon packet is TM.
SURVIVORS = {
    "N e3 coefficient x 1.001": (
        _term("N", 2, lambda p, o, c: (p, o, 1.001 * c)), ("quadrature", "spherical"),
        "residuals up to 5.0e-4 (int N x M'* e-/e+ rows) and 4.4e-4 (spherical "
        "reconstruction), under tol.quadrature = tol.spherical = 1e-3"),
    "FIELD_RULE E TE sign flipped": (
        _field_rule(("E", TE), ("M", operator.pos)), ("energy per photon",),
        "the TM packet reads no TE row; the residual stays 1.1e-12"),
    "FIELD_RULE B TE set to M": (
        _field_rule(("B", TE), ("M", operator.pos)), ("energy per photon",),
        "the TM packet reads no TE row; the residual stays 1.1e-12"),
    "_lplus_analytic x 1.001": (
        _attr(verify, "_lplus_analytic", lambda *args: 1.001 * _lplus_analytic(*args)),
        ("quadrature",),
        "the L+ element and its reflected companion move to 9.99e-4, under tol.quadrature = 1e-3"),
}


def _suite_failures(apply, suites, monkeypatch):
    apply(monkeypatch)
    return [name for suite in suites for name in _unexpected(SUITES[suite]())]


def test_unmutated_fields_have_no_unexpected_failure(default_quadrature):
    results, _ = default_quadrature
    assert _unexpected(results + spherical_suite()) == []


@pytest.mark.parametrize("mutant", list(KILLED))
def test_field_mutant_is_killed(mutant, monkeypatch):
    apply, suites = KILLED[mutant]
    assert _suite_failures(apply, suites, monkeypatch), f"{mutant} survives {suites}"


@pytest.mark.parametrize("mutant", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=f"survives: {reason}"))
    for name, (_, _, reason) in SURVIVORS.items()
])
def test_surviving_field_mutant_is_killed(mutant, monkeypatch):
    apply, suites, _ = SURVIVORS[mutant]
    assert _suite_failures(apply, suites, monkeypatch), f"{mutant} survives {suites}"


# Node-factor census: every node-factor monomial with each exponent moved by
# +/-1, its q negated and its q doubled, as (q scale, exponent shifts) by
# label.  It runs at hbar = 0.37, c = 2.9 (tests/golden/units.cfg): at
# hbar = c = 1 a power of hbar or c is 1 and every such mutant survives.
_POWERS = ("hbar", "c", "k_perp", "k_z", "w")
CENSUS_EDITS = {
    **{f"{sym}^{d:+d}": (1.0, tuple(d * (j == i) for j in range(len(_POWERS))))
       for i, sym in enumerate(_POWERS) for d in (1, -1)},
    "q x -1": (-1.0, (0, 0, 0, 0, 0)),
    "q x 2": (2.0, (0, 0, 0, 0, 0)),
}
UNITS_LATTICE = build_lattice((-4, 4), [0.5, 1.0, 1.5], [1.0, 2.0], c=2.9, hbar=0.37)

# Each census mutant as (table, key, mutated value, suite that must kill it):
# every TERMS entry but energy and number through the commutator suite, and
# the (+/-) and (R/L) beta monomials through the basis suite.
CENSUS = {
    **{f"{name} {label}": (dynops.TERMS, name, _factor(name, *edit), commutator_suite)
       for name in ("P+", "P3", "L+", "L3", "S+", "S3",
                    "[L+,L-]", "[L+,P+]", "[S+,L3]", "[S+,L-] printed")
       for label, edit in CENSUS_EDITS.items()},
    **{f"{key} beta {label}": (dynops.PAIR_BETA, key, _edited(beta, *edit), basis_suite)
       for key, beta in dynops.PAIR_BETA.items()
       for label, edit in CENSUS_EDITS.items()},
}
# R/L with q negated swaps the R and L slots: S3 stays diagonal and the energy
# cross-term is even in beta, so no basis relation sees it.
# test_dynops.py::test_pair_blocks_bitwise_equal_to_per_node_fill kills it.
del CENSUS["R/L beta q x -1"]


def test_unmutated_suites_at_units_have_no_unexpected_failure():
    assert _unexpected(commutator_suite(UNITS_LATTICE) + basis_suite(UNITS_LATTICE)) == []


@pytest.mark.parametrize("mutant", list(CENSUS))
def test_census_mutant_is_killed(mutant, monkeypatch):
    table, key, value, suite = CENSUS[mutant]
    assert value != table[key]
    monkeypatch.setitem(table, key, value)
    assert _unexpected(suite(UNITS_LATTICE)), f"{mutant} survives {suite.__name__}"
