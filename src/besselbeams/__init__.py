"""Quantized electromagnetic Bessel-beam modes and their operator algebra.

Modules
-------
specfun   Bessel/Legendre special functions and closed-form overlaps.
modes     Classical M/N mode vectors, TE/TM fields, angular spectra.
lattice   Discretized mode lattice and quadratic operator algebra.
dynops    Energy, momentum, orbital and spin observables; basis maps.
verify    Numerical verification suites for the printed relations.
cli       Command-line interface (field sampling, verification, tables).
"""

__version__ = "0.1.0"

from .modes import (
    CylPoint,
    ModeIndex,
    NormalizationConvention,
    TE,
    TM,
    eval_B,
    eval_E,
    eval_M,
    eval_N,
)
from .lattice import (
    ModeLattice,
    QuadraticOperator,
    build_lattice,
    coherent_expectation,
    commutator,
)
from .dynops import build_observables, make_pm_map, make_rl_map
from .verify import (
    RelationResult,
    basis_suite,
    commutator_suite,
    quadrature_suite,
    spherical_suite,
)

__all__ = [
    "CylPoint",
    "ModeIndex",
    "NormalizationConvention",
    "TE",
    "TM",
    "eval_B",
    "eval_E",
    "eval_M",
    "eval_N",
    "ModeLattice",
    "QuadraticOperator",
    "build_lattice",
    "coherent_expectation",
    "commutator",
    "build_observables",
    "make_pm_map",
    "make_rl_map",
    "RelationResult",
    "basis_suite",
    "commutator_suite",
    "quadrature_suite",
    "spherical_suite",
    "__version__",
]
