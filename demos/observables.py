"""Quadratic observables on a mode lattice: commutators and expectations.

Builds the photon-operator set (energy, momentum, orbital and spin
angular momentum, per-node Stokes operators) on a small discrete mode
lattice, spot-checks the commutation algebra, and evaluates coherent
state expectation values for a two-mode superposition that carries
transverse momentum.
"""

import math

import numpy as np

from besselbeams import (
    TM,
    build_lattice,
    build_observables,
    coherent_expectation,
    commutator,
    make_pm_map,
)
from besselbeams.dynops import build_stokes, cartesian, zero_points

lat = build_lattice((-3, 3), [1.0], [2.0])
obs = build_observables(lat)
print(f"lattice: m in [-3,3], k_perp=1, k_z=2, dim={lat.dim}")

# --- algebra spot checks ----------------------------------------------------
# on |m| <= 1: the interior block, two m values in from each edge of the
# window, as the verify suites take it
checks = [
    ("[L3, P-] = hbar P-", commutator(obs["L3"], obs["P-"]) - obs["P-"]),
    ("[L3, S3] = 0", commutator(obs["L3"], obs["S3"])),
    ("[S+, S-] = 0", commutator(obs["S+"], obs["S-"])),
]
for label, diff in checks:
    print(f"{label:24s} residual {diff.max_abs(margin=2):.3e}")

_, s1, s2, s3 = build_stokes(lat, 0, 0)
print(f"stokes [s1,s2]-2i s3        residual "
      f"{(commutator(s1, s2) - 2j * s3).max_abs():.3e}")

# --- coherent expectations ---------------------------------------------------
# equal amplitudes on neighboring m values tilt the beam: <P2> = 2 kp |a|^2
a = 0.5
alpha = np.zeros(lat.dim, dtype=complex)
alpha[[lat.index(TM, 0, 0), lat.index(TM, 1, 0)]] = a
P1, P2, P3 = cartesian(obs, "P")
print(f"<P1> = {coherent_expectation(P1, alpha).real:+.6f}")
print(f"<P2> = {coherent_expectation(P2, alpha).real:+.6f}  (analytic {2 * 1.0 * a**2})")
# P3 is symmetrized, so its zero point carries (1/2) hbar kz per mode
vac3 = zero_points(lat)["P3"]
p3 = coherent_expectation(P3, alpha).real + vac3
print(f"<P3> = {p3:+.6f}  (photon part {p3 - vac3:+.6f} = 2 kz |a|^2; "
      f"symmetrization offset {vac3:.1f})")
print(f"<L3> = {coherent_expectation(obs['L3'], alpha).real:+.6f}  (mean m = 1/2 per photon)")

# --- helicity basis -----------------------------------------------------------
pm = make_pm_map(lat)
w = math.hypot(1.0, 2.0)
print(f"(+/-) map unitarity residual {pm.unitarity_residual:.3e}; "
      f"per-photon helicity c kz/omega = {2.0 / w:.6f}")
