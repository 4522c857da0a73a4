"""Expand a Bessel mode in spherical multipoles and watch convergence.

Projects the N mode onto vector spherical harmonics, prints the
coefficient magnitudes, and reconstructs the field at a sample point
from truncated sums.  The coefficients do not decay with j; the partial
sums converge once j exceeds omega * r at the sample radius r, where the
spherical Bessel factor of each term decays (the angular-momentum
barrier of multipole sums).
"""

import math

import numpy as np

from besselbeams.modes import CylPoint, eval_N
from besselbeams.verify import partial_sums

m, k_perp, k_z = 2, 1.0, 2.0
omega = math.hypot(k_perp, k_z)
rho, phi, z = 1.5, 0.4, 0.2
point = (rho * math.cos(phi), rho * math.sin(phi), z)
direct = eval_N(m, k_perp, k_z, CylPoint(rho, phi, z)).components
ref = float(np.abs(direct).max())

print(f"N mode m={m}, k_perp={k_perp}, k_z={k_z}; sample at rho={rho} "
      f"(omega*rho = {omega * rho:.2f})")
print(f"{'j':>3s} {'|alpha_E|':>12s} {'|alpha_M|':>12s} {'recon rel err':>14s}")

j_max = 24
for j, aE, aM, total in partial_sums("N", m, k_perp, k_z, point, j_max):
    err = float(np.abs(total - direct).max() / ref)
    print(f"{j:3d} {abs(aE):12.4e} {abs(aM):12.4e} {err:14.4e}")

print(f"final relative error at j_max={j_max}: "
      f"{float(np.abs(total - direct).max() / ref):.3e}")
