"""Evaluate a vector Bessel mode on a transverse plane and check identities.

Samples the electric and magnetic fields of a TM mode on a z = 0 grid,
verifies the duality relation c*kz*M = omega*(e3 x N) pointwise, and
checks div E = 0 with a finite-difference stencil.  Writes the field map
to mode_fields.csv next to this script (same format as the `besselbeams
field` subcommand).
"""

import math
import os

import numpy as np

from besselbeams import (
    CylPoint,
    ModeIndex,
    NormalizationConvention,
    TM,
    eval_B,
    eval_E,
    eval_M,
    eval_N,
)
from besselbeams.modes import E3

m, k_perp, k_z = 2, 1.0, 2.0
K = ModeIndex(TM, m, k_perp, k_z)
norm = NormalizationConvention()
omega = K.omega()

print(f"TM mode m={m}, k_perp={k_perp}, k_z={k_z}, omega={omega:.6f}")

# --- duality: c kz M = omega (e3 x N) on random points --------------------
rng = np.random.default_rng(0)
worst = 0.0
for _ in range(200):
    p = CylPoint(rng.uniform(0.01, 5.0), rng.uniform(-math.pi, math.pi), rng.uniform(-2, 2))
    lhs = k_z * eval_M(m, k_perp, k_z, p)
    rhs = omega * np.cross(E3, eval_N(m, k_perp, k_z, p))
    worst = max(worst, float(np.abs(lhs - rhs).max()))
print(f"duality  c kz M = omega (e3 x N): max residual {worst:.3e}")

# --- div E = 0 by central differences --------------------------------------
h = 1e-5
x0, y0, z0 = 1.2, -0.5, 0.3
div = 0j
for axis in range(3):
    for s in (1.0, -1.0):
        q = [x0, y0, z0]
        q[axis] += s * h
        p = CylPoint(math.hypot(q[0], q[1]), math.atan2(q[1], q[0]), q[2])
        div += s * 0.5 / h * eval_E(K, p, norm)[axis]
print(f"div E at ({x0},{y0},{z0}): {abs(div):.3e} (O(h^2) stencil, h={h})")

# --- field map on the z = 0 plane ------------------------------------------
n, extent = 41, 8.0
xs = np.linspace(-extent, extent, n)
lines = ["x,y,z,t," + ",".join(
    f"{f}{c}_{p}" for f in "EB" for c in "xyz" for p in ("re", "im")
)]
peak = 0.0
for y in xs:
    for x in xs:
        p = CylPoint(math.hypot(x, y), math.atan2(y, x), 0.0, 0.0)
        E = eval_E(K, p, norm)
        B = eval_B(K, p, norm)
        peak = max(peak, float(np.abs(E).max()))
        row = [f"{x:.17g}", f"{y:.17g}", "0", "0"]
        for vec in (E, B):
            for comp in vec:
                row += [f"{comp.real:.17g}", f"{comp.imag:.17g}"]
        lines.append(",".join(row))

out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mode_fields.csv")
with open(out, "w") as fh:
    fh.write("\n".join(lines) + "\n")
print(f"wrote {n}x{n} field map to {out} (peak |E| component {peak:.6g})")
