"""Output checks for benchmark ops, run after the timed call.

Every check recomputes what it can from the op's generated parameters, not
from the program's own output path:

* verify: exit 0, and the failing relations are exactly the flagged ones of
  the suites that ran (``cli.DEFAULT_EXPECTED_FAIL``).
* field: row count and grid coordinates, and sampled rows against the
  plane-wave angular spectrum (``modes.angular_spectrum``) times the
  normalization amplitude for E, B and A.
* expect: energy, number, P3 and L3 against their closed forms in |alpha|^2
  plus the zero point.
* expand: exit 0, one row per j, and a final ``recon_rel_err`` <= 1e-3 once
  jmax is past the omega*r barrier.

A check returns ``(passed, reason)``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from besselbeams import cli, modes

_SUITE_PREFIX = {
    "commutators": ("commutator",),
    "basis": ("basis",),
    "quadrature": ("quadrature",),
    "spherical": ("spherical",),
    "all": ("commutator", "basis", "quadrature", "spherical"),
}

FIELD_RTOL = 1e-9       # angular-spectrum quadrature vs. closed form
EXPECT_RTOL = 1e-12     # closed-form expectations, relative to their scale
EXPAND_TOL = 1e-3       # spherical reconstruction past the barrier
EXPAND_BARRIER_PAD = 10  # jmax >= |m| + omega*r + pad counts as past it


def check(op, rc, text):
    """(passed, reason) for one op given its exit code and output text."""
    if rc != 0:
        return False, f"exit code {rc}"
    return _CHECKS[op.kind](op.params, text)


def _check_verify(params, text):
    report = json.loads(text)
    failing = {r["name"] for r in report["results"] if not r["pass"]}
    prefixes = _SUITE_PREFIX[params["suite"]]
    flagged = {n for n in cli.DEFAULT_EXPECTED_FAIL if n.split(":")[0] in prefixes}
    if failing != flagged:
        extra = sorted(failing - flagged)
        missing = sorted(flagged - failing)
        return False, f"failing relations differ: unexpected {extra}, flagged but passing {missing}"
    if len(report["results"]) != report["metadata"]["relations"]:
        return False, "relation count does not match metadata"
    return True, f"{len(report['results'])} relations, {len(failing)} flagged"


def _field_reference(p, point):
    """Cartesian vectors for each field column group, from the angular spectrum."""
    K = modes.ModeIndex(p["family"].upper(), p["m"], p["k_perp"], p["k_z"])
    omega = K.omega()
    amp = modes.NormalizationConvention().amplitude(K)

    def spec(which):
        return modes.angular_spectrum(which, K.m, K.k_perp, K.k_z, point)[0].components

    tm = K.family == modes.TM
    if p["which"] == "M":
        return [spec("M")]
    if p["which"] == "N":
        return [spec("N")]
    if p["which"] == "A":
        return [(amp / (1j * omega)) * (spec("N") if tm else -spec("M"))]
    E = amp * (spec("N") if tm else -spec("M"))
    B = amp * (spec("M") if tm else spec("N"))
    return [E, B]


def _check_field(p, text):
    lines = text.splitlines()
    n_a, n_b = p["grid"]
    if len(lines) != n_a * n_b + 1:
        return False, f"{len(lines) - 1} rows, expected {n_a * n_b}"
    free = [ax for ax in "xyz" if ax != p["axis"]]
    side = {
        free[0]: np.linspace(-p["extent"], p["extent"], n_a),
        free[1]: np.linspace(-p["extent"], p["extent"], n_b),
        p["axis"]: np.array([p["offset"]]),
    }
    rows = list(p["rows"])
    on_axis = n_a % 2 and (n_b % 2 if p["axis"] == "z" else p["offset"] == 0.0)
    if on_axis:  # odd sides through the axis: also check the grid's centre row
        nx, ny, nz = (len(side[ax]) for ax in "xyz")
        rows.append(((nz // 2) * ny + ny // 2) * nx + nx // 2)
    worst, scale = 0.0, 0.0
    for r in rows:
        vals = [float(v) for v in lines[r + 1].split(",")]
        x, y, z = _row_xyz(side, r)
        if vals[:4] != [x, y, z, 0.0]:
            return False, f"row {r}: coordinates {vals[:3]} expected {(x, y, z)}"
        point = modes.CylPoint(math.hypot(x, y), math.atan2(y, x), z, 0.0)
        ref = np.concatenate(_field_reference(p, point))
        got = np.array(vals[4::2]) + 1j * np.array(vals[5::2])
        if got.shape != ref.shape:
            return False, f"row {r}: {got.size} components, expected {ref.size}"
        worst = max(worst, float(np.abs(got - ref).max()))
        scale = max(scale, float(np.abs(ref).max()))
    if not worst <= FIELD_RTOL * scale:
        return False, f"max deviation {worst:.3e} from angular spectrum (scale {scale:.3e})"
    return True, f"{len(rows)} rows match angular spectrum to {worst:.1e}"


def _row_xyz(side, r):
    """Coordinates of data row r: z-major, then y, then x."""
    nx, ny = len(side["x"]), len(side["y"])
    iz, rest = divmod(r, nx * ny)
    iy, ix = divmod(rest, nx)
    return float(side["x"][ix]), float(side["y"][iy]), float(side["z"][iz])


def _check_expect(p, text):
    rows = {}
    for line in text.splitlines()[1:]:
        name, re_, im = line.split(",")
        rows[name] = complex(float(re_), float(im))
    alpha = {}
    for fam, m, ikp, ikz, re_, im in p["amps"]:
        alpha[(fam, m, ikp, ikz)] = complex(re_, im)
    modes_ = [
        (fam, m, kp, kz, ikp, ikz)
        for fam in ("tm", "te")
        for m in range(-p["h"], p["h"] + 1)
        for ikp, kp in enumerate(p["k_perp"])
        for ikz, kz in enumerate(p["k_z"])
    ]

    def closed_form(weight):
        """sum_i weight_i |alpha_i|^2 + (1/2) sum_i weight_i (hbar = c = 1)."""
        occupied = sum(
            weight(m, kp, kz) * abs(alpha.get((fam, m, ikp, ikz), 0)) ** 2
            for fam, m, kp, kz, ikp, ikz in modes_
        )
        zero_point = 0.5 * sum(weight(m, kp, kz) for _, m, kp, kz, _, _ in modes_)
        return occupied + zero_point

    expected = {
        "energy": closed_form(lambda m, kp, kz: math.hypot(kp, kz)),
        "number": closed_form(lambda m, kp, kz: 1.0),
        "P3": closed_form(lambda m, kp, kz: kz),
        "L3": closed_form(lambda m, kp, kz: float(m)),
    }
    for name, want in expected.items():
        got = rows.get(name)
        if got is None:
            return False, f"row {name} missing"
        scale = max(1.0, abs(want), closed_form(lambda m, kp, kz: abs(m) + kp + kz))
        if abs(got - want) > EXPECT_RTOL * scale:
            return False, f"{name} = {got} expected {want}"
    n_stokes = sum(1 for k in rows if k.startswith("sigma"))
    if n_stokes != 3 * len(modes_) // 2:
        return False, f"{n_stokes} Stokes rows, expected {3 * len(modes_) // 2}"
    return True, "energy, number, P3, L3 match closed forms"


def _check_expand(p, text):
    data = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")][1:]
    j_lo = max(1, abs(p["m"]))
    if [int(r[0]) for r in data] != list(range(j_lo, p["jmax"] + 1)):
        return False, f"{len(data)} rows, expected j = {j_lo}..{p['jmax']}"
    if not all(math.isfinite(float(v)) for r in data for v in r[1:]):
        return False, "non-finite value"
    # the CLI samples at rho = 1.5/k_perp, z = 0.2
    r = math.hypot(1.5 / p["k_perp"], 0.2)
    barrier = abs(p["m"]) + math.hypot(p["k_perp"], p["k_z"]) * r
    err = float(data[-1][5])
    if p["jmax"] >= barrier + EXPAND_BARRIER_PAD and not err <= EXPAND_TOL:
        return False, f"recon_rel_err {err:.3e} at jmax {p['jmax']} past barrier {barrier:.1f}"
    return True, f"{len(data)} rows, final recon_rel_err {err:.1e} (barrier {barrier:.1f})"


_CHECKS = {
    "verify": _check_verify,
    "field": _check_field,
    "expect": _check_expect,
    "expand": _check_expand,
}
