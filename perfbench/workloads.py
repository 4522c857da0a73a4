"""Seeded op generators for the three benchmark workloads.

An op is one ``besselbeams`` command line plus the parameters its output
check needs.  A workload run is a fixed number of passes (``pass_count``);
pass ``i`` of seed ``s`` is drawn from its own ``random.Random`` stream, so
the same seed always gives the same ops.  Not every input varies: ``verify
all`` takes from the command line only the lattice, the tolerances and the
quadrature margin, so its quadrature and spherical suites compute the same
integrals in every pass and under every seed.  The runner therefore starts a
fresh process for every pass, and nothing the program caches in one pass is
seen by the next.

Each pass is a fixed menu of slots (kind, size rung) whose free parameters
the seed draws.  The rungs keep the work of a pass nearly the same for every
seed while the inputs themselves change, so pass times and latency
percentiles are comparable between seeds.  The pass count depends only on
the workload and ``--seconds``, never on how fast the program runs, so the
number of ops, and with it the rank that ``op_tail_s`` reads, is the same for
every version of the program.

Only pure Python lives here: generating ops imports neither numpy nor the
program.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

# Placeholders the runner replaces with paths in the op's scratch directory.
OUT = "{out}"
CONFIG = "{config}"

TOLERANCES = "tol.algebra = 1e-12\ntol.quadrature = 1e-3\ntol.spherical = 1e-3\n"


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv (with placeholders), optional config text,
    and the generator's parameters for the output check."""

    op_id: str
    kind: str
    argv: tuple
    config: str = ""
    params: dict = field(default_factory=dict, hash=False)

    def describe(self):
        return " ".join(self.argv)


def _rng(workload, seed, pass_index):
    return random.Random(f"{workload}:{seed}:{pass_index}")


def _nodes(rng, n, lo, hi):
    """n distinct sorted wavenumbers in [lo, hi], three decimals."""
    vals = set()
    while len(vals) < n:
        vals.add(round(rng.uniform(lo, hi), 3))
    return sorted(vals)


def _fmt_list(vals):
    return ",".join(f"{v:g}" for v in vals)


def _lattice_flags(lat):
    return (
        f"--m-range=-{lat['h']}..{lat['h']}",
        "--kperp", _fmt_list(lat["k_perp"]),
        "--kz", _fmt_list(lat["k_z"]),
    )


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------


def _verify_all_pass(rng, pass_index):
    h = rng.randint(3, 4)  # |m| >= 3: see _SHAPES
    lat = {
        "h": h,
        "k_perp": _nodes(rng, rng.randint(1, 3), 0.5, 1.5),
        "k_z": _nodes(rng, rng.randint(1, 2), 1.0, 2.5),
    }
    lat["D"] = 2 * (2 * h + 1) * len(lat["k_perp"]) * len(lat["k_z"])
    # quadrature.margin 0.25 puts every k-grid at its floor of 96 nodes; the
    # default margin 2.0 makes one op take ~54 s, longer than a run may last.
    config = (
        f"lattice.m_range = -{h}..{h}\n"
        f"lattice.k_perp = {_fmt_list(lat['k_perp'])}\n"
        f"lattice.k_z = {_fmt_list(lat['k_z'])}\n"
        "quadrature.margin = 0.25\n" + TOLERANCES
    )
    argv = ("--config", CONFIG, "verify", "all", "--out", OUT)
    return [Op(f"p{pass_index}-o0", "verify", argv, config, {"suite": "all", **lat})]


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------

# Lattice shapes (|m| half-width, k_perp nodes, k_z nodes) per op kind, one
# op per shape in every pass; the seed draws the wavenumbers, amplitudes and
# order.  Fixed shapes keep the work of a pass the same for every seed, and
# the rungs are spaced so that op latencies form a ladder without large gaps
# (percentiles then do not jump between clusters).
#
# Commutator shapes keep 3 <= |m| <= 8.  At |m| <= 2 the interior block is
# m = 0 alone, where the flagged printed [S+,L-] happens to hold, so the
# failing set could not equal the flagged set.  With the absolute ALG_TOL
# the [L+,L-] residual exceeds 1e-12 from |m| ~ 12 at k_z/k_perp ~ 8, and a
# run must not contain ops known to fail (that defect is reported
# separately, see KNOWN_DEFECT).  Basis shapes stop at D ~ 600 because the
# dense D x D inverse costs ~30 s at D = 2376; expect reaches D = 2376, the
# (16, 6, 6) lattice, once per pass.  A pass has an odd number of ops (13),
# so the median of a run falls inside the cluster of one shape, the
# (12, 5, 4) expect, and not in the gap between two shapes.
_SHAPES = {
    "commutators": ((7, 1, 2), (6, 3, 4), (8, 3, 6)),                   # D = 60, 312, 612
    "basis": ((2, 3, 5), (14, 1, 5), (7, 3, 5), (9, 4, 4)),             # D = 150 .. 608
    "expect": ((12, 1, 2), (2, 5, 4), (9, 2, 5), (7, 4, 6), (12, 5, 4),
               (16, 6, 6)),                                              # D = 100 .. 2376
}


def _lattice(rng, shape):
    h, n_kp, n_kz = shape
    return {
        "h": h,
        "k_perp": _nodes(rng, n_kp, 0.3, 1.5),
        "k_z": _nodes(rng, n_kz, 1.0, 2.5),
        "D": 2 * (2 * h + 1) * n_kp * n_kz,
    }


def _algebra_pass(rng, pass_index):
    slots = [(kind, shape) for kind, shapes in _SHAPES.items() for shape in shapes]
    rng.shuffle(slots)
    ops = []
    for i, (kind, shape) in enumerate(slots):
        op_id = f"p{pass_index}-o{i}"
        lat = _lattice(rng, shape)
        if kind == "expect":
            amps = _amplitudes(rng, lat)
            argv = ("expect",) + _lattice_flags(lat)
            for a in amps:
                argv += ("--amp", ",".join(str(v) for v in a))
            ops.append(Op(op_id, "expect", argv + ("--out", OUT), "", {**lat, "amps": amps}))
        else:
            argv = ("verify", kind) + _lattice_flags(lat) + ("--out", OUT)
            ops.append(Op(op_id, "verify", argv, "", {"suite": kind, **lat}))
    return ops


def _amplitudes(rng, lat):
    """1-3 coherent amplitudes on distinct lattice modes."""
    seen, amps = set(), []
    for _ in range(rng.randint(1, 3)):
        while True:
            key = (
                rng.choice(("tm", "te")),
                rng.randint(-lat["h"], lat["h"]),
                rng.randrange(len(lat["k_perp"])),
                rng.randrange(len(lat["k_z"])),
            )
            if key not in seen:
                break
        seen.add(key)
        amps.append(key + (round(rng.uniform(-1, 1), 3), round(rng.uniform(-1, 1), 3)))
    return amps


# Known defect kept visible: verify commutators with the absolute ALG_TOL
# exits 1 on this single-node lattice (|m| = 16, k_z/k_perp = 8.3), where
# [L+,L-] has entries of 1.7e4.  It runs once per untraced algebra run,
# outside the timed loop and outside attempted/failed.
KNOWN_DEFECT = Op(
    "known-defect",
    "verify",
    ("verify", "commutators", "--m-range=-16..16", "--kperp", "0.3", "--kz", "2.5",
     "--out", OUT),
    "",
    {"suite": "commutators", "h": 16, "k_perp": [0.3], "k_z": [2.5], "D": 66},
)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

# Field-evaluation rungs (points x fields per point), geometric from 512 to
# 16384 in 16 steps.  Each pass uses every rung once and every (selector,
# family) pair twice, so its work is fixed while the seed draws which pair,
# mode and grid shape each rung gets.  Four expand ops per pass cover jmax
# 10..60 in strata.
_FIELD_RUNGS = tuple(round(512 * 32 ** (i / 15)) for i in range(16))
_WHICH = ("EB", "M", "N", "A")
_EXPAND_JMAX = ((10, 22), (23, 35), (36, 48), (49, 60))


def _fields_pass(rng, pass_index):
    pairs = [(w, f) for w in _WHICH for f in ("tm", "te")] * 2
    rng.shuffle(pairs)
    slots = [("field", pair, r) for pair, r in zip(pairs, _FIELD_RUNGS)]
    slots += [("expand", None, j) for j in _EXPAND_JMAX]
    rng.shuffle(slots)
    ops = []
    for i, (kind, pair, size) in enumerate(slots):
        op_id = f"p{pass_index}-o{i}"
        if kind == "field":
            ops.append(_field_op(rng, op_id, *pair, size))
        else:
            ops.append(_expand_op(rng, op_id, size))
    return ops


def _grid(rng, points):
    """(n_a, n_b) sides in [16, 128] with n_a * n_b close to `points`."""
    lo = max(16, math.ceil(points / 128))
    hi = min(128, points // 16)
    n_a = rng.randint(lo, hi)
    n_b = min(128, max(16, round(points / n_a)))
    if rng.random() < 0.5:  # odd sides put samples on the beam axis
        n_a, n_b = _odd(n_a), _odd(n_b)
    return n_a, n_b


def _odd(n):
    return n if n % 2 else (n + 1 if n < 128 else n - 1)


def _wavenumbers(rng):
    k_perp = round(rng.uniform(0.3, 2.0), 3)
    k_z = round(rng.uniform(0.3, 3.0), 3) * rng.choice((1, -1))
    return k_perp, k_z


def _field_op(rng, op_id, which, family, evaluations):
    n_fields = 2 if which == "EB" else 1
    n_a, n_b = _grid(rng, evaluations // n_fields)
    k_perp, k_z = _wavenumbers(rng)
    axis = rng.choice("xyz")
    # x/y planes through the axis half of the time, z planes anywhere
    offset = 0.0 if axis != "z" and rng.random() < 0.5 else round(rng.uniform(-3, 3), 3)
    extent = round(rng.uniform(3.0, 10.0), 3)
    params = {
        "family": family,
        "m": rng.randint(-6, 6),
        "k_perp": k_perp,
        "k_z": k_z,
        "which": which,
        "axis": axis,
        "offset": offset,
        "grid": (n_a, n_b),
        "extent": extent,
    }
    params["rows"] = sorted(rng.sample(range(n_a * n_b), 12))
    argv = (
        "field", "--family", params["family"], "--m", str(params["m"]),
        "--kperp", f"{k_perp:g}", "--kz", f"{k_z:g}", "--which", which,
        "--plane", f"{axis}={offset:g}", "--grid", f"{n_a}x{n_b}",
        "--extent", f"{extent:g}", "--out", OUT,
    )
    return Op(op_id, "field", argv, "", params)


def _expand_op(rng, op_id, jmax_range):
    k_perp, k_z = _wavenumbers(rng)
    params = {
        "m": rng.randint(-6, 6),
        "k_perp": k_perp,
        "k_z": k_z,
        "which": rng.choice(("M", "N")),
        "jmax": rng.randint(*jmax_range),
    }
    argv = (
        "expand", "--m", str(params["m"]), "--kperp", f"{k_perp:g}", "--kz", f"{k_z:g}",
        "--which", params["which"], "--jmax", str(params["jmax"]), "--out", OUT,
    )
    return Op(op_id, "expand", argv, "", params)


_PASSES = {
    "verify-all": _verify_all_pass,
    "algebra": _algebra_pass,
    "fields": _fields_pass,
}

# One small op per workload whose first run absorbs lazy scipy/BLAS set-up.
WARMUP = {
    "verify-all": Op("warmup", "verify", ("verify", "basis", "--out", OUT), "",
                     {"suite": "basis"}),
    "algebra": Op("warmup", "verify", ("verify", "basis", "--out", OUT), "",
                  {"suite": "basis"}),
    "fields": Op("warmup", "field",
                 ("field", "--family", "tm", "--m", "1", "--kperp", "1", "--kz", "2",
                  "--grid", "9x9", "--out", OUT), "", {}),
}


# Seconds budgeted for one pass, its process start and checks included; a
# run of --seconds S makes round(S / this) passes.  Measured at seed on a
# 2-vCPU host whose speed drifted by up to 45% between minutes, a pass took
# 10.5-15.5 s on verify-all, 9.5-11.5 s on algebra and 8-9.5 s on fields.
# The algebra and fields budgets take the slow end, so that their runs end
# near --seconds on a slow host.  A verify-all pass is one op that cannot be
# split, so its 36 s runs take 32-47 s.
NOMINAL_PASS_S = {"verify-all": 12.0, "algebra": 11.0, "fields": 9.5}


def pass_count(workload, seconds):
    """Passes in a run of `seconds`: fixed by the workload, not by its speed."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def make_pass(workload, seed, pass_index):
    """The ops of pass `pass_index` of `workload` under `seed`."""
    return _PASSES[workload](_rng(workload, seed, pass_index), pass_index)
