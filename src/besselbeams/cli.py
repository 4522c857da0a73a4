"""Command-line interface: field sampling, verification, expectation tables.

Subcommands
-----------
field    Sample E/B (or M/N/A) on a plane grid and write a CSV file.
verify   Run a verification suite and write a JSON report.
expect   Coherent-state expectation table of all observables.
expand   Spherical expansion coefficients with a reconstruction error column.

Configuration is a flat ``key = value`` text file with section prefixes
(``units.``, ``lattice.``, ``quadrature.``, ``tol.``, ``verify.``); the
default path is taken from the ``BESSELBEAMS_CONFIG`` environment
variable and command-line flags override file values.  All outputs are
deterministic (byte-identical on rerun) and numeric fields are printed
with 17 significant digits.

Exit codes: 0 success, 1 verification failure, 2 usage/config error or a
non-finite residual, 3 inconclusive numerics.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .lattice import LatticeError, coherent_expectation, build_lattice
from .dynops import build_observables, cartesian, stokes_expectations, zero_points
# Unused here: perfbench's tracer wraps this name in cli.__dict__.
from .dynops import build_stokes  # noqa: F401
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
    eval_potential,
)
from .specfun import MAX_ORDER, DomainError
from .verify import (
    ALG_TOL,
    FLAGGED,
    QUAD_MARGIN,
    QUAD_REL_TOL,
    SPHERICAL_TOL,
    basis_suite,
    commutator_suite,
    partial_sums,
    quadrature_suite,
    spherical_suite,
)
# Unused here: perfbench's tracer wraps these names in cli.__dict__, and its
# self-test checks that cli.expansion_coefficients is the verify function.
from .verify import expansion_coefficients, _spherical_wave_pair  # noqa: F401

CONFIG_ENV = "BESSELBEAMS_CONFIG"

# the flagged relations: reported pass=False by the suites, and expected
DEFAULT_EXPECTED_FAIL = tuple(FLAGGED)


# hbar and c enter the algebra squared: at hbar = 1e-160 hbar^2 is subnormal
# and the commutator table fails falsely, and at 1e160 hbar^2 overflows
UNITS_RANGE = (1e-100, 1e100)


class UsageError(Exception):
    """Bad flags or configuration; maps to exit code 2."""


def _fmt(v):
    """17-significant-digit decimal rendering of one number."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def parse_m_range(text):
    """'-4..4' -> (-4, 4)."""
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError(f"malformed m range {text!r}; expected like -4..4") from exc
    if lo > hi:
        raise UsageError(f"empty m range {text!r}")
    return lo, hi


def parse_float_list(text):
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"malformed number list {text!r}") from exc
    return vals


def _key(name, default, parse, show, *, positive):
    """One row of the config key table: a RunConfig field read from the
    file key `name` with `parse` and echoed with `show`; a `positive`
    value must be positive and finite."""
    return field(default=default,
                 metadata={"key": name, "parse": parse, "show": show, "positive": positive})


def _show_number(value):
    # cli._fmt is looked up at call time: perfbench's tracer wraps that name
    return _fmt(value)


def _show_list(values):
    return ",".join(_fmt(v) for v in values)


@dataclass(frozen=True)
class RunConfig:
    """Resolved run configuration (file values with flag overrides).

    The fields are the config key table, in report order: each names its
    file key, parser, printed form and positivity check.
    """

    hbar: float = _key("units.hbar", 1.0, float, _show_number, positive=True)
    c: float = _key("units.c", 1.0, float, _show_number, positive=True)
    m_range: tuple = _key("lattice.m_range", (-4, 4), parse_m_range,
                          lambda r: f"{r[0]}..{r[1]}", positive=False)
    k_perp: tuple = _key("lattice.k_perp", (0.5, 1.0, 1.5), parse_float_list, _show_list,
                         positive=False)
    k_z: tuple = _key("lattice.k_z", (1.0, 2.0), parse_float_list, _show_list, positive=False)
    quad_margin: float = _key("quadrature.margin", QUAD_MARGIN, float, _show_number, positive=True)
    tol_algebra: float = _key("tol.algebra", ALG_TOL, float, _show_number, positive=True)
    tol_quadrature: float = _key("tol.quadrature", QUAD_REL_TOL, float, _show_number, positive=True)
    tol_spherical: float = _key("tol.spherical", SPHERICAL_TOL, float, _show_number, positive=True)
    # names are trimmed, so "A; B" flags B as well as A
    expected_fail: tuple = _key("verify.expected_fail", DEFAULT_EXPECTED_FAIL,
                                lambda s: tuple(filter(None, (p.strip() for p in s.split(";")))),
                                ";".join, positive=False)

    def __post_init__(self):
        # one check for file values and flag overrides alike
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["positive"] and not (math.isfinite(value) and value > 0):
                raise UsageError(
                    f"{f.metadata['key']} must be positive and finite, got {_fmt(value)}"
                )
        lo, hi = UNITS_RANGE
        for key, value in (("units.hbar", self.hbar), ("units.c", self.c)):
            if not lo <= value <= hi:
                raise UsageError(f"{key} must lie in [{lo:g}, {hi:g}], got {_fmt(value)}")
        # `verify all` takes 1.0-1.1 s and 70 MB at the default 0.25, 10-14 s
        # and 0.31 GB at 2, 48 s and 0.99 GB at 4 (one BLAS thread, 2-core host)
        if self.quad_margin > 4.0:
            raise UsageError(f"quadrature.margin must be at most 4, got {_fmt(self.quad_margin)}")

    def lattice(self):
        return build_lattice(self.m_range, self.k_perp, self.k_z, c=self.c, hbar=self.hbar)

    def echo(self):
        """Flat key -> printed-value mapping for report metadata."""
        return {f.metadata["key"]: f.metadata["show"](getattr(self, f.name)) for f in fields(self)}


def read_config_file(path):
    """Flat key = value pairs; '#' starts a comment; blank lines skipped."""
    pairs = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key = value")
                key, val = line.split("=", 1)
                pairs[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:  # a file that is not UTF-8 raises the latter
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return pairs


def build_run_config(config_path):
    """RunConfig from defaults, then file (flag overrides happen later)."""
    cfg = RunConfig()
    if config_path is None:
        config_path = os.environ.get(CONFIG_ENV)
    if not config_path:
        return cfg
    pairs = read_config_file(config_path)
    known = {f.metadata["key"]: f for f in fields(RunConfig)}
    updates = {}
    for key, val in pairs.items():
        if key not in known:
            raise UsageError(f"unknown config key {key!r}")
        f = known[key]
        try:
            updates[f.name] = f.metadata["parse"](val)
        except ValueError as exc:
            raise UsageError(f"bad value for {key}: {val!r}") from exc
    return replace(cfg, **updates)


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------


def _json_text(obj, indent=0):
    """Minimal JSON writer with 17-significant-digit floats; strings are
    escaped by the json module, so any text gives valid JSON."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(k, ensure_ascii=False)}: {_json_text(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    return _fmt(obj)


def _write_output(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out_path}: {exc}") from exc


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

_FIELD_COLUMNS = {
    "EB": ("E", "B"),
    "M": ("M",),
    "N": ("N",),
    "A": ("A",),
}


def parse_plane(text):
    try:
        axis, val = text.split("=")
        axis = axis.strip().lower()
        val = float(val)
    except ValueError as exc:
        raise UsageError(f"malformed plane {text!r}; expected like z=0") from exc
    if axis not in ("x", "y", "z"):
        raise UsageError(f"plane axis must be x, y or z, got {axis!r}")
    if not math.isfinite(val):
        raise UsageError(f"plane value must be finite, got {text!r}")
    return axis, val


def parse_grid(text):
    try:
        a, b = text.lower().split("x")
        a, b = int(a), int(b)
    except ValueError as exc:
        raise UsageError(f"malformed grid {text!r}; expected like 64x64") from exc
    if a < 1 or b < 1:
        raise UsageError("grid counts must be >= 1")
    return a, b


def _field_samples(which, K, norm, p):
    """Cartesian complex vectors for the columns of `which`: (3,) each, or
    (n_z, 3) when p.z is a sequence of n_z values."""
    if which == "EB":
        return [eval_E(K, p, norm), eval_B(K, p, norm)]
    if which == "A":
        return [eval_potential(K, p, norm)]
    return [(eval_M if which == "M" else eval_N)(K.m, K.k_perp, K.k_z, p, c=norm.c)]


def _mode_index(family, args, c):
    """ModeIndex of the --m, --kperp and --kz flags, refused when it is
    invalid or its omega = c hypot(k_perp, k_z) underflows to 0."""
    if abs(args.m) >= MAX_ORDER:  # M and N read J_(m+/-1)
        raise UsageError(f"--m must lie in [{1 - MAX_ORDER}, {MAX_ORDER - 1}], got {args.m}")
    try:
        K = ModeIndex(family, args.m, args.kperp, args.kz)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if K.omega(c) == 0:
        raise UsageError(f"omega = c hypot(k_perp, k_z) underflows to 0 at units.c = {_fmt(c)}")
    return K


def cmd_field(args, cfg):
    family = {"tm": TM, "te": TE}.get(args.family.lower())
    if family is None:
        raise UsageError(f"unknown family {args.family!r}")
    which = args.which.upper()
    if which not in _FIELD_COLUMNS:
        raise UsageError(f"--which must be one of EB, M, N, A, got {args.which!r}")
    axis, axis_val = parse_plane(args.plane)
    n_a, n_b = parse_grid(args.grid)
    # the grid spans 2 * extent, so that must be finite too
    if not (math.isfinite(2.0 * args.extent) and args.extent > 0):
        raise UsageError("--extent must be positive, with 2 * extent finite")
    if not math.isfinite(args.t):
        raise UsageError("--t must be finite")
    K = _mode_index(family, args, cfg.c)
    norm = NormalizationConvention(hbar=cfg.hbar, c=cfg.c)

    side = {axis: [axis_val]}  # the free axes, in xyz order, take n_a and n_b points
    for ax, n in zip([ax for ax in "xyz" if ax != axis], (n_a, n_b)):
        side[ax] = np.linspace(-args.extent, args.extent, n).tolist()
    xs, ys, zs = (side[ax] for ax in "xyz")
    names = _FIELD_COLUMNS[which]
    header = ["x", "y", "z", "t"] + [f"{nm}{comp}_{part}" for nm in names for comp in "xyz"
                                     for part in ("re", "im")]
    samples = np.empty((len(zs), len(ys), len(xs), len(names), 3), dtype=complex)
    # the profile does not change along z: one call per transverse (x, y)
    # point takes every z of the plane, or the one z of a z plane
    axial = axis_val if axis == "z" else zs
    # finite inputs can overflow a phase or k_perp/k_z: one check, after the loop
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for (j, y), (i, x) in itertools.product(enumerate(ys), enumerate(xs)):
            p = CylPoint(math.hypot(x, y), math.atan2(y, x), axial, args.t)
            for f, vec in enumerate(_field_samples(which, K, norm, p)):
                samples[:, j, i, f] = vec
    if not np.isfinite(samples).all():
        raise UsageError("inputs too large: a sampled field value is not finite")
    # row order: z-major, then y, then x.  Each coordinate is rendered once;
    # the values go through one template, which renders a float as _fmt does
    fx, fy, fz, (ft,) = ([_fmt(v) for v in vals] for vals in (xs, ys, zs, [args.t]))
    prefixes = (f"{x},{y},{z},{ft}," for z, y, x in itertools.product(fz, fy, fx))
    values = ",".join(["%.17g"] * (len(header) - 4))
    rows = zip(prefixes, samples.view(float).reshape(-1, len(header) - 4))
    lines = [",".join(header)] + [pre + values % tuple(row.tolist()) for pre, row in rows]
    del samples, rows  # joining the rows below sets the command's peak memory
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

SUITES = ("commutators", "basis", "quadrature", "spherical", "all")


def _with_lattice_flags(args, cfg):
    """(cfg, lattice) with the --m-range, --kperp and --kz flag values
    applied.  Building the lattice checks them, so a command rejects bad
    lattice input whether or not it reads the lattice."""
    if args.m_range is not None:
        cfg = replace(cfg, m_range=parse_m_range(args.m_range))
    if args.kperp is not None:
        cfg = replace(cfg, k_perp=parse_float_list(args.kperp))
    if args.kz is not None:
        cfg = replace(cfg, k_z=parse_float_list(args.kz))
    return cfg, cfg.lattice()


def cmd_verify(args, cfg):
    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {SUITES}")
    cfg, lat = _with_lattice_flags(args, cfg)

    results = []
    # units and wavenumbers at the ends of their ranges can overflow a
    # residual: one check, after the suites
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if args.suite in ("commutators", "all"):
            results += commutator_suite(lat, tol=cfg.tol_algebra)
        if args.suite in ("basis", "all"):
            results += basis_suite(lat, tol=cfg.tol_algebra)
        if args.suite in ("quadrature", "all"):
            results += quadrature_suite(rel_tol=cfg.tol_quadrature, margin=cfg.quad_margin)
        if args.suite in ("spherical", "all"):
            results += spherical_suite(tol=cfg.tol_spherical)
    bad = [r.name for r in results if not math.isfinite(r.residual)]
    if bad:
        raise UsageError(f"inputs out of numeric range: the residual of {bad[0]!r} is not finite")

    unexpected = [
        r for r in results
        if not r.passed and not r.inconclusive and r.name not in cfg.expected_fail
    ]
    inconclusive = [r for r in results if r.inconclusive]
    # a flagged relation that passes did not show its printed form wrong
    unexpected_passes = [r.name for r in results if r.passed and r.name in cfg.expected_fail]
    code = 1 if unexpected or unexpected_passes else (3 if inconclusive else 0)

    report = {
        "metadata": {
            "tool": "besselbeams",
            "version": __version__,
            "command": "verify",
            "suite": args.suite,
            "config": cfg.echo(),
            "relations": len(results),
            "unexpected_failures": len(unexpected),
            "inconclusive": len(inconclusive),
            "unexpected_passes": len(unexpected_passes),
            "unexpected_pass_names": unexpected_passes,
        },
        "results": [r.to_dict() for r in results],
    }
    _write_output(_json_text(report) + "\n", args.out)
    return code


# ---------------------------------------------------------------------------
# expect
# ---------------------------------------------------------------------------


def parse_amplitude(text):
    parts = text.split(",")
    if len(parts) != 6:
        raise UsageError(
            f"malformed amplitude {text!r}; expected family,m,ikp,ikz,re,im"
        )
    fam = {"tm": TM, "te": TE}.get(parts[0].strip().lower())
    if fam is None:
        raise UsageError(f"unknown family {parts[0]!r}")
    try:
        m, ikp, ikz = int(parts[1]), int(parts[2]), int(parts[3])
        val = complex(float(parts[4]), float(parts[5]))
    except ValueError as exc:
        raise UsageError(f"malformed amplitude {text!r}") from exc
    if not cmath.isfinite(val):
        raise UsageError(f"amplitude must be finite, got {text!r}")
    return fam, m, ikp, ikz, val


def cmd_expect(args, cfg):
    cfg, lat = _with_lattice_flags(args, cfg)
    alpha = np.zeros(lat.dim, dtype=complex)
    for text in args.amp or []:
        fam, m, ikp, ikz, val = parse_amplitude(text)
        if not (cfg.m_range[0] <= m <= cfg.m_range[1]):
            raise UsageError(f"amplitude m={m} outside lattice range {cfg.m_range}")
        if not (0 <= ikp < len(cfg.k_perp)) or not (0 <= ikz < len(cfg.k_z)):
            raise UsageError(f"amplitude node ({ikp},{ikz}) outside the lattice")
        alpha[lat.index(fam, m, ikp * len(cfg.k_z) + ikz)] += val

    obs = build_observables(lat)
    rows = [("energy", obs["energy"]), ("number", obs["number"])]
    for which in ("P", "L", "S"):
        v1, v2, v3 = cartesian(obs, which)
        rows += [(f"{which}1", v1), (f"{which}2", v2), (f"{which}3", v3)]
    # amplitudes that are finite one by one can still overflow a quadratic
    # form; refuse them before writing anything
    with np.errstate(over="ignore", invalid="ignore"):
        zero = zero_points(lat)  # + 0.0 on the other rows turns a -0.0 part into +0.0
        values = [(name, coherent_expectation(op, alpha) + complex(zero.get(name, 0.0)))
                  for name, op in rows]
        sigma = stokes_expectations(lat, alpha).reshape(3, -1, len(cfg.k_perp), len(cfg.k_z))
    if not (all(cmath.isfinite(v) for _, v in values) and np.all(np.isfinite(sigma))):
        raise UsageError("amplitudes too large: an expectation value overflows")
    lines = ["observable,re,im"]
    for name, val in values:
        lines.append(f"{name},{_fmt(val.real)},{_fmt(val.imag)}")
    # one label per Stokes value, in (m, ikp, ikz, k) order; the values go through one
    # template, which renders a float as _fmt does
    labels = (f"sigma{k + 1}[m={m};ikp={ikp};ikz={ikz}]," for m, ikp, ikz, k in itertools.product(
        lat.m_values, range(len(cfg.k_perp)), range(len(cfg.k_z)), range(3)))
    parts = np.moveaxis(sigma, 0, -1).ravel().view(float).reshape(-1, 2).tolist()
    lines += [label + "%.17g,%.17g" % tuple(part) for label, part in zip(labels, parts)]
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def cmd_expand(args, cfg):
    which = args.which.upper()
    if which not in ("M", "N"):
        raise UsageError(f"--which must be M or N, got {args.which!r}")
    K = _mode_index(TM, args, cfg.c)
    c = cfg.c
    omega = K.omega(c)
    rho = args.rho_sample if args.rho_sample is not None else 1.5 / args.kperp
    if not 0 <= rho < math.inf:  # NaN fails the comparison too
        raise UsageError(f"--rho-sample must be finite and >= 0, got {_fmt(rho)}")
    if not max(1, abs(args.m)) <= args.jmax <= MAX_ORDER:
        raise UsageError(f"--jmax must lie in [max(1, |m|), {MAX_ORDER}], got {args.jmax} for m = {args.m}")
    phi, z = 0.4, 0.2
    point = (rho * math.cos(phi), rho * math.sin(phi), z)
    p = CylPoint(rho, phi, z, 0.0)
    evaluator = eval_N if which == "N" else eval_M
    direct = evaluator(args.m, args.kperp, args.kz, p, c=c)
    ref = float(np.abs(direct).max())

    rows = []
    for j, aE, aM, total in partial_sums(which, args.m, args.kperp, args.kz, point, args.jmax, c):
        err = float(np.abs(total - direct).max() / (ref or 1.0))
        rows.append((j, aE, aM, err))

    lines = [
        f"# mode {which}, m={args.m}, k_perp={_fmt(args.kperp)}, k_z={_fmt(args.kz)}",
        f"# sample point rho={_fmt(rho)}, phi={_fmt(phi)}, z={_fmt(z)}",
        "# rows carry m_j = m only: coefficients vanish up to rounding otherwise",
        f"# partial sums converge once j exceeds omega*r/c = {_fmt(omega * math.hypot(rho, z) / c)}"
        " (r = |sample point|): the spherical Bessel factor decays there, the coefficients do not",
    ]
    if ref == 0:  # on the axis for |m| >= 2, and for M at m = 0
        lines.append("# the sampled field is zero: recon_rel_err holds the absolute error")
    lines.append("j,u_re,u_im,v_re,v_im,recon_rel_err")
    for j, aE, aM, err in rows:
        lines.append(
            f"{j},{_fmt(aE.real)},{_fmt(aE.imag)},{_fmt(aM.real)},{_fmt(aM.imag)},{_fmt(err)}"
        )
    _write_output("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


_LATTICE_FLAGS = ("--m-range", "--kperp", "--kz")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _add_lattice_flags(parser):
    parser.add_argument("--m-range", dest="m_range", default=None, help="like -3..3")
    parser.add_argument("--kperp", default=None, help="comma list, like 0.5,1.0")
    parser.add_argument("--kz", default=None, help="comma list, like 1.0,2.0")


def _attach_negative_values(argv):
    """['--kz', '-1,2'] -> ['--kz=-1,2'] for the lattice flags.

    argparse takes a separate token that starts with '-' and is not a
    plain number (like -8..8 or -1.0,2.0) for an option, not a value.
    """
    out = []
    for tok in argv:
        if out and out[-1] in _LATTICE_FLAGS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


@functools.cache  # one parser per process: building it costs about as much as a small run
def build_parser():
    parser = argparse.ArgumentParser(
        prog="besselbeams",
        description="Bessel-beam mode fields, observables and verification suites.",
    )
    parser.add_argument("--config", default=None, help="configuration file path")
    parser.add_argument("--version", action="version", version=f"besselbeams {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="sample fields on a plane grid (CSV)")
    p_field.add_argument("--family", required=True, help="tm or te")
    p_field.add_argument("--m", type=int, required=True)
    p_field.add_argument("--kperp", type=float, required=True)
    p_field.add_argument("--kz", type=float, required=True)
    p_field.add_argument("--which", default="EB", help="EB (default), M, N or A")
    p_field.add_argument("--plane", default="z=0", help="fixed axis, like z=0")
    p_field.add_argument("--grid", default="64x64", help="points per free axis, like 64x64")
    p_field.add_argument("--extent", type=float, default=8.0)
    p_field.add_argument("--t", type=float, default=0.0)
    p_field.add_argument("--out", default=None)
    p_field.set_defaults(func=cmd_field)

    p_verify = sub.add_parser("verify", help="run a verification suite (JSON report)")
    p_verify.add_argument("suite", help="commutators, basis, quadrature, spherical or all")
    _add_lattice_flags(p_verify)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_expect = sub.add_parser("expect", help="coherent-state expectation table (CSV)")
    p_expect.add_argument("--amp", action="append", default=[],
                          help="family,m,ikp,ikz,re,im (repeatable)")
    _add_lattice_flags(p_expect)
    p_expect.add_argument("--out", default=None)
    p_expect.set_defaults(func=cmd_expect)

    p_expand = sub.add_parser("expand", help="spherical expansion coefficients (CSV)")
    p_expand.add_argument("--m", type=int, required=True)
    p_expand.add_argument("--kperp", type=float, required=True)
    p_expand.add_argument("--kz", type=float, required=True)
    p_expand.add_argument("--jmax", type=int, default=40)
    p_expand.add_argument("--which", default="N", help="N (default) or M")
    p_expand.add_argument("--rho-sample", dest="rho_sample", type=float, default=None)
    p_expand.add_argument("--out", default=None)
    p_expand.set_defaults(func=cmd_expand)
    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_attach_negative_values(argv))
    except SystemExit as exc:
        # argparse uses 2 for usage errors and 0 for --help/--version
        return int(exc.code or 0)
    try:
        # a bad --out costs no work; _write_output still maps a later OSError
        out = args.out
        if out is not None and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
            raise UsageError(f"cannot write {out}: it is a directory or its directory is missing")
        cfg = build_run_config(args.config)
        return args.func(args, cfg)
    except (UsageError, DomainError, LatticeError) as exc:
        # out-of-domain orders and degenerate lattices are bad input, not
        # verification failures
        print(f"besselbeams: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
