"""Command-line interface: exit codes, deterministic output, schemas."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from besselbeams import cli, verify
from besselbeams.modes import CylPoint, ModeIndex, NormalizationConvention
from besselbeams.verify import RelationResult


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


SMALL_VERIFY = [
    "verify", "commutators", "--m-range=-3..3", "--kperp", "1.0", "--kz", "2.0",
]


class TestExitCodes:
    def test_unknown_suite_is_usage_error(self, capsys):
        code, out, err = run(["verify", "nosuch"], capsys)
        assert code == 2
        assert out == ""
        assert "unknown suite" in err

    def test_malformed_m_range(self, capsys):
        code, _, err = run(["verify", "basis", "--m-range=banana"], capsys)
        assert code == 2
        assert "m range" in err

    def test_amp_outside_lattice(self, capsys):
        code, _, err = run(
            ["expect", "--amp", "tm,99,0,0,1,0"], capsys
        )
        assert code == 2
        assert "outside" in err

    def test_usage_error_leaves_no_partial_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code, _, _ = run(["verify", "nosuch", "--out", str(out)], capsys)
        assert code == 2
        assert not out.exists()

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 2

    def test_expected_failures_exit_zero(self, capsys):
        # width 7, the narrowest window the commutators accept
        code, out, _ = run(SMALL_VERIFY, capsys)
        assert code == 0
        report = json.loads(out)
        failing = {r["name"] for r in report["results"] if not r["pass"]}
        # printed-form conflicts are present but expected
        assert failing == set(cli.DEFAULT_EXPECTED_FAIL[:2])

    @pytest.mark.parametrize("m_range", ["0..0", "-1..0", "-1..1", "0..3", "-2..2",
                                         "-3..2", "-2..3", "0..5"])
    def test_commutator_windows_narrower_than_7_are_refused(self, m_range, tmp_path, capsys):
        # below width 7 the interior block holds no two m values 2 apart, and
        # the flagged [S+,L-] row passed with residual 0 at widths 5 and 6
        out = tmp_path / "w.json"
        for suite in ("commutators", "all"):
            code, _, err = run(["verify", suite, f"--m-range={m_range}", "--out", str(out)], capsys)
            assert code == 2
            assert err.startswith("besselbeams: error: commutators need an m_range at least 7 wide")
            assert err.count("\n") == 1
            assert not out.exists()

    def test_default_expected_fail_is_the_flag_list(self):
        # the names and their order that configs and the benchmark's checks read
        assert cli.DEFAULT_EXPECTED_FAIL == (
            "commutator: [S+,L+] = -hbar S3 (printed)",
            "commutator: [S+,L-] = -i hbar^2 sum (c kz/omega)"
            "(a1_{m-1} a2+_{m+1} - a2_{m-1} a1+_{m+1}) (printed)",
            "quadrature: int M' . (L+ M) dV = 0 (printed)",
            "spherical: printed u phase matches projection coefficient (flagged)",
        )

    def test_every_flagged_relation_fails_beside_its_passing_companion(self, tmp_path):
        out = tmp_path / "a.json"
        assert cli.main(["verify", "all", "--out", str(out)]) == 0
        meta, results = json.loads(out.read_text()).values()
        passed = {r["name"]: r["pass"] for r in results}
        for flagged, companion in verify.FLAGGED.items():
            assert (passed[flagged], passed[companion]) == (False, True), flagged
        assert (meta["unexpected_passes"], meta["unexpected_pass_names"]) == (0, [])

    def test_emptied_expected_fail_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("verify.expected_fail =\n")
        code, out, _ = run(["--config", str(cfg)] + SMALL_VERIFY, capsys)
        assert code == 1
        report = json.loads(out)
        assert report["metadata"]["unexpected_failures"] > 0


FIELD = ["field", "--family", "tm", "--m", "1", "--kperp", "1"]


class EnvConfig(bytes):
    """Config file contents passed through BESSELBEAMS_CONFIG, not --config."""


@pytest.mark.parametrize(
    "argv, config",
    [
        (["expand", "--m", "2", "--kperp", "1", "--kz", "2", "--rho-sample", "-1"], None),
        (["expand", "--m", "300", "--kperp", "1", "--kz", "2"], None),
        (["field", "--family", "tm", "--m", "500", "--kperp", "1", "--kz", "2", "--grid", "2x2"], None),
        (FIELD + ["--kz", "2", "--extent", "nan"], None),
        (["verify", "basis", "--m-range=0..1"], None),
        (["verify", "commutators", "--m-range=0..2"], None),
        (["verify", "commutators", "--kperp", "0"], None),
        (["verify", "commutators", "--kperp", "nan"], None),
        (["verify", "commutators"], "tol.algebra = nan"),
        (["verify", "basis", "--kz", "inf"], None),
        (FIELD + ["--kz", "nan", "--grid", "2x2"], None),
        (FIELD + ["--kz", "inf", "--grid", "2x2"], None),
        (FIELD + ["--kz", "2", "--grid", "2x2", "--t", "nan"], None),
        (["expand", "--m", "1", "--kperp", "1", "--kz", "nan"], None),
        (["expect", "--kz", "nan"], None),
        (["expect", "--amp", "tm,0,0,0,nan,0"], None),
        (["expect", "--amp", "te,1,0,1,0.5,inf"], None),
        (["expect", "--amp", "tm,0,0,0,1e200,0"], None),
        (FIELD + ["--kz", "2", "--grid", "2x2", "--plane", "z=nan"], None),
        (FIELD + ["--kz", "2", "--grid", "2x2", "--plane", "z=inf"], None),
        (["verify", "commutators"], "units.hbar = nan"),
        (["verify", "quadrature"], "quadrature.margin = nan"),
        (FIELD + ["--kz", "2", "--grid", "2x2"], "units.c = inf"),
        (["verify", "commutators"], "units.c = -1"),
        (["verify", "quadrature"], "tol.quadrature = -1"),
        (["verify", "quadrature"], "quadrature.margin = 1e300"),
        (["expand", "--m", "5", "--kperp", "1", "--kz", "2", "--jmax", "3"], None),
        # NaN residuals (invalid JSON), false failures, and an OverflowError
        # from hbar^2 at the parent; refused now
        (["verify", "commutators"], "units.hbar = 1e-200"),
        (["verify", "commutators"], "units.hbar = 1e-160"),
        (["verify", "commutators"], "units.hbar = 1e160"),
        (["verify", "commutators"], "units.hbar = 1e200"),
        (["verify", "basis"], "units.c = 1e200"),
        # finite inputs whose phase, k_perp/k_z factor or grid overflow:
        # all-NaN rows with exit 0, or a misleading bessel_j error, before
        (FIELD + ["--kz", "2", "--grid", "2x2", "--plane", "z=1e308"], None),
        (FIELD + ["--kz", "2", "--grid", "2x2", "--t", "1e308"], None),
        (FIELD + ["--kz", "1e-320", "--grid", "2x2"], None),
        (FIELD + ["--kz", "2", "--grid", "2x2", "--extent", "1e308"], None),
        # a NaN residual (invalid JSON) and a ZeroDivisionError from an
        # underflowed beta^2 at unit hbar and c, before
        (["verify", "commutators", "--kperp", "1e-100", "--kz", "1e100"], None),
        (["verify", "basis", "--kperp", "1e100", "--kz", "1e-100"], None),
        # omega = c hypot(k_perp, k_z) underflows to 0: a ZeroDivisionError, before
        (["field", "--family", "tm", "--m", "1", "--kperp", "1e-300", "--kz", "1e-300",
          "--grid", "2x2"], "units.c = 1e-100"),
        (["expand", "--m", "1", "--kperp", "1e-300", "--kz", "1e-300"], "units.c = 1e-100"),
        (["expect", "--kperp", "1e-300", "--kz", "1e-300"], "units.c = 1e-100"),
        (["verify", "commutators", "--kperp", "1e-300", "--kz", "1e-300"], "units.c = 1e-100"),
        (["verify", "basis", "--kperp", "1e-300", "--kz", "1e-300"], "units.c = 1e-100"),
        # a NaN residual dropped by max(): exit 0 with residual 0, before
        (["verify", "basis", "--kperp", "1e-100", "--kz", "1e-100"], "units.hbar = 1e-100"),
        (["verify", "basis", "--kz", "1e100"], "units.hbar = 1e100"),
        # nodes outside [1e-100, 1e100]: an OverflowError or ZeroDivisionError
        # from a node factor, before
        (["verify", "commutators", "--kperp", "1e160", "--kz", "1"], None),
        (["verify", "commutators", "--kz", "1e160"], None),
        (["verify", "commutators", "--kperp", "1e-200", "--kz", "1e-200"], None),
        (["verify", "commutators", "--kperp", "1e-170", "--kz", "1"], None),
        # NaN rows from degree 646 on, with exit 0, before
        (["expand", "--m", "2", "--kperp", "1", "--kz", "2", "--jmax", "201"], None),
        # a config that is not UTF-8: a UnicodeDecodeError traceback, before
        (["verify", "basis"], b"units.hbar = \xff"),
        (["verify", "basis"], EnvConfig(b"units.hbar = \xff")),
    ],
    ids=["rho-sample", "expand-order", "field-order", "extent-nan", "basis-narrow",
         "commutators-narrow", "kperp-zero", "kperp-nan", "tol-nan", "basis-kz-inf",
         "field-kz-nan", "field-kz-inf", "field-t-nan", "expand-kz-nan", "expect-kz-nan",
         "expect-amp-nan", "expect-amp-inf", "expect-amp-overflow", "field-plane-nan", "field-plane-inf",
         "config-hbar-nan", "config-margin-nan", "config-c-inf", "config-c-negative",
         "config-tol-negative", "config-margin-huge", "expand-jmax-below-m",
         "config-hbar-1e-200", "config-hbar-1e-160", "config-hbar-1e160", "config-hbar-1e200",
         "config-c-1e200", "field-plane-1e308", "field-t-1e308", "field-kz-1e-320",
         "field-extent-1e308", "commutators-residual-nan", "basis-beta-underflow",
         "field-omega-underflow", "expand-omega-underflow", "expect-omega-underflow",
         "commutators-omega-underflow", "basis-omega-underflow", "basis-nan-hbar-1e-100",
         "basis-nan-hbar-1e100", "kperp-1e160", "kz-1e160", "nodes-1e-200", "kperp-1e-170",
         "expand-jmax-above-max-order", "config-not-utf8", "env-config-not-utf8"],
)
def test_bad_input_is_a_usage_error(argv, config, tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.txt"
    if config is not None:
        cfg.write_bytes((config if isinstance(config, bytes) else config.encode()) + b"\n")
        if isinstance(config, EnvConfig):
            monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        else:
            argv = ["--config", str(cfg)] + argv
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused, not computed with numpy warnings
        code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("besselbeams: error: ")
    assert err.count("\n") == 1
    assert not out.exists()
    if isinstance(config, bytes):
        assert f"cannot read config {cfg}: " in err


OUT_COMMANDS = {
    "field": FIELD + ["--kz", "2", "--grid", "2x2"],
    "verify": ["verify", "all"],
    "expect": ["expect"],
    "expand": ["expand", "--m", "1", "--kperp", "1", "--kz", "2", "--jmax", "4"],
}
# the work each command does before it writes: none may run when --out is bad
OUT_WORK = {
    "field": ("_field_samples",),
    "verify": ("commutator_suite", "basis_suite", "quadrature_suite", "spherical_suite"),
    "expect": ("build_observables", "stokes_expectations"),
    "expand": ("partial_sums",),
}


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("command", list(OUT_COMMANDS))
def test_unwritable_out_is_a_usage_error(command, where, tmp_path, capsys, monkeypatch):
    # an IsADirectoryError or FileNotFoundError traceback with exit 1, and
    # later exit 2 only after the work (13 s for verify all), before
    def not_reached(*args, **kwargs):
        raise AssertionError("ran before --out was checked")

    for name in OUT_WORK[command]:
        monkeypatch.setattr(cli, name, not_reached)
    out = tmp_path if where == "directory" else tmp_path / "missing" / "out.txt"
    code, stdout, err = run(OUT_COMMANDS[command] + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith(f"besselbeams: error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert stdout == ""
    assert not (tmp_path / "missing").exists()


MODE_COMMANDS = {
    "field": ["field", "--family", "te", "--kperp", "1", "--kz", "2", "--grid", "2x2"],
    "expand": ["expand", "--kperp", "1", "--kz", "2", "--jmax", "199"],
}


@pytest.mark.parametrize("m", [199, -199])
@pytest.mark.parametrize("command", list(MODE_COMMANDS))
def test_largest_order_is_accepted(command, m, capsys):
    code, out, err = run(MODE_COMMANDS[command] + ["--m", str(m)], capsys)
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("m", [200, -200])
@pytest.mark.parametrize("command", list(MODE_COMMANDS))
def test_order_past_the_largest_names_the_flag(command, m, tmp_path, capsys):
    # "Bessel order |m|=201 exceeds 200", an order never given, before
    out = tmp_path / "out"
    code, _, err = run(MODE_COMMANDS[command] + ["--m", str(m), "--out", str(out)], capsys)
    assert code == 2
    assert err == f"besselbeams: error: --m must lie in [-199, 199], got {m}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, config",
    [
        (["verify", "spherical", "--kz", "nan"], None),
        (["verify", "quadrature", "--kperp", "nan"], None),
        (["verify", "quadrature", "--kz", "0"], None),
        (["verify", "spherical"], "lattice.k_perp = inf"),
    ],
    ids=["spherical-kz-nan", "quadrature-kperp-nan", "quadrature-kz-zero",
         "spherical-config-kperp-inf"],
)
def test_every_suite_checks_the_lattice_flags(argv, config, tmp_path, capsys):
    # quadrature and spherical never read the lattice, but still refuse bad input
    if config is not None:
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config + "\n")
        argv = ["--config", str(cfg)] + argv
    out = tmp_path / "out"
    code, _, err = run(argv + ["--out", str(out)], capsys)
    assert code == 2
    assert err.startswith("besselbeams: error: ")
    assert not out.exists()


@pytest.mark.parametrize("spaced", [True, False], ids=["spaced", "joined"])
@pytest.mark.parametrize("command", [["verify", "basis"], ["expect"]], ids=["verify", "expect"])
def test_negative_lattice_flag_values(command, spaced, capsys):
    # '--m-range -2..2' and '--kz -1.0,2.0' mean the same as the '=' forms
    values = [("--m-range", "-2..2"), ("--kperp", "1.0"), ("--kz", "-1.0,2.0")]
    flags = [tok for f, v in values for tok in ([f, v] if spaced else [f"{f}={v}"])]
    code, out, err = run(command + flags, capsys)
    assert code == 0, err
    if command[0] == "verify":
        config = json.loads(out)["metadata"]["config"]
        assert (config["lattice.m_range"], config["lattice.k_z"]) == ("-2..2", "-1,2")
    else:
        rows = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in out.strip().split("\n")[1:]}
        # zero-point P3: (1/2) hbar kz summed over 2 families x 5 m x kz in {-1, 2}
        assert rows["P3"] == pytest.approx(5.0)


class TestConfig:
    def test_env_var_config_honored(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("units.hbar = 2.0  # doubled\nlattice.k_perp = 1.0\n")
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
        code, out, _ = run(["verify", "basis", "--m-range=-3..3", "--kz", "2.0"], capsys)
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["config"]["units.hbar"] == "2"
        assert meta["config"]["lattice.k_perp"] == "1"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("units.speed = 3\n")
        code, _, err = run(["--config", str(cfg), "verify", "basis"], capsys)
        assert code == 2
        assert "unknown config key" in err

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("lattice.m_range = -2..2\n")
        code, out, _ = run(
            ["--config", str(cfg), "verify", "basis", "--m-range=-3..3",
             "--kperp", "1.0", "--kz", "2.0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["metadata"]["config"]["lattice.m_range"] == "-3..3"

    def test_expected_fail_names_are_trimmed(self, tmp_path, capsys):
        a, b = cli.DEFAULT_EXPECTED_FAIL[:2]  # the two flagged commutator rows
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"verify.expected_fail = {a};  {b} \n")
        code, out, _ = run(["--config", str(cfg)] + SMALL_VERIFY, capsys)
        assert code == 0
        assert json.loads(out)["metadata"]["config"]["verify.expected_fail"] == f"{a};{b}"

    def test_report_is_valid_json_for_any_string(self, tmp_path, capsys):
        # a tab is a control character that JSON strings must escape
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("verify.expected_fail = a\tb;\u00e9\n", encoding="utf-8")
        code, out, _ = run(["--config", str(cfg)] + SMALL_VERIFY, capsys)
        assert code == 1  # the flagged relations are no longer expected
        assert json.loads(out)["metadata"]["config"]["verify.expected_fail"] == "a\tb;\u00e9"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("config", [
    "units.hbar = 1e-100",
    "units.hbar = 1e100",
    "units.c = 1e-100",
    "units.c = 1e100",
    "units.hbar = 1e-100\nunits.c = 1e100",
    "units.hbar = 1e100\nunits.c = 1e-100",
])
def test_units_at_the_ends_of_their_range(config, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config + "\n")
    for suite in ("commutators", "basis"):
        code, out, err = run(["--config", str(cfg), "verify", suite], capsys)
        assert code == 0, err
        report = json.loads(out, parse_constant=_no_constant)
        assert report["metadata"]["unexpected_failures"] == 0


@pytest.mark.parametrize("config,factor", [
    ("units.hbar = 1e-16", 1e-16),
    ("units.hbar = 1e16", 1e16),
    ("units.c = 1e8", 1e8),
])
def test_verdicts_and_expectations_do_not_depend_on_units(config, factor, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config + "\n")
    for suite in ("commutators", "basis"):
        code, out, _ = run(["--config", str(cfg), "verify", suite], capsys)
        assert code == 0, [r for r in json.loads(out)["results"] if not r["pass"]]
    amp = ["expect", "--amp", "tm,0,0,0,1,0"]
    _, unit, _ = run(amp, capsys)
    _, scaled, _ = run(["--config", str(cfg)] + amp, capsys)
    energy = [float(out.split("\n")[1].split(",")[1]) for out in (unit, scaled)]
    # the energy is hbar w (|alpha|^2 + zero point); both scale with hbar and with c
    assert energy[1] == pytest.approx(factor * energy[0], rel=1e-14)


@pytest.fixture(scope="module")
def default_spherical():
    return verify.spherical_suite()


@pytest.mark.parametrize("hbar,c", [(1.054571817e-34, 299792458.0), (1e16, 1e-8), (0.5, 3.0)],
                         ids=["si", "large-hbar-small-c", "half-hbar-triple-c"])
def test_quadrature_and_spherical_read_no_units(hbar, c, default_quadrature, default_spherical,
                                                tmp_path, capsys):
    """Both suites run at hbar = c = 1 and read no units: every residual and
    verdict under (units.hbar, units.c) equals its hbar = c = 1 value."""
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"units.hbar = {hbar!r}\nunits.c = {c!r}\n")
    for suite, unit in (("quadrature", default_quadrature[0]), ("spherical", default_spherical)):
        code, out, _ = run(["--config", str(cfg), "verify", suite], capsys)
        assert code == 0
        got = {r["name"]: (r["residual"], r["pass"], r["inconclusive"])
               for r in json.loads(out)["results"]}
        assert got == {r.name: (r.residual, r.passed, r.inconclusive) for r in unit}, suite


class TestField:
    ARGS = [
        "field", "--family", "tm", "--m", "0", "--kperp", "1.0", "--kz", "2.0",
        "--grid", "9x9", "--extent", "4.0",
    ]

    def test_header_and_row_count(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "x,y,z,t,Ex_re,Ex_im,Ey_re,Ey_im,Ez_re,Ez_im,"
            "Bx_re,Bx_im,By_re,By_im,Bz_re,Bz_im"
        )
        assert len(lines) == 1 + 81

    def test_rerun_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(self.ARGS + ["--out", str(a)]) == 0
        assert cli.main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_tm_m0_axis_row_is_axial(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        mid = [ln for ln in lines[1:] if ln.startswith("0,0,")]
        assert len(mid) == 1
        row = dict(zip(header, mid[0].split(",")))
        assert float(row["Ex_re"]) == 0.0 and float(row["Ey_im"]) == 0.0
        assert math.hypot(float(row["Ez_re"]), float(row["Ez_im"])) > 0.0

    def test_bad_which_rejected(self, capsys):
        code, _, err = run(self.ARGS + ["--which", "Q"], capsys)
        assert code == 2
        assert "--which" in err

    @pytest.mark.parametrize("family,m", [("te", 0), ("tm", 1), ("tm", -1)])
    def test_rows_match_formatting_each_number(self, family, m, capsys):
        # odd sides put grid points on the axis of the x = 0 plane
        code, out, _ = run(["field", "--family", family, "--m", str(m), "--kperp", "1.1",
                            "--kz", "-0.7", "--plane", "x=0", "--grid", "9x7",
                            "--extent", "3", "--t", "0.3"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        K = ModeIndex(family.upper(), m, 1.1, -0.7)
        norm = NormalizationConvention()
        expected = []
        for z in np.linspace(-3.0, 3.0, 7):
            for y in np.linspace(-3.0, 3.0, 9):
                p = CylPoint(math.hypot(0.0, y), math.atan2(y, 0.0), float(z), 0.3)
                values = [0.0, y, z, 0.3]
                for vec in (cli.eval_E(K, p, norm), cli.eval_B(K, p, norm)):
                    for comp in vec:
                        values += [comp.real, comp.imag]
                expected.append(",".join(cli._fmt(v) for v in values))
        assert rows == expected
        assert any("-0" in row.split(",") for row in rows)  # signed zeros are printed

    @pytest.mark.parametrize("plane,grid,calls", [
        ("z=0", "3x3", 9),    # one per point, as the benchmark's tracer pins
        ("x=0.4", "5x4", 5),  # one per y: the 4 z values go in one call
        ("y=0", "3x4", 3),    # one per x
    ])
    def test_one_call_per_transverse_point_and_field(self, plane, grid, calls, monkeypatch,
                                                     capsys):
        seen = []
        for name in ("eval_E", "eval_B"):
            f = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _f=f, _n=name: seen.append(_n) or _f(*a))
        code, out, _ = run(["field", "--family", "te", "--m", "1", "--kperp", "1", "--kz", "2",
                            "--plane", plane, "--grid", grid], capsys)
        assert code == 0
        n_a, n_b = map(int, grid.split("x"))
        assert len(out.strip().split("\n")) == 1 + n_a * n_b
        assert sorted(seen) == ["eval_B"] * calls + ["eval_E"] * calls


class TestVerifyReport:
    def test_schema(self, capsys):
        code, out, _ = run(SMALL_VERIFY, capsys)
        report = json.loads(out)
        assert set(report) == {"metadata", "results"}
        meta = report["metadata"]
        for key in ("tool", "version", "command", "suite", "config",
                    "relations", "unexpected_failures", "inconclusive",
                    "unexpected_passes", "unexpected_pass_names"):
            assert key in meta
        assert list(meta)[-3:] == ["inconclusive", "unexpected_passes", "unexpected_pass_names"]
        assert meta["relations"] == len(report["results"])
        assert (meta["unexpected_passes"], meta["unexpected_pass_names"]) == (0, [])
        for r in report["results"]:
            assert list(r) == ["name", "residual", "tolerance", "pass", "notes", "inconclusive"]
            assert isinstance(r["pass"], bool) and r["inconclusive"] is False

    def test_inconclusive_result_exits_three(self, monkeypatch, capsys):
        undecided = RelationResult("quadrature: x", 1e-6, 1e-3, "convergence estimate 2e-3; ",
                                   inconclusive=True)
        monkeypatch.setattr(cli, "spherical_suite", lambda tol: [undecided])
        code, out, _ = run(["verify", "spherical"], capsys)
        assert code == 3
        meta, (result,) = json.loads(out).values()
        assert (meta["inconclusive"], meta["unexpected_failures"]) == (1, 0)
        assert (result["inconclusive"], result["pass"]) == (True, False)

    def test_flagged_relation_that_passes_exits_one(self, monkeypatch, capsys):
        # the printed form was not shown wrong, so the run cannot succeed
        flagged = "spherical: printed u phase matches projection coefficient (flagged)"
        assert flagged in cli.DEFAULT_EXPECTED_FAIL
        held = RelationResult(flagged, 0.0, 1e-3)
        monkeypatch.setattr(cli, "spherical_suite", lambda tol: [held])
        code, out, _ = run(["verify", "spherical"], capsys)
        assert code == 1
        meta, (result,) = json.loads(out).values()
        assert (meta["unexpected_failures"], meta["inconclusive"]) == (0, 0)
        assert (meta["unexpected_passes"], meta["unexpected_pass_names"]) == (1, [flagged])
        assert result["pass"] is True

    def test_ill_conditioned_rl_map_exits_three(self, capsys):
        # at k_perp/k_z = 1e6, rounding in the inverse R/L map alone leaves a
        # residual of 5.6e-11: above tol.algebra, within eps cond(T) = 2.2e-10
        code, out, _ = run(["verify", "basis", "--kperp", "1e6", "--kz", "1"], capsys)
        assert code == 3
        meta, results = json.loads(out).values()
        assert (meta["inconclusive"], meta["unexpected_failures"]) == (1, 0)
        (rl,) = [r for r in results if r["inconclusive"]]
        assert (rl["name"], rl["pass"]) == ("basis: S3 diagonal under R/L map", False)

    def test_report_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(SMALL_VERIFY + ["--out", str(a)]) == 0
        assert cli.main(SMALL_VERIFY + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_results_sorted_by_name(self, capsys):
        _, out, _ = run(SMALL_VERIFY, capsys)
        names = [r["name"] for r in json.loads(out)["results"]]
        assert names == sorted(names)


class TestExpect:
    def test_vacuum_zero_point(self, capsys):
        code, out, _ = run(
            ["expect", "--m-range", "0..0", "--kperp", "3.0", "--kz", "4.0"], capsys
        )
        assert code == 0
        rows = dict(
            (ln.split(",")[0], (float(ln.split(",")[1]), float(ln.split(",")[2])))
            for ln in out.strip().split("\n")[1:]
        )
        # two modes (TM, TE) at omega = 5: vacuum energy 2 * (1/2) * 5
        assert rows["energy"][0] == pytest.approx(5.0)
        assert rows["number"][0] == pytest.approx(1.0)
        # zero-point P3: two modes, each contributing (1/2) hbar kz = 2
        assert rows["P3"][0] == pytest.approx(4.0)

    def test_two_mode_transverse_momentum(self, capsys):
        # equal 0.5 amplitudes on neighboring m: <P2> = 2 kp |a|^2 = 0.5
        code, out, _ = run(
            [
                "expect", "--m-range", "0..1", "--kperp", "1.0", "--kz", "2.0",
                "--amp", "tm,0,0,0,0.5,0", "--amp", "tm,1,0,0,0.5,0",
            ],
            capsys,
        )
        assert code == 0
        rows = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in out.strip().split("\n")[1:]}
        assert rows["P2"] == pytest.approx(0.5, rel=1e-12)
        assert rows["P1"] == pytest.approx(0.0, abs=1e-15)

    def test_sigma_rows_cover_all_nodes(self, capsys):
        _, out, _ = run(
            ["expect", "--m-range", "0..1", "--kperp", "1.0,2.0", "--kz", "2.0"], capsys
        )
        names = [ln.split(",")[0] for ln in out.strip().split("\n")[1:]]
        sig = [n for n in names if n.startswith("sigma")]
        assert len(sig) == 3 * 2 * 2 * 1  # 3 components x 2 m x 2 ikp x 1 ikz


GOLDEN = Path(__file__).parent / "golden"
# TM and TE amplitudes, a repeated mode, -0.0 parts, and a negative k_z node
GOLDEN_AMPS = [
    "--kz=-1.5,2.0",
    "--amp", "tm,0,0,0,0.5,-0.0", "--amp", "te,1,1,0,-0.0,0.4",
    "--amp", "te,-2,2,1,0.7,-0.0", "--amp", "tm,0,0,0,0.25,0.1",
    "--amp", "tm,1,1,0,-0.3,0.2", "--amp", "tm,1,0,0,-0.3,0.2",
    "--amp", "te,2,1,0,0.1,-0.0",
]
GOLDEN_RUNS = {
    "expect_vacuum.csv": ["expect"],
    "expect_amplitudes.csv": ["expect"] + GOLDEN_AMPS,
    # units.hbar = 0.37, units.c = 2.9
    "expect_units.csv": ["--config", str(GOLDEN / "units.cfg"), "expect"] + GOLDEN_AMPS,
    "verify_commutators.json": ["verify", "commutators", "--m-range=-8..8"],
    "verify_basis.json": ["verify", "basis", "--m-range=-8..8"],
    # the narrowest accepted window: the interior block is m in {-1, 0, 1}
    "verify_commutators_width7.json": ["verify", "commutators", "--m-range=-3..3",
                                       "--kperp", "0.3,0.9,1.4", "--kz=-1.1,2.4"],
    # three k_perp nodes, a repeated mode with an exact zero part, and negative parts
    "expect_window.csv": ["expect", "--m-range=-6..6", "--kperp", "0.3,0.9,1.4", "--kz=-1.1,2.4",
                          "--amp", "te,-3,1,0,-0.7,-0.2", "--amp", "tm,5,2,1,0.3,-0.9",
                          "--amp", "tm,5,2,1,0.1,0.0"],
    # field planes: a z plane, odd planes through the axis, a y plane off the
    # axis with a negative k_z and t != 0, and the largest order; an x or y
    # plane takes all its z values in one call per transverse point
    "field_tm_eb.csv": ["field", "--family", "tm", "--m", "2", "--kperp", "1.0", "--kz", "2.0",
                        "--grid", "9x7"],
    "field_te_m_axis.csv": ["field", "--family", "te", "--m", "-3", "--which", "M",
                            "--kperp", "1.1", "--kz", "0.7", "--plane", "x=0", "--grid", "9x7",
                            "--extent", "3"],
    "field_tm_n_y.csv": ["field", "--family", "tm", "--m", "4", "--which", "N", "--kperp", "0.8",
                         "--kz=-1.3", "--plane", "y=0.7", "--grid", "7x9", "--t", "0.3"],
    "field_te_a_z.csv": ["field", "--family", "te", "--m", "1", "--which", "A", "--kperp", "1.3",
                         "--kz", "0.9", "--plane", "z=0.5", "--grid", "7x5", "--extent", "2.5",
                         "--t", "0.3"],
    "field_te_eb_m199.csv": ["field", "--family", "te", "--m", "199", "--kperp", "1.0",
                             "--kz=-2.0", "--plane", "y=0", "--grid", "9x5", "--extent", "240",
                             "--t", "0.3"],
}


@pytest.mark.parametrize("name", list(GOLDEN_RUNS))
def test_output_equals_its_golden_file_byte_for_byte(name, tmp_path):
    # the golden files fix every printed digit, signed zeros included
    out = tmp_path / name
    assert cli.main(GOLDEN_RUNS[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


class TestExpand:
    ARGS = ["expand", "--m", "2", "--kperp", "1.0", "--kz", "2.0", "--jmax", "12"]

    def test_rows_and_reconstruction_column(self, capsys):
        code, out, _ = run(self.ARGS, capsys)
        assert code == 0
        lines = [ln for ln in out.strip().split("\n") if not ln.startswith("#")]
        assert lines[0] == "j,u_re,u_im,v_re,v_im,recon_rel_err"
        assert len(lines) == 1 + (12 - 2 + 1)  # j from max(1,|m|)=2 to 12
        errs = [float(ln.split(",")[-1]) for ln in lines[1:]]
        assert errs[-1] < errs[0]  # reconstruction improves with j

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(self.ARGS + ["--out", str(a)]) == 0
        assert cli.main(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_does_not_depend_on_jmax(self, capsys):
        # |u_j| grows with j for a Bessel beam, so a header read off the
        # printed coefficients would change with the truncation
        headers = []
        for jmax in ("40", "150"):
            code, out, _ = run(self.ARGS[:-1] + [jmax], capsys)
            assert code == 0
            headers.append([ln for ln in out.split("\n") if ln.startswith("#")])
        assert headers[0] == headers[1]

    def test_bad_jmax(self, capsys):
        code, _, err = run(["expand", "--m", "2", "--kperp", "1.0", "--kz", "2.0",
                            "--jmax", "0"], capsys)
        assert code == 2

    def test_on_axis_sample(self, capsys):
        # on the axis M and N vanish for |m| >= 2: the column then holds the
        # absolute error; for |m| <= 1 the reconstruction stays exact
        for which in ("M", "N"):
            for m in (-1, 0, 1, 2, -3):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code, out, _ = run(["expand", "--m", str(m), "--kperp", "1.0", "--kz", "2.0",
                                        "--which", which, "--jmax", "12", "--rho-sample", "0"],
                                       capsys)
                assert code == 0
                errs = [float(ln.split(",")[-1]) for ln in out.strip().split("\n")
                        if ln[0].isdigit()]
                assert all(math.isfinite(e) for e in errs), (which, m)
                zero_field = abs(m) >= 2 or (which, m) == ("M", 0)
                assert ("# the sampled field is zero" in out) == zero_field, (which, m)
                assert errs[-1] <= 1e-12, (which, m, errs[-1])
