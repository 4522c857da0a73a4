"""Self-test of the benchmark: op generation, output checks and trace wrappers.

Run from the repository root (about a minute; it runs one pass of every
workload twice, in-process):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import spec
import workloads

run._prepare_environment()

import checks  # noqa: E402  (needs src/ on the path)
from besselbeams import cli, modes, specfun, verify  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_op_lists_follow_the_seed(workload):
    same = [workloads.make_pass(workload, 7, i) for i in range(3)]
    assert same == [workloads.make_pass(workload, 7, i) for i in range(3)]
    assert same != [workloads.make_pass(workload, 8, i) for i in range(3)]
    assert same[0] != same[1]  # each pass draws its own inputs


@pytest.fixture(scope="module", params=run.WORKLOADS)
def one_pass(request):
    """Pass 0 of a workload run twice in this process: untraced, then traced."""
    workload = request.param
    ops = workloads.make_pass(workload, 3, 0)
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as tmp:
        _, plain = run.run_pass(cli, checks, ops, Path(tmp))
        tracer = Tracer()
        _, traced = run.run_pass(cli, checks, ops, Path(tmp), tracer)
    return workload, plain, traced, tracer


def test_pass_outputs_check_and_repeat(one_pass):
    _, plain, traced, _ = one_pass
    assert all(r["passed"] for r in plain + traced), [r["reason"] for r in plain if not r["passed"]]
    assert [r["digest"] for r in plain] == [r["digest"] for r in traced]


def test_layers_busy_and_bypassed_as_declared(one_pass):
    workload, _, _, tracer = one_pass
    for row in spec.LAYER_TABLE:
        if row.layer == "trace":
            continue
        if workload in row.on:
            assert tracer.calls[row.layer] > 0, row.layer
        if workload in row.bypass:
            assert tracer.calls[row.layer] == 0, row.layer
    metrics = tracer.metrics(1.0)
    assert set(metrics) == {m["name"] for m in run.BENCH["per_layer"]}
    if workload == "verify-all":
        ratio = metrics["specfun.bessel_j_outer.distinct_ratio"]
        assert ratio == pytest.approx(15 / 98)


def test_tracer_totals_cross_the_process_boundary(one_pass):
    _, _, _, tracer = one_pass
    merged = Tracer()
    merged.merge(json.loads(json.dumps(tracer.state())))
    assert merged.metrics(1.0) == tracer.metrics(1.0)
    assert len(merged.spans) == len(tracer.spans)


def test_wrappers_sit_at_the_lookup_site_and_come_off():
    originals = {(id(o), a): o.__dict__[a] for o, a, *_ in Tracer().sites()}
    tracer = Tracer()
    tracer.install()
    try:
        assert modes.bessel_j is not specfun.bessel_j  # modes' own name is wrapped
        assert cli.eval_E.__wrapped__ is modes.eval_E
        assert cli.expansion_coefficients is verify.expansion_coefficients
        with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench-tmp-") as tmp:
            cli.main(["field", "--family", "te", "--m", "1", "--kperp", "1", "--kz", "2",
                      "--grid", "3x3", "--out", str(Path(tmp) / "f.csv")])
        # specfun.bessel_j_outer as verify reaches it, through the module attribute
        wp = verify.WavepacketSpec(modes.TM, 1, 1.0, 0.08, 2.0, 0.12)
        F = verify.smear_mode("M", wp, 24, 24)
        quad = verify._CylinderQuadrature(verify.QuadratureDomain(5.0, 5.0, 24, 24))
        verify.volume_dot(F, F, quad)
    finally:
        tracer.uninstall()
    assert tracer.calls["specfun.bessel_scalar"] > 0
    assert tracer.calls["modes.eval"] == 9 * 2  # E and B at 9 points
    assert tracer.calls["specfun.bessel_j_outer"] > 0
    assert tracer.calls["verify.radial"] > 0 and tracer.calls["verify.contract"] == 1
    for (key, attr), original in originals.items():
        owner = next(o for o, a, *_ in Tracer().sites() if (id(o), a) == (key, attr))
        assert owner.__dict__[attr] is original, attr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fields", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
