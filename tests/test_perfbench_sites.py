"""The benchmark's tracer finds every name it wraps in the package.

perfbench/tracing.py replaces functions at their lookup sites by module or
class attribute; a name deleted or moved in the package would make
``perfbench/run.py --trace 1`` fail to install its tracer.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_is_defined_at_its_site(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer

    sites = Tracer().sites()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, *_ in sites if attr not in owner.__dict__]
    assert sites and not missing


def test_algebra_commands_reach_the_algebra_layers_and_no_bypassed_one(monkeypatch, tmp_path):
    # tier-1's copy of the benchmark self-test's busy and bypass columns for
    # the algebra workload: its three commands, each once, on small lattices
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("BESSELBEAMS_CONFIG", raising=False)
    from besselbeams import cli
    from spec import LAYER_TABLE
    from tracing import Tracer

    lattice = ("--m-range=-3..3", "--kperp", "0.5,1.5", "--kz", "1,2")
    commands = (
        ("verify", "basis", *lattice),
        ("verify", "commutators", *lattice),
        ("expect", *lattice, "--amp", "tm,0,1,0,0.5,0", "--amp", "te,1,0,1,0.3,-0.2"),
    )
    tracer = Tracer()
    tracer.install()
    try:
        codes = [cli.main([*argv, "--out", str(tmp_path / f"out{i}")]) for i, argv in enumerate(commands)]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    calls = tracer.calls
    rows = [row for row in LAYER_TABLE if row.layer != "trace"]  # "trace" is a ratio, not a layer
    idle = [row.layer for row in rows if "algebra" in row.on and not calls[row.layer]]
    reached = {row.layer: calls[row.layer] for row in rows if "algebra" in row.bypass and calls[row.layer]}
    assert idle == [] and reached == {}
