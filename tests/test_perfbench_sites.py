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
