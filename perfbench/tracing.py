"""Per-layer tracing of the besselbeams package from outside the program.

``Tracer.install()`` replaces each traced function at the place the calling
module looks it up (``modes.bessel_j``, not only ``specfun.bessel_j``;
``cli.eval_E``; ``specfun.bessel_j_outer`` as ``verify`` reaches it through
the module attribute; methods on their classes) with a timing wrapper, and
``uninstall()`` puts every original back.  Nothing under ``src/`` changes.

Each wrapped call is a span: name (the layer), start, end, parent span and
op id.  A layer's self time is the span's duration minus the time its child
spans cover.  Spans are kept in memory and written out by the caller when
the run ends; the two leaf layers called per field point (scalar Bessel
calls and ``cli._fmt``) are counted and timed but keep no span records.

Every pass runs in its own process, so each pass has its own tracer;
``state()`` hands its totals to the parent, which sums them with ``merge()``.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from spec import LAYER_TABLE


class Tracer:
    """Per-layer call counts, self and inclusive times, counters and spans."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.extra = defaultdict(int)
        self.spans = []
        self.op_id = None
        self._outer_keys = set()
        self._stack = []
        self._next_id = 0
        self._patches = []
        self._origin = perf_counter()

    # -- installation -----------------------------------------------------

    def sites(self):
        """(owner, attribute, layer, keep_spans, counter) for every lookup site."""
        from besselbeams import cli, dynops, lattice, modes, specfun, verify

        quad, oracle, op = verify._CylinderQuadrature, lattice.FockOracle, lattice.QuadraticOperator
        self._point_type = modes.CylPoint
        out = [(specfun, "bessel_j_outer", "specfun.bessel_j_outer", True, self._count_outer)]
        out += [(modes, n, "specfun.bessel_scalar", False, None)
                for n in ("bessel_j", "bessel_j_prime", "bessel_j_over_x")]
        out += [(cli, n, "modes.eval", True, self._count_points)
                for n in ("eval_E", "eval_B", "eval_M", "eval_N", "eval_potential")]
        out += [
            (quad, "radial", "verify.radial", True, None),
            (quad, "axial", "verify.axial", True, None),
            (verify, "volume_dot", "verify.contract", True, None),
            (verify, "volume_cross", "verify.contract", True, None),
            (verify, "_vsh_grid", "verify.vsh_grid", True, None),
            (verify, "_spherical_wave_pair", "verify.spherical_wave", True, None),
            (cli, "_spherical_wave_pair", "verify.spherical_wave", True, None),
            (verify, "expansion_coefficients", "verify.expansion_coefficients", True, None),
            (cli, "expansion_coefficients", "verify.expansion_coefficients", True, None),
        ]
        out += [(cli, f"{s}_suite", f"verify.suite.{suite}", True, None)
                for s, suite in (("commutator", "commutators"), ("basis", "basis"),
                                 ("quadrature", "quadrature"), ("spherical", "spherical"))]
        out += [(m, "commutator", "lattice.commutator", True, None) for m in (lattice, verify, dynops)]
        out += [(op, n, "lattice.operator_add", True, None) for n in ("__add__", "__radd__")]
        out += [
            (oracle, "__init__", "lattice.fock", True, None),
            (oracle, "realize", "lattice.fock", True, None),
            (verify, "_fock_cross_check", "lattice.fock", True, None),
        ]
        out += [(m, "apply_basis", "lattice.apply_basis", True, self._count_dense)
                for m in (lattice, verify)]
        out += [(m, "coherent_expectation", "lattice.coherent_expectation", True, None)
                for m in (lattice, cli)]
        out += [(m, n, f"dynops.{n}", True, None)
                for n in ("build_observables", "build_stokes") for m in (dynops, cli, verify)]
        out += [(m, n, "dynops.basis_map", True, None)
                for n in ("make_pm_map", "make_rl_map") for m in (dynops, verify)]
        out += [
            (cli, "_fmt", "cli.serialize", False, self._count_fmt),
            (cli, "_json_text", "cli.serialize", True, None),
            (cli, "_write_output", "cli.serialize", True, None),
        ]
        return out

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for owner, attr, layer, keep, counter in self.sites():
            original = owner.__dict__[attr]
            # one wrapper per function object, shared by all its lookup sites
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self._wrap(original, layer, keep, counter)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrappers[key])

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, layer, keep_span, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(args)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]  # span id, time covered by children
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dur - frame[1]
                tracer.incl_s[layer] += dur
                if parent is not None:
                    parent[1] += dur
                if keep_span:
                    tracer.spans.append((
                        frame[0], layer, t0 - tracer._origin, t1 - tracer._origin,
                        parent[0] if parent is not None else None, tracer.op_id,
                    ))

        return traced

    # -- counters at the same boundaries ----------------------------------

    def _count_outer(self, args):
        m, k, x = args[:3]
        k = np.asarray(k, dtype=float)
        x = np.asarray(x, dtype=float)
        key = (self.op_id, abs(int(m)), k.tobytes(), x.tobytes())
        if key not in self._outer_keys:  # keys hold the op id: distinct across passes too
            self._outer_keys.add(key)
            self.extra["specfun.bessel_j_outer.distinct"] += 1
        self.extra["specfun.bessel_j_outer.bytes"] += 8 * k.size * x.size

    def _count_points(self, args):
        p = next((a for a in args if isinstance(a, self._point_type)), None)
        self.extra["modes.eval.points"] += np.size(p.rho) if p is not None else 1

    def _count_dense(self, args):
        A, bm = args[:2]
        dense = sum(isinstance(M, np.ndarray) for M in (A.X, bm.T))
        self.extra["lattice.apply_basis.dense_bytes"] += 16 * A.lattice.dim**2 * dense

    def _count_fmt(self, args):
        self.calls["cli.fmt"] += 1

    # -- results ----------------------------------------------------------

    def state(self):
        """Totals and spans of this tracer, as plain JSON-ready values."""
        return {"calls": self.calls, "self_s": self.self_s, "incl_s": self.incl_s,
                "extra": self.extra, "spans": self.spans, "next_id": self._next_id}

    def merge(self, state):
        """Add the totals of another tracer's ``state()``; its span ids are
        shifted past this tracer's own."""
        for name in ("calls", "self_s", "incl_s", "extra"):
            for key, value in state[name].items():
                getattr(self, name)[key] += value
        base = self._next_id
        self.spans += [(sid + base, layer, t0, t1, None if parent is None else parent + base, op)
                       for sid, layer, t0, t1, parent, op in state["spans"]]
        self._next_id += state["next_id"]

    def metrics(self, overhead_ratio):
        """Every per-layer metric of spec.LAYER_TABLE, as name -> value."""
        out = {}
        for row in LAYER_TABLE:
            layer = row.layer
            for metric, name in zip(row.metrics, row.names()):
                if metric == "calls":
                    value = self.calls[layer]
                elif metric == "self_s":
                    value = self.self_s[layer]
                elif metric == "s":
                    value = self.incl_s[layer]
                elif metric == "distinct_ratio":
                    n = self.calls[layer]
                    value = self.extra[f"{layer}.distinct"] / n if n else 0.0
                elif metric == "points_per_s":
                    t = self.incl_s[layer]
                    value = self.extra["modes.eval.points"] / t if t else 0.0
                elif metric == "overhead_ratio":
                    value = overhead_ratio
                else:
                    value = self.extra[name]
                out[name] = value
        return out
