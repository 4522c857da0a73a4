"""The per-layer table of the besselbeams benchmark.

BENCHMARK.json names every workload (with the reason it exists) and every
metric with its unit and direction.  It has no room for the rest of each
per-layer row, which lives here: the end-to-end metrics a change to the layer
should move, the workloads that run the layer and those that never reach it.
``tracing.py`` computes the metrics row by row, and ``test_perfbench.py``
checks the busy and bypass columns against a traced pass.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LayerRow:
    """One row of the per-layer table: the layer's metrics, the end-to-end
    metrics a change to it should move, the workloads that run it and the
    workloads that never reach it."""

    layer: str
    metrics: tuple
    moves: tuple
    on: tuple
    bypass: tuple

    def names(self):
        return [f"{self.layer}.{m}" for m in self.metrics]


ALL = ("verify-all", "algebra", "fields")

LAYER_TABLE = (
    LayerRow("specfun.bessel_j_outer", ("calls", "self_s", "distinct_ratio", "bytes"),
             ("batch_s",), ("verify-all",), ("algebra", "fields")),
    # verify-all reaches modes through spherical_suite's direct-evaluation path
    LayerRow("specfun.bessel_scalar", ("calls", "self_s"),
             ("op_p50_s",), ("fields", "verify-all"), ("algebra",)),
    LayerRow("modes.eval", ("calls", "self_s", "points_per_s"),
             ("op_p50_s", "batch_s"), ("fields",), ("algebra", "verify-all")),
    LayerRow("verify.radial", ("calls", "self_s"),
             ("batch_s",), ("verify-all",), ("algebra", "fields")),
    LayerRow("verify.axial", ("calls", "self_s"),
             ("batch_s",), ("verify-all",), ("algebra", "fields")),
    LayerRow("verify.contract", ("self_s",),
             ("batch_s",), ("verify-all",), ("algebra", "fields")),
    LayerRow("verify.vsh_grid", ("calls", "self_s"),
             ("op_p50_s", "batch_s"), ("fields", "verify-all"), ("algebra",)),
    LayerRow("verify.spherical_wave", ("self_s",),
             ("op_p50_s", "batch_s"), ("fields", "verify-all"), ("algebra",)),
    LayerRow("verify.expansion_coefficients", ("self_s",),
             ("op_p50_s", "batch_s"), ("fields", "verify-all"), ("algebra",)),
    LayerRow("verify.suite.commutators", ("s",),
             ("batch_s",), ("verify-all", "algebra"), ("fields",)),
    LayerRow("verify.suite.basis", ("s",),
             ("batch_s",), ("verify-all", "algebra"), ("fields",)),
    LayerRow("verify.suite.quadrature", ("s",),
             ("batch_s",), ("verify-all",), ("algebra", "fields")),
    LayerRow("verify.suite.spherical", ("s",),
             ("batch_s",), ("verify-all",), ("algebra", "fields")),
    LayerRow("lattice.commutator", ("calls", "self_s"),
             ("op_p50_s",), ("algebra", "verify-all"), ("fields",)),
    LayerRow("lattice.operator_add", ("calls",),
             ("op_p50_s",), ("algebra", "verify-all"), ("fields",)),
    LayerRow("lattice.fock", ("self_s",),
             ("op_p50_s",), ("algebra", "verify-all"), ("fields",)),
    LayerRow("lattice.apply_basis", ("calls", "self_s", "dense_bytes"),
             ("op_tail_s", "peak_rss_mb"), ("algebra", "verify-all"), ("fields",)),
    LayerRow("lattice.coherent_expectation", ("calls", "self_s"),
             ("op_p50_s",), ("algebra",), ("fields", "verify-all")),
    LayerRow("dynops.build_observables", ("calls", "self_s"),
             ("op_p50_s",), ("algebra", "verify-all"), ("fields",)),
    LayerRow("dynops.build_stokes", ("calls", "self_s"),
             ("op_p50_s",), ("algebra", "verify-all"), ("fields",)),
    LayerRow("dynops.basis_map", ("self_s",),
             ("op_tail_s", "peak_rss_mb"), ("algebra", "verify-all"), ("fields",)),
    LayerRow("cli.serialize", ("self_s",), ("op_p50_s",), ALL, ()),
    LayerRow("cli.fmt", ("calls",), ("op_p50_s",), ALL, ()),
    LayerRow("trace", ("overhead_ratio",), (), ALL, ()),
)

