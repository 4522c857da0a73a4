"""Lattice operators as term arrays against scipy.sparse's CSR arithmetic.

Every product, sum and expectation of `QuadraticOperator` follows the order
in which CSR's kernels sum, so each result equals, bit for bit and signed
zeros included, what the same operation gives on the operators' CSR views
(`csr_oracle`).  The operator path itself uses no scipy.sparse.
"""

import json

import numpy as np
import pytest

import csr_oracle as csr
from besselbeams import cli, dynops, lattice, verify
from besselbeams.dynops import assemble, build_observables, cartesian, make_pm_map, make_rl_map
from besselbeams.lattice import (
    BasisMap,
    LatticeError,
    QuadraticOperator,
    apply_basis,
    build_lattice,
    coherent_expectation,
    commutator,
)
from besselbeams.verify import COMMUTATOR_TABLE

LATTICES = {
    "default": cli.RunConfig().lattice(),
    # test_mutants.UNITS_LATTICE, where every power of hbar and c shows
    "units": build_lattice((-4, 4), [0.5, 1.0, 1.5], [1.0, 2.0], c=2.9, hbar=0.37),
    # the narrowest window the commutator suite accepts
    "width-7": build_lattice((-3, 3), [0.3, 0.9, 1.4], [-1.1, 2.4]),
    # D = 2440: m +/-30 on 20 nodes
    "d2440": build_lattice((-30, 30), [0.3, 0.6, 0.9, 1.2], [1.0, 1.4, -1.7, 2.1, 2.5], c=1.3, hbar=0.8),
}
PAIRS = sorted({(a, b) for _, a, b, *_ in COMMUTATOR_TABLE})


@pytest.fixture(scope="module", params=list(LATTICES))
def lat_obs(request):
    lat = LATTICES[request.param]
    return lat, build_observables(lat)


def test_the_table_has_25_distinct_pairs():
    assert len(PAIRS) == 25


def test_adjoints_equal_the_csr_adjoints(lat_obs):
    _, obs = lat_obs
    for name in ("P", "L", "S"):
        assert csr.same(obs[name + "-"].X, csr.held(obs[name + "+"].X.getH()))


def test_commutators_equal_csr_commutators(lat_obs):
    _, obs = lat_obs
    for a, b in PAIRS:
        assert csr.same(commutator(obs[a], obs[b]).X, csr.commutator(obs[a].X, obs[b].X)), (a, b)


def test_table_rows_minus_their_rhs_equal_csr(lat_obs):
    lat, obs = lat_obs
    for name, a, b, rhs, *_ in COMMUTATOR_TABLE:
        if rhs is None:
            continue
        x, term = rhs
        R = x * lat.hbar * obs[term] if term in obs else x * assemble(lat, term)
        R_csr = csr.scale(obs[term].X, x * lat.hbar) if term in obs else csr.scale(assemble(lat, term).X, x)
        want = csr.minus(csr.commutator(obs[a].X, obs[b].X), R_csr)
        assert csr.same((commutator(obs[a], obs[b]) - R).X, want), name


@pytest.mark.parametrize("make_map", [make_pm_map, make_rl_map], ids=["pm", "rl"])
def test_apply_basis_equals_csr(lat_obs, make_map):
    lat, obs = lat_obs
    bm = make_map(lat)
    for name in ("energy", "P3", "L3", "S3", "P+", "L-", "S+"):
        want = csr.apply_basis(obs[name].X, lat, bm.blocks)
        assert csr.same(apply_basis(obs[name], bm).X, want), name


def _amplitudes(lat, rng):
    """Random amplitudes, with +0.0 and -0.0 in either part of some of them,
    and the vacuum with every part -0.0."""
    alpha = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
    alpha[::3] = alpha[::3].real - 0.0j  # imaginary parts -0.0
    alpha[1::5] = -0.0 + 1j * alpha[1::5].imag
    alpha[2::7] = complex(-0.0, 0.0)
    alpha[4::11] = 0.0
    return [alpha, np.full(lat.dim, complex(-0.0, -0.0)), alpha.real.copy()]


def test_coherent_expectation_equals_csr_matvec_bitwise(lat_obs):
    lat, obs = lat_obs
    rows = [obs["energy"], obs["number"]] + [v for which in "PLS" for v in cartesian(obs, which)]
    for alpha in _amplitudes(lat, np.random.default_rng(3)):
        for op in rows:
            got, want = coherent_expectation(op, alpha), csr.expectation(op.X, alpha)
            assert np.array([got]).view(np.int64).tolist() == np.array([want]).view(np.int64).tolist()


def test_random_node_local_operators_equal_csr():
    # random coefficients at every node-local (row, column) pair: each entry
    # of a product sums several terms, where summation order and the
    # rounding of a complex product show
    lat = build_lattice((-3, 3), [0.8], [1.7, -0.6])
    rng = np.random.default_rng(11)
    local = np.arange(lat.dim)[:, None] % 2 == np.arange(lat.dim) % 2  # the layout puts the node last
    A, B = (QuadraticOperator(lat, local * (rng.normal(size=local.shape) + 1j * rng.normal(size=local.shape)))
            for _ in range(2))
    assert csr.same(commutator(A, B).X, csr.commutator(A.X, B.X))
    assert csr.same((A - B).X, csr.minus(A.X, B.X))
    blocks = np.eye(2) + 0.4 * (rng.normal(size=(7, 2, 2, 2)) + 1j * rng.normal(size=(7, 2, 2, 2)))
    assert csr.same(apply_basis(A, BasisMap(lat, blocks)).X, csr.apply_basis(A.X, lat, blocks))
    for alpha in _amplitudes(lat, rng):
        got, want = coherent_expectation(A, alpha), csr.expectation(A.X, alpha)
        assert np.array([got]).view(np.int64).tolist() == np.array([want]).view(np.int64).tolist()


def test_an_operator_that_couples_two_nodes_is_refused():
    lat = build_lattice((-1, 1), [0.8], [1.7, -0.6])
    with pytest.raises(LatticeError, match="couples two lattice nodes"):
        QuadraticOperator(lat, ([1.0], ([lat.index("TM", 0, 0)], [lat.index("TM", 0, 1)])))


class _NoSparse:
    def __getattr__(self, name):
        raise AssertionError(f"scipy.sparse.{name} reached on the operator path")


def test_verify_and_expect_use_no_scipy_sparse(monkeypatch, tmp_path):
    # the Fock cross-check realizes operators as sparse matrices by design;
    # it reads no input, so once warm it takes nothing from scipy.sparse
    verify._fock_residual()
    monkeypatch.setattr(lattice, "sp", _NoSparse())
    monkeypatch.setattr(dynops, "sp", _NoSparse())
    out = tmp_path / "out"
    lat = ["--m-range=-4..4", "--kperp", "0.5,1.5", "--kz=-1.0,2.0"]
    for argv in (["verify", "basis"], ["verify", "commutators"]):
        assert cli.main(argv + lat + ["--out", str(out)]) == 0
        assert json.loads(out.read_text())["metadata"]["unexpected_failures"] == 0
    assert cli.main(["expect"] + lat + ["--amp", "tm,0,0,1,0.5,-0.0", "--amp", "te,1,1,0,-0.0,0.3",
                                        "--out", str(out)]) == 0
