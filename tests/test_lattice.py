"""Quadratic operator algebra against the brute-force Fock realization."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from besselbeams.dynops import build_observables, zero_points
from besselbeams.lattice import (
    BasisMap,
    FockOracle,
    LatticeError,
    ModeLattice,
    QuadraticOperator,
    apply_basis,
    build_lattice,
    coherent_expectation,
    commutator,
)
from besselbeams.modes import TE, TM
from fock import kron_ladders

RNG = np.random.default_rng(42)


def fock_expectation(oracle, A, alpha):
    """<alpha| A |alpha> on the oracle's truncated space: the brute-force
    reference for coherent_expectation.  The coherent product state is cut
    at n_max and normalized mode by mode."""
    n = np.arange(oracle.n_max + 1)
    fact = np.array([math.factorial(k) for k in n], dtype=float)
    v = None
    for a in alpha:
        comp = a**n / np.sqrt(fact)
        comp = comp / np.linalg.norm(comp)
        v = comp if v is None else np.kron(v, comp)
    return complex(np.vdot(v, oracle.realize(A) @ v))


def small_lattice():
    return build_lattice((-1, 1), [1.0], [2.0])


def random_op(lat, rng, hermitian=False):
    X = rng.normal(size=(lat.dim, lat.dim)) + 1j * rng.normal(size=(lat.dim, lat.dim))
    if hermitian:
        X = 0.5 * (X + X.conj().T)
    return QuadraticOperator(lat, X)


class TestLatticeIndexing:
    def test_roundtrip(self):
        lat = build_lattice((-2, 3), [0.5, 1.5], [1.0, 2.0])
        # independent decoder of the layout: family, then m, k_perp node, k_z node
        for idx in range(lat.dim):
            fi, mi, ip, iz = np.unravel_index(idx, (2, 6, 2, 2))
            assert lat.index((TM, TE)[fi], -2 + mi, ip * 2 + iz) == idx
            assert lat.nodes[ip * 2 + iz] == ((0.5, 1.5)[ip], (1.0, 2.0)[iz])

    def test_nodes_are_stored_as_float_values(self):
        lat = build_lattice((-1, 1), [3, 0.5], [-4])
        assert lat.nodes == ((3.0, -4.0), (0.5, -4.0))
        assert all(type(v) is float for node in lat.nodes for v in node)

    def test_validation(self):
        with pytest.raises(LatticeError):
            build_lattice((1, -1), [1.0], [1.0])
        with pytest.raises(LatticeError):
            build_lattice((-1, 1), [-1.0], [1.0])
        with pytest.raises(LatticeError):
            build_lattice((-1, 1), [1.0], [0.0])
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(LatticeError):
                build_lattice((-1, 1), [1.0], [bad])
            with pytest.raises(LatticeError):
                build_lattice((-1, 1), [abs(bad)], [1.0])
        with pytest.raises(LatticeError, match="empty node list"):
            build_lattice((-1, 1), [], [1.0])
        with pytest.raises(LatticeError, match="empty node list"):
            ModeLattice((-1, 1), ())
        lat = small_lattice()
        with pytest.raises(LatticeError):
            lat.index(TM, 5, 0)

    @pytest.mark.parametrize("args, message", [
        ((5, 0), "m=5"),
        ((np.array([0, 1, -2]), 0), "m=-2"),
        ((0, 2), "node=2"),
        ((0, -1), "node=-1"),
        ((0, np.array([[0], [1], [3]])), "node=3"),
        ((np.array([0, 1]), np.array([0, -2])), "node=-2"),
    ])
    def test_labels_outside_the_lattice_are_refused(self, args, message):
        # on a 2-node lattice an unchecked (TM, 0, node=2) is 6, the index
        # of (TM, 1, 0); the error names the offending value
        lat = build_lattice((-1, 1), [1.0, 2.0], [3.0])
        with pytest.raises(LatticeError, match=f"^{message} outside range"):
            lat.index(TM, *args)


@pytest.mark.parametrize(
    "c, hbar",
    [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, -1.0), (0.0, 1.0)],
    ids=["c-nan", "hbar-nan", "c-inf", "hbar-negative", "c-zero"],
)
def test_lattice_units_must_be_positive_and_finite(c, hbar):
    with pytest.raises(LatticeError):
        build_lattice((-1, 1), [1.0], [2.0], c=c, hbar=hbar)


class TestQuadraticOperator:
    def test_hermiticity_and_dagger(self):
        lat = small_lattice()
        A = random_op(lat, RNG, hermitian=True)
        assert (A - A.dagger()).max_abs() <= 1e-14 * A.max_abs()
        B = random_op(lat, RNG)
        assert (B - B.dagger()).max_abs() > 1e-14 * B.max_abs()
        assert np.allclose(B.dagger().X.toarray(), B.X.toarray().conj().T)

    def test_arithmetic(self):
        lat = small_lattice()
        A, B = random_op(lat, RNG), random_op(lat, RNG)
        assert np.allclose((A + B).X.toarray(), A.X.toarray() + B.X.toarray())
        assert np.allclose((A - B).X.toarray(), A.X.toarray() - B.X.toarray())
        assert np.allclose((2.5 * A).X.toarray(), 2.5 * A.X.toarray())
        # operators are normal-ordered: a c-number is no summand
        with pytest.raises(TypeError):
            A + 1.5
        with pytest.raises(TypeError):
            1.5 + A

    def test_mismatched_lattices_rejected(self):
        A = random_op(small_lattice(), RNG)
        B = random_op(build_lattice((-2, 2), [1.0], [2.0]), RNG)
        with pytest.raises(LatticeError):
            commutator(A, B)


class TestCommutatorAlgebra:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_antisymmetry_and_bilinearity(self, seed):
        rng = np.random.default_rng(seed)
        lat = small_lattice()
        A, B, C = (random_op(lat, rng) for _ in range(3))
        assert (commutator(A, B) + commutator(B, A)).max_abs() < 1e-12
        lhs = commutator(A + 2.0 * B, C)
        rhs = commutator(A, C) + 2.0 * commutator(B, C)
        assert (lhs - rhs).max_abs() < 1e-12

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_jacobi_identity(self, seed):
        rng = np.random.default_rng(seed)
        lat = small_lattice()
        A, B, C = (random_op(lat, rng) for _ in range(3))
        J = (
            commutator(A, commutator(B, C))
            + commutator(B, commutator(C, A))
            + commutator(C, commutator(A, B))
        )
        assert J.max_abs() < 1e-10

    def test_scalar_part_never_enters(self):
        # a commutator is a coefficient matrix alone: no c-number part, so
        # its vacuum value is exactly 0
        lat = small_lattice()
        C = commutator(random_op(lat, RNG), random_op(lat, RNG))
        assert set(vars(C)) == {"lattice", "terms"}
        assert coherent_expectation(C, np.zeros(lat.dim, dtype=complex)) == 0

    def test_amplitude_of_another_length_refused(self):
        # an amplitude is a vector over the flat index layout, of length lattice.dim
        lat = small_lattice()
        A = random_op(lat, RNG)
        for n in (0, lat.dim - 1, lat.dim + 1, 2 * lat.dim):
            with pytest.raises(ValueError):
                coherent_expectation(A, np.ones(n, dtype=complex))


class TestFockOracle:
    def test_canonical_commutators_on_interior_block(self):
        lat = build_lattice((-1, 0), [1.0], [2.0])  # D = 4
        oracle = FockOracle(lat, n_max=3)
        keep = np.flatnonzero(oracle.occupancy_mask(oracle.n_max - 1))
        eye = np.eye(oracle.dim)[np.ix_(keep, keep)]
        b = kron_ladders(lat.dim, oracle.n_max)
        for j in range(lat.dim):
            comm = (b[j] @ b[j].T - b[j].T @ b[j]).toarray()
            assert np.abs(comm[np.ix_(keep, keep)] - eye).max() < 1e-13
        # different modes commute everywhere
        c01 = (b[0] @ b[1].T - b[1].T @ b[0]).toarray()
        assert np.abs(c01).max() < 1e-14

    def test_commutator_identity_against_matrices(self):
        lat = small_lattice()
        oracle = FockOracle(lat, n_max=2)
        keep = np.flatnonzero(oracle.occupancy_mask(oracle.n_max - 1))
        rng = np.random.default_rng(3)
        A, B = random_op(lat, rng), random_op(lat, rng)
        lhs = oracle.realize(commutator(A, B)).toarray()
        rhs = (
            oracle.realize(A) @ oracle.realize(B) - oracle.realize(B) @ oracle.realize(A)
        ).toarray()
        assert np.abs((lhs - rhs)[np.ix_(keep, keep)]).max() < 1e-12

    def test_coherent_expectation_matches_oracle(self):
        lat = build_lattice((0, 0), [1.0], [2.0])  # D = 2
        oracle = FockOracle(lat, n_max=6)
        alpha = np.array([0.2 + 0.1j, -0.15j])
        A = random_op(lat, np.random.default_rng(11), hermitian=True)
        exact = coherent_expectation(A, alpha)
        truncated = fock_expectation(oracle, A, alpha)
        assert abs(exact - truncated) < 1e-6  # truncation error at |alpha| ~ 0.2

    def test_vacuum_expectation_is_scalar_part(self):
        # the normal-ordered observables vanish on the vacuum; symmetrizing a
        # diagonal one, sum_j X_jj (b_j^dag b_j + b_j b_j^dag) / 2, adds its
        # zero point, which the Fock vacuum reads
        lat = build_lattice((-1, 0), [0.7], [-1.3, 2.0], c=1.3, hbar=0.6)  # D = 8
        b = kron_ladders(lat.dim, 2)
        obs, zero = build_observables(lat), zero_points(lat)
        assert set(zero) == {"energy", "number", "P3", "L3"}
        for name, op in obs.items():
            assert coherent_expectation(op, np.zeros(lat.dim, dtype=complex)) == 0, name
        for name, z in zero.items():
            X = obs[name].X
            assert abs(X - X.diagonal() * np.eye(lat.dim)).max() == 0, name
            sym = sum(0.5 * x * (b[j].T @ b[j] + b[j] @ b[j].T) for j, x in enumerate(X.diagonal()))
            assert z != 0 and sym[0, 0] == pytest.approx(z, rel=1e-14), name

    @pytest.mark.parametrize("m_range, n_max", [((-1, 1), 3), ((0, 1), 2), ((0, 0), 6)])
    def test_digits_equal_the_kron_chains_and_ladder_products_bitwise(self, m_range, n_max):
        # the oracle reads every matrix off the occupation digits; the
        # reference builds b_j as a kron chain and sums X_rc b_r^dag b_c term
        # by term, in the order of the COO triplets
        lat = build_lattice(m_range, [1.0], [2.0], c=2.9, hbar=0.37)
        oracle = FockOracle(lat, n_max=n_max)
        ladders = kron_ladders(lat.dim, n_max)

        def same(A, B):
            A, B = A.tocsr(), B.tocsr()
            assert A.dtype == B.dtype and A.shape == B.shape
            assert np.array_equal(A.indptr, B.indptr) and np.array_equal(A.indices, B.indices)
            assert np.array_equal(A.data.view(np.int64), B.data.view(np.int64))

        obs = build_observables(lat)
        rng = np.random.default_rng(7)
        # random forms: entries 0, +-1, +-sqrt(2), so diagonal terms cancel exactly
        X = rng.choice([0.0, 1.0, -1.0, math.sqrt(2), -math.sqrt(2)], size=(2, lat.dim, lat.dim))
        ops = list(obs.values()) + [commutator(obs["L+"], obs["S-"]),
                                    QuadraticOperator(lat, X[0] + 1j * X[1])]
        for A in ops:
            coo, want = A.X.tocoo(), sp.csr_matrix((oracle.dim, oracle.dim), dtype=complex)
            for r, c, v in zip(coo.row, coo.col, coo.data):
                want = want + v * (ladders[r].T.tocsr() @ ladders[c])
            same(oracle.realize(A), want)

    def test_dimension_cap(self):
        lat = build_lattice((-4, 4), [1.0], [2.0])  # D = 18
        with pytest.raises(LatticeError):
            FockOracle(lat, n_max=3)


def pair_blocks(lat, rng, noise=1.0, eye=0.0):
    """Random BasisMap blocks, eye * I + noise * (real normal noise)."""
    shape = lat.pairs().shape + (2,)
    return eye * np.eye(2) + noise * rng.normal(size=shape)


def dense_map(lat, blocks):
    """T as a dense D x D array, filled one (TM, TE) pair at a time."""
    T = np.zeros((lat.dim, lat.dim), dtype=complex)
    for p, b in zip(lat.pairs().reshape(-1, 2), np.reshape(blocks, (-1, 2, 2))):
        T[np.ix_(p, p)] = b
    return T


class TestBasisMap:
    def test_pairs_are_the_tm_te_indices(self):
        lat = build_lattice((-2, 1), [1.0, 2.0], [1.5])
        pairs = lat.pairs()
        assert pairs.shape == (4, 2, 2)
        for im in range(4):
            for ip in range(2):
                decoded = [np.unravel_index(i, (2, 4, 2, 1)) for i in pairs[im, ip]]
                assert decoded == [(0, im, ip, 0), (1, im, ip, 0)]

    def test_maps_compare_by_identity(self):
        lat = small_lattice()
        blocks = np.broadcast_to(np.eye(2), lat.pairs().shape + (2,))
        bm = BasisMap(lat, blocks)
        assert bm == bm
        assert bm != BasisMap(lat, blocks)
        assert len({bm, bm}) == 1

    def test_blocks_sit_on_their_pairs(self):
        lat = build_lattice((-1, 1), [1.0, 2.0], [2.0])
        rng = np.random.default_rng(17)
        blocks = pair_blocks(lat, rng, eye=1.0, noise=0.3) + 1j * pair_blocks(lat, rng, noise=0.3)
        bm = BasisMap(lat, blocks)
        T = dense_map(lat, blocks)
        assert bm.T.X.toarray().tobytes() == T.tobytes()

    def test_unitary_map_preserves_expectations(self):
        lat = small_lattice()
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(pair_blocks(lat, rng) + 1j * pair_blocks(lat, rng))
        bm = BasisMap(lat, Q)
        assert bm.unitarity_residual <= 1e-12
        T = dense_map(lat, Q)
        A = random_op(lat, rng, hermitian=True)
        Ap = apply_basis(A, bm)
        # b' = T b with |alpha'> = T alpha: expectations agree
        alpha = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
        assert coherent_expectation(A, alpha) == pytest.approx(
            coherent_expectation(Ap, T @ alpha), abs=1e-12
        )

    def test_nonunitary_map_invariance_with_transformed_ladders(self):
        # X' = (T^-1)+ X T^-1 represents the same abstract operator when
        # the ladders transform as b' = T b; realize both on a Fock space
        lat = build_lattice((-1, 0), [1.0], [2.0])  # D = 4, 625 Fock states
        rng = np.random.default_rng(9)
        blocks = pair_blocks(lat, rng, eye=1.0, noise=0.2)
        bm = BasisMap(lat, blocks)
        assert bm.unitarity_residual > 1e-12
        T = dense_map(lat, blocks)
        A = random_op(lat, rng, hermitian=True)
        Ap = apply_basis(A, bm)
        b = kron_ladders(lat.dim, 4)
        # primed ladder matrices
        bp = [sum(T[i, j] * b[j] for j in range(lat.dim)) for i in range(lat.dim)]
        bpd = [M.conj().T for M in bp]
        direct = np.zeros(b[0].shape, dtype=complex)
        coo = A.X.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            direct = direct + v * (b[r].T @ b[c]).toarray()
        primed = np.zeros(b[0].shape, dtype=complex)
        coo = Ap.X.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            primed = primed + v * (bpd[r] @ bp[c]).toarray()
        assert np.abs(direct - primed).max() < 1e-12

    def test_inverse_roundtrip(self):
        lat = small_lattice()
        rng = np.random.default_rng(13)
        blocks = pair_blocks(lat, rng, eye=1.0, noise=0.3)
        A = random_op(lat, rng)
        back = apply_basis(
            apply_basis(A, BasisMap(lat, blocks)), BasisMap(lat, np.linalg.inv(blocks))
        )
        assert np.abs(back.X.toarray() - A.X.toarray()).max() < 1e-10

    def test_shape_validation(self):
        lat = small_lattice()  # three (TM, TE) pairs
        for shape in [(2, 2), (lat.dim, lat.dim), (2, 1, 2, 2), (3, 1, 2, 3), (3, 1, 1, 2, 2)]:
            with pytest.raises(LatticeError):
                BasisMap(lat, np.ones(shape))

    def test_singular_map_rejected(self):
        lat = small_lattice()
        blocks = np.zeros(lat.pairs().shape + (2,)) + np.eye(2)
        blocks[1, 0] = [[1.0, 2.0], [2.0, 4.0]]
        with pytest.raises(LatticeError):
            apply_basis(random_op(lat, RNG), BasisMap(lat, blocks))

    def test_condition_number_is_over_all_blocks(self):
        # rotated diag(1, 2) and diag(10, 20) each have condition number 2;
        # T as a whole has 20
        lat = build_lattice((0, 1), [1.0], [2.0])
        c, s = np.cos(0.3), np.sin(0.3)
        R = np.array([[c, -s], [s, c]])
        blocks = np.stack([R @ np.diag(d) @ R.T for d in ([1.0, 2.0], [10.0, 20.0])])
        assert np.linalg.cond(blocks) == pytest.approx([2.0, 2.0], rel=1e-12)
        bm = BasisMap(lat, blocks.reshape(2, 1, 2, 2))
        assert bm.condition_number == pytest.approx(20.0, rel=1e-12)
        assert bm.condition_number == pytest.approx(np.linalg.cond(bm.T.X.toarray()), rel=1e-12)

    @pytest.mark.parametrize("gap", [1.0, 1e-4, 1e-8])
    def test_condition_number_is_the_svd_one_within_rounding(self, gap):
        # the closed form per block agrees with LAPACK's SVD within a few eps cond,
        # the accuracy of the SVD itself, however nearly singular the blocks
        lat = build_lattice((0, 2), [1.0], [1.0, 2.0])
        rng = np.random.default_rng(7)
        blocks = rng.normal(size=(3, 2, 2, 2)) + 1j * rng.normal(size=(3, 2, 2, 2))
        blocks[..., 1, :] = blocks[..., 0, :] + gap * blocks[..., 1, :]
        sv = np.linalg.svd(blocks, compute_uv=False)
        want = sv.max() / sv.min()
        assert want > 0.1 / gap
        assert BasisMap(lat, blocks).condition_number == pytest.approx(want, rel=4 * np.finfo(float).eps * want)
