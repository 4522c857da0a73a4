"""Quadratic operator algebra against the brute-force Fock realization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from besselbeams.lattice import (
    BasisMap,
    CoherentAmplitude,
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

RNG = np.random.default_rng(42)


def small_lattice():
    return build_lattice((-1, 1), [(1.0, 1.0)], [(2.0, 1.0)])


def random_op(lat, rng, hermitian=False):
    X = rng.normal(size=(lat.dim, lat.dim)) + 1j * rng.normal(size=(lat.dim, lat.dim))
    if hermitian:
        X = 0.5 * (X + X.conj().T)
    return QuadraticOperator(lat, X)


class TestLatticeIndexing:
    def test_roundtrip(self):
        lat = build_lattice((-2, 3), [(0.5, 0.1), (1.5, 0.2)], [(1.0, 0.3), (2.0, 0.4)])
        for idx in range(lat.dim):
            f, m, ip, iz = lat.unpack(idx)
            assert lat.index(f, m, ip, iz) == idx

    def test_weights_and_omega(self):
        lat = build_lattice((-1, 1), [(3.0, 0.25)], [(4.0, 0.5)])
        idx = lat.index(TM, 0, 0, 0)
        assert lat.weight(idx) == pytest.approx(0.125)
        assert lat.omega(idx) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(LatticeError):
            build_lattice((1, -1), [(1.0, 1.0)], [(1.0, 1.0)])
        with pytest.raises(LatticeError):
            build_lattice((-1, 1), [(-1.0, 1.0)], [(1.0, 1.0)])
        with pytest.raises(LatticeError):
            build_lattice((-1, 1), [(1.0, 1.0)], [(0.0, 1.0)])
        lat = small_lattice()
        with pytest.raises(LatticeError):
            lat.index(TM, 5, 0, 0)


@pytest.mark.parametrize(
    "c, hbar",
    [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0), (1.0, -1.0), (0.0, 1.0)],
    ids=["c-nan", "hbar-nan", "c-inf", "hbar-negative", "c-zero"],
)
def test_lattice_units_must_be_positive_and_finite(c, hbar):
    with pytest.raises(LatticeError):
        build_lattice((-1, 1), [(1.0, 1.0)], [(2.0, 1.0)], c=c, hbar=hbar)


class TestQuadraticOperator:
    def test_hermiticity_and_dagger(self):
        lat = small_lattice()
        A = random_op(lat, RNG, hermitian=True)
        assert A.is_hermitian
        B = random_op(lat, RNG)
        assert not B.is_hermitian
        assert np.allclose(B.dagger().dense(), B.dense().conj().T)

    def test_arithmetic(self):
        lat = small_lattice()
        A, B = random_op(lat, RNG), random_op(lat, RNG)
        assert np.allclose((A + B).dense(), A.dense() + B.dense())
        assert np.allclose((A - B).dense(), A.dense() - B.dense())
        assert np.allclose((2.5 * A).dense(), 2.5 * A.dense())
        assert (A + 1.5).s == pytest.approx(A.s + 1.5)

    def test_restrict_is_projection(self):
        lat = small_lattice()
        A = random_op(lat, RNG)
        sub = [0, 2, 3]
        P = A.restrict(sub)
        D = P.dense()
        off = [i for i in range(lat.dim) if i not in sub]
        assert np.abs(D[off, :]).max() == 0.0
        assert np.abs(D[:, off]).max() == 0.0
        assert np.allclose(D[np.ix_(sub, sub)], A.dense()[np.ix_(sub, sub)])

    def test_dump_deterministic(self):
        lat = small_lattice()
        A = QuadraticOperator.from_terms(lat, [(0, 1, 1 + 2j), (3, 2, -0.5j)], s=0.25)
        assert A.dump() == A.dump()
        assert "scalar 0.25 0" in A.dump()

    def test_mismatched_lattices_rejected(self):
        A = random_op(small_lattice(), RNG)
        B = random_op(build_lattice((-2, 2), [(1.0, 1.0)], [(2.0, 1.0)]), RNG)
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
        lat = small_lattice()
        A = random_op(lat, RNG) + 3.7
        B = random_op(lat, RNG) + (1.0 - 2.0j)
        assert commutator(A, B).s == 0.0


class TestFockOracle:
    def test_canonical_commutators_on_interior_block(self):
        lat = build_lattice((-1, 0), [(1.0, 1.0)], [(2.0, 1.0)])  # D = 4
        oracle = FockOracle(lat, n_max=3)
        keep = np.flatnonzero(oracle.occupancy_mask(oracle.n_max - 1))
        eye = np.eye(oracle.dim)[np.ix_(keep, keep)]
        for j in range(lat.dim):
            comm = (oracle.b[j] @ oracle.bdag[j] - oracle.bdag[j] @ oracle.b[j]).toarray()
            assert np.abs(comm[np.ix_(keep, keep)] - eye).max() < 1e-13
        # different modes commute everywhere
        c01 = (oracle.b[0] @ oracle.bdag[1] - oracle.bdag[1] @ oracle.b[0]).toarray()
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
        lat = build_lattice((0, 0), [(1.0, 1.0)], [(2.0, 1.0)])  # D = 2
        oracle = FockOracle(lat, n_max=6)
        alpha = CoherentAmplitude({0: 0.2 + 0.1j, 1: -0.15j})
        A = random_op(lat, np.random.default_rng(11), hermitian=True)
        exact = coherent_expectation(A, alpha)
        truncated = oracle.expectation(A, alpha)
        assert abs(exact - truncated) < 1e-6  # truncation error at |alpha| ~ 0.2

    def test_vacuum_expectation_is_scalar_part(self):
        lat = small_lattice()
        A = random_op(lat, RNG) + 2.25
        assert coherent_expectation(A, CoherentAmplitude()) == pytest.approx(
            A.s, abs=1e-15
        )

    def test_dimension_cap(self):
        lat = build_lattice((-4, 4), [(1.0, 1.0)], [(2.0, 1.0)])  # D = 18
        with pytest.raises(LatticeError):
            FockOracle(lat, n_max=3)


class TestBasisMap:
    def test_unitary_map_preserves_expectations(self):
        lat = small_lattice()
        rng = np.random.default_rng(5)
        M = rng.normal(size=(lat.dim, lat.dim)) + 1j * rng.normal(size=(lat.dim, lat.dim))
        T, _ = np.linalg.qr(M)
        bm = BasisMap(lat, T)
        assert bm.is_unitary
        A = random_op(lat, rng, hermitian=True)
        Ap = apply_basis(A, bm)
        # b' = T b with |alpha'> = T alpha: expectations agree
        alpha = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
        a1 = CoherentAmplitude({i: alpha[i] for i in range(lat.dim)})
        ap = T @ alpha
        a2 = CoherentAmplitude({i: ap[i] for i in range(lat.dim)})
        assert coherent_expectation(A, a1) == pytest.approx(
            coherent_expectation(Ap, a2), abs=1e-12
        )

    def test_nonunitary_map_invariance_with_transformed_ladders(self):
        # X' = (T^-1)+ X T^-1 represents the same abstract operator when
        # the ladders transform as b' = T b; realize both on a Fock space
        lat = build_lattice((-1, 0), [(1.0, 1.0)], [(2.0, 1.0)], families=(TM,))
        rng = np.random.default_rng(9)
        T = np.eye(lat.dim) + 0.2 * rng.normal(size=(lat.dim, lat.dim))
        bm = BasisMap(lat, T)
        assert not bm.is_unitary
        A = random_op(lat, rng, hermitian=True)
        Ap = apply_basis(A, bm)
        oracle = FockOracle(lat, n_max=4)
        # primed ladder matrices
        bp = [sum(T[i, j] * oracle.b[j] for j in range(lat.dim)) for i in range(lat.dim)]
        bpd = [M.conj().T for M in bp]
        direct = A.s * np.eye(oracle.dim, dtype=complex)
        coo = A.X.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            direct = direct + v * (oracle.bdag[r] @ oracle.b[c]).toarray()
        primed = Ap.s * np.eye(oracle.dim, dtype=complex)
        coo = Ap.X.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            primed = primed + v * (bpd[r] @ bp[c]).toarray()
        assert np.abs(direct - primed).max() < 1e-12

    def test_inverse_roundtrip(self):
        lat = small_lattice()
        rng = np.random.default_rng(13)
        T = np.eye(lat.dim) + 0.3 * rng.normal(size=(lat.dim, lat.dim))
        A = random_op(lat, rng)
        back = apply_basis(apply_basis(A, BasisMap(lat, T)), BasisMap(lat, np.linalg.inv(T)))
        assert np.abs(back.dense() - A.dense()).max() < 1e-10

    def test_shape_validation(self):
        with pytest.raises(LatticeError):
            BasisMap(small_lattice(), np.eye(3))

    def test_singular_map_rejected(self):
        lat = small_lattice()
        T = np.eye(lat.dim)
        T[0, 0] = 0.0
        with pytest.raises(LatticeError):
            apply_basis(random_op(lat, RNG), BasisMap(lat, T))

    def test_condition_number_is_over_all_blocks(self):
        # blocks diag(1, 2) and diag(10, 20) each have condition number 2;
        # T as a whole has 20
        lat = build_lattice((0, 1), [(1.0, 1.0)], [(2.0, 1.0)])
        T = np.diag([1.0, 2.0, 10.0, 20.0])
        T[0, 1] = T[2, 3] = 0.5
        bm = BasisMap(lat, T)
        assert [b.shape for _, b in bm._blocks] == [(2, 2, 2)]
        assert bm.condition_number == pytest.approx(np.linalg.cond(T), rel=1e-12)
        assert bm.condition_number > 5.0
