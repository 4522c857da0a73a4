"""Observable builders: Hermiticity, oracle expectations, basis maps."""

import math

import numpy as np
import pytest

from besselbeams.dynops import (
    STOKES,
    TERMS,
    assemble,
    build_L_spherical,
    build_observables,
    build_stokes,
    cartesian,
    make_pm_map,
    make_rl_map,
    stokes_expectations,
    zero_points,
)
from besselbeams.lattice import (
    FAMILIES,
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
from test_lattice import fock_expectation


def lattice_d6(hbar=1.0):
    return build_lattice((-1, 1), [1.0], [2.0], hbar=hbar)


def _self_adjoint(A):
    """A = A^dag to rounding, relative to the largest entry of A."""
    return (A - A.dagger()).max_abs() <= 1e-14 * A.max_abs()


class TestHermiticityAndAdjoints:
    def test_scalar_observables_hermitian(self):
        obs = build_observables(lattice_d6())
        for op in (obs["energy"], obs["number"], obs["P3"], obs["L3"], obs["S3"]):
            assert _self_adjoint(op)
        # the bound scales with the entries: hbar = 1e16 puts them near 1e16
        lat = lattice_d6(hbar=1e16)
        assert _self_adjoint(apply_basis(build_observables(lat)["energy"], make_rl_map(lat)))

    def test_ladder_adjoint_pairs(self):
        obs = build_observables(lattice_d6())
        for plus, minus in ((obs["P+"], obs["P-"]), (obs["L+"], obs["L-"]),
                            (obs["S+"], obs["S-"])):
            assert (plus.dagger() - minus).max_abs() < 1e-14

    def test_cartesian_components_hermitian(self):
        obs = build_observables(lattice_d6())
        for which in ("P", "L", "S"):
            for comp in cartesian(obs, which):
                assert _self_adjoint(comp)

    def test_names_in_order(self):
        obs = build_observables(lattice_d6())
        assert list(obs) == [
            "energy", "number", "P+", "P-", "P3", "L+", "L-", "L3", "S+", "S-", "S3",
        ]


class TestElementaryFamilies:
    """The Pi / Lambda / Sigma families as they sit in the assembled observables."""

    def test_pi_ladder_structure(self):
        lat = lattice_d6()  # hbar = k_perp = 1: P_+ = sum of Pi_+
        obs = build_observables(lat)
        X = obs["P+"].X.toarray()
        # couples m-1 <- m with coefficient i, within each family only
        for fam in (TM, TE):
            assert X[lat.index(fam, -1, 0), lat.index(fam, 0, 0)] == 1j
        tm = [lat.index(TM, m, 0) for m in lat.m_values]
        te = [lat.index(TE, m, 0) for m in lat.m_values]
        assert np.abs(X[np.ix_(tm, te)]).max() == 0.0
        assert np.abs(X[np.ix_(te, tm)]).max() == 0.0
        assert (obs["P-"] - obs["P+"].dagger()).max_abs() == 0.0

    def test_lambda_three_counts_m(self):
        lat = lattice_d6()
        X = build_observables(lat)["L3"].X.toarray()
        for fam in (TM, TE):
            for m in lat.m_values:
                assert X[lat.index(fam, m, 0), lat.index(fam, m, 0)] == m

    def test_sigma_su2_per_node(self):
        lat = lattice_d6()
        _, s1, s2, s3 = build_stokes(lat, 0, 0)
        assert (commutator(s1, s2) - 2j * s3).max_abs() < 1e-14
        assert (commutator(s2, s3) - 2j * s1).max_abs() < 1e-14
        assert (commutator(s3, s1) - 2j * s2).max_abs() < 1e-14


def _from_triplets(lat, terms):
    """Operator from (row, col, coeff) triplets; duplicates add up."""
    rows = [r for r, _, _ in terms]
    cols = [c for _, c, _ in terms]
    return QuadraticOperator(lat, ([v for _, _, v in terms], (rows, cols)))


def _omega(lat, idx):
    """c |k| of the node of flat index idx."""
    n_m = lat.m_range[1] - lat.m_range[0] + 1
    _, _, node = np.unravel_index(idx, (2, n_m, len(lat.nodes)))
    return lat.c * math.hypot(*lat.nodes[node])


def _per_node(lat):
    for node, (kp, kz) in enumerate(lat.nodes):
        yield node, kp, kz, lat.c * math.hypot(kp, kz)


def _elementary(lat, node):
    """Per-node Pi and Lambda (per family) and Sigma operators {+, 3}."""
    m_lo, m_hi = lat.m_range
    shifted = range(m_lo + 1, m_hi + 1)

    def idx(fam, m):
        return lat.index(fam, m, node)

    def op(terms):
        return _from_triplets(lat, terms)

    out = {}
    for f in FAMILIES:
        out["Pi+", f] = op([(idx(f, m - 1), idx(f, m), 1j) for m in shifted])
        out["Pi3", f] = op([(idx(f, m), idx(f, m), 1.0) for m in lat.m_values])
        out["Lambda+", f] = op([(idx(f, m - 1), idx(f, m), 1j * (m - 0.5)) for m in shifted])
        out["Lambda3", f] = op([(idx(f, m), idx(f, m), float(m)) for m in lat.m_values])
    out["Sigma+"] = op([t for m in shifted for t in (
        (idx(TE, m), idx(TM, m - 1), 0.5), (idx(TM, m), idx(TE, m - 1), -0.5))])
    out["Sigma3"] = op([t for m in lat.m_values for t in (
        (idx(TM, m), idx(TE, m), 1j), (idx(TE, m), idx(TM, m), -1j))])
    return out


def _diag_E(lat):
    return np.array([lat.hbar * _omega(lat, i) for i in range(lat.dim)])


def _empty(lat):
    return QuadraticOperator(lat, np.zeros((lat.dim, lat.dim)))


def _reference_operators(lat):
    """Observables and commutator-table right-hand sides built node by node
    from the elementary families with repeated sparse +, the construction
    the term table replaced."""
    hbar, c = lat.hbar, lat.c
    m_lo, m_hi = lat.m_range
    diag_E = _diag_E(lat)
    ref = {
        "energy": _from_triplets(lat, [(i, i, diag_E[i]) for i in range(lat.dim)]),
        "number": _from_triplets(lat, [(i, i, 1.0) for i in range(lat.dim)]),
    }
    sums = ("P+", "P3", "L+", "L3", "S+", "S3", "[L+,L-]", "[L+,P+]", "[S+,L3]", "[S+,L-] printed")
    ref.update((name, _empty(lat)) for name in sums)
    for node, kp, kz, w in _per_node(lat):
        el = _elementary(lat, node)
        lam3 = _empty(lat)
        for f in FAMILIES:
            ref["P+"] = ref["P+"] + (hbar * kp) * el["Pi+", f]
            ref["P3"] = ref["P3"] + (hbar * kz) * el["Pi3", f]
            ref["L+"] = ref["L+"] + (hbar * kz / kp) * el["Lambda+", f]
            ref["L3"] = ref["L3"] + hbar * el["Lambda3", f]
            lam3 = lam3 + el["Lambda3", f]
        ref["S+"] = ref["S+"] + (hbar * c * kp / w) * el["Sigma+"]
        ref["S3"] = ref["S3"] + (hbar * c * kz / w) * el["Sigma3"]
        ref["[L+,L-]"] = ref["[L+,L-]"] + (2.0 * hbar**2 * kz**2 / kp**2) * lam3
        ref["[L+,P+]"] = ref["[L+,P+]"] + _from_triplets(lat, [
            (lat.index(f, m - 1, node), lat.index(f, m + 1, node), hbar**2 * kz)
            for f in FAMILIES for m in range(m_lo + 1, m_hi)])
        ref["[S+,L3]"] = ref["[S+,L3]"] + (-(hbar**2) * c * kp / w) * el["Sigma+"]
        ref["[S+,L-] printed"] = ref["[S+,L-] printed"] + _from_triplets(lat, [
            t for m in range(m_lo + 1, m_hi) for t in (
                (lat.index(TE, m + 1, node), lat.index(TM, m - 1, node),
                 -1j * hbar**2 * c * kz / w),
                (lat.index(TM, m + 1, node), lat.index(TE, m - 1, node),
                 1j * hbar**2 * c * kz / w))])
    for v in "PLS":
        ref[f"{v}-"] = ref[f"{v}+"].dagger()
    return ref


def _reference_zero_points(lat):
    """Zero points of the symmetrized observables, each node's and family's
    (1/2) sum_m of the diagonal added in turn, as the per-node construction
    added its scalar parts."""
    diag_E = _diag_E(lat)
    ref = {"energy": 0.5 * diag_E.sum(), "number": 0.5 * lat.dim, "P3": 0.0, "L3": 0.0}
    for _, _, kz, _ in _per_node(lat):
        for _ in FAMILIES:
            ref["P3"] += (lat.hbar * kz) * (0.5 * len(lat.m_values))
            ref["L3"] += lat.hbar * (0.5 * sum(lat.m_values))
    return ref


def _reference_pair_block(lat, beta):
    T = np.zeros((lat.dim, lat.dim), dtype=complex)
    for node, kp, kz, w in _per_node(lat):
        b = beta(kz, w)
        nrm = 1.0 / math.sqrt(1.0 + b**2)
        for m in lat.m_values:
            i1 = lat.index(TM, m, node)
            i2 = lat.index(TE, m, node)
            T[i1, i1], T[i1, i2] = nrm, 1j * b * nrm
            T[i2, i1], T[i2, i2] = nrm, -1j * b * nrm
    return T


def _bits(op):
    X = op.X
    return X.indptr.tobytes(), X.indices.tobytes(), X.data.tobytes()


ASSEMBLY_LATTICES = {
    "asymmetric": build_lattice((-2, 5), [0.37, 1.1], [-2.6, 1.3], c=1.7, hbar=0.3),
    "reference": build_lattice((-4, 4), [0.5, 1.0, 1.5], [1.0, 2.0]),
    "negative-kz": build_lattice((-3, 1), [0.2, 0.9, 2.3], [-1.1, -0.4, 0.8, 3.3],
                                 c=0.61, hbar=2.2),
    # node factors far from 1: hbar near 1e-28, c near 1e27, |k| from 1e-4 to 2e4
    "extreme-units": build_lattice((-3, 4), [3.1e-4, 0.7, 2.2e4], [-5.3e3, -1.9e-4, 0.8],
                                   c=2.9e27, hbar=3.7e-29),
}


class TestTermTableAssembly:
    @pytest.mark.parametrize("part", ["zero-point", "normal"])
    @pytest.mark.parametrize("name", list(ASSEMBLY_LATTICES))
    def test_bitwise_equal_to_per_node_construction(self, name, part):
        lat = ASSEMBLY_LATTICES[name]
        if part == "zero-point":
            ref = _reference_zero_points(lat)
            zero = zero_points(lat)
            assert zero.keys() == ref.keys()
            for key, z in zero.items():
                assert np.float64(z).tobytes() == np.float64(ref[key]).tobytes(), key
            return
        ref = _reference_operators(lat)
        obs = build_observables(lat)
        assert len(obs) == 11
        for key, op in obs.items():
            assert _bits(op) == _bits(ref[key]), key
        for key in ("[L+,L-]", "[L+,P+]", "[S+,L3]", "[S+,L-] printed"):
            assert _bits(assemble(lat, key)) == _bits(ref[key]), key

    @pytest.mark.parametrize(
        "lat",
        [ASSEMBLY_LATTICES["asymmetric"], build_lattice((0, 5), [0.5], [1.0])],
        ids=["asymmetric", "m-0..5"],
    )
    def test_normal_ordered_observables_have_no_scalar(self, lat):
        # P3 and L3 zero points do not cancel on these lattices (kz or m
        # not symmetric), so this covers all four symmetrized observables:
        # their zero points are apart, and every observable is 0 on the vacuum
        obs = build_observables(lat)
        empty = np.zeros(lat.dim, dtype=complex)
        vacuum = {key: coherent_expectation(op, empty) for key, op in obs.items()}
        assert vacuum == dict.fromkeys(obs, 0.0)
        assert all(set(vars(op)) == {"lattice", "terms"} for op in obs.values())
        zero = zero_points(lat)
        assert set(zero) == {"energy", "number", "P3", "L3"} and all(zero.values())

    @pytest.mark.parametrize("name", [*TERMS, "sigma1", "sigma2", "sigma3"])
    def test_nodes_off_a_product_grid_act_one_by_one(self, name):
        # three nodes on the shell |k| = 2, one with k_z < 0: no k_perp x k_z
        # grid holds them.  Each TERMS operator, and each Stokes operator
        # summed over every (node, m), couples no two nodes, and its block on
        # a node is that node's one-node operator, bit for bit
        def build(lat):
            if name in TERMS:
                return assemble(lat, name).X
            every_pair = build_stokes(lat, np.arange(len(lat.nodes)), np.array(lat.m_values)[:, None])
            return every_pair[int(name[-1])].X

        nodes = ((1.2, 1.6), (2 * math.sin(0.3), 2 * math.cos(0.3)), (1.6, -1.2))
        lat = ModeLattice((-3, 3), nodes, c=2.9, hbar=0.37)
        X = build(lat)
        nnz = 0
        for node in range(len(nodes)):
            idx = np.sort(lat.pairs()[:, node].ravel())
            block = X[idx][:, idx]
            one = build(ModeLattice(lat.m_range, nodes[node:node + 1], c=2.9, hbar=0.37))
            assert block.toarray().tobytes() == one.toarray().tobytes(), node
            nnz += block.nnz
        assert nnz == X.nnz > 0

    @pytest.mark.parametrize("name", list(ASSEMBLY_LATTICES))
    def test_pair_blocks_bitwise_equal_to_per_node_fill(self, name):
        lat = ASSEMBLY_LATTICES[name]
        pm = _reference_pair_block(lat, lambda kz, w: 1.0)
        rl = _reference_pair_block(lat, lambda kz, w: lat.c * kz / w)
        assert make_pm_map(lat).T.X.toarray().tobytes() == pm.tobytes()
        assert make_rl_map(lat).T.X.toarray().tobytes() == rl.tobytes()


class TestExpectations:
    def test_two_mode_transverse_momentum(self):
        # equal real amplitudes on neighbors (m, m+1) carry transverse
        # momentum 2 hbar k_perp |alpha|^2 w along axis 2 and none along 1
        lat = build_lattice((-2, 2), [1.3], [2.0])
        obs = build_observables(lat)
        a = 0.6
        alpha = np.zeros(lat.dim, dtype=complex)
        alpha[[lat.index(TM, 0, 0), lat.index(TM, 1, 0)]] = a
        P1, P2, P3 = cartesian(obs, "P")
        p1 = coherent_expectation(P1, alpha)
        p2 = coherent_expectation(P2, alpha)
        kp = 1.3
        assert abs(p1) < 1e-14
        assert p2.real == pytest.approx(2 * kp * a**2, rel=1e-14)
        assert abs(p2.imag) < 1e-14
        # independent Fock-oracle value
        small = build_lattice((0, 1), [1.3], [2.0])
        oracle = FockOracle(small, n_max=8)
        obs_small = build_observables(small)
        alpha_small = np.zeros(small.dim, dtype=complex)
        alpha_small[[small.index(TM, 0, 0), small.index(TM, 1, 0)]] = a
        _, P2s, _ = cartesian(obs_small, "P")
        assert fock_expectation(oracle, P2s, alpha_small).real == pytest.approx(
            2 * kp * a**2, abs=1e-6
        )

    def test_zero_point_energy(self):
        lat = lattice_d6()
        zero = zero_points(lat)
        expected = 0.5 * sum(_omega(lat, i) for i in range(lat.dim))
        assert zero["energy"] == pytest.approx(expected, rel=1e-15)
        assert zero["number"] == 0.5 * lat.dim
        # the normal-ordered forms carry none of it
        obs = build_observables(lat)
        for name in ("energy", "number"):
            assert coherent_expectation(obs[name], np.zeros(lat.dim, dtype=complex)) == 0

    def test_pm_basis_changes_helicity_not_energy(self):
        # one TM photon vs one (+) photon: same energy, different S3
        lat = lattice_d6()
        obs = build_observables(lat)
        pm = make_pm_map(lat)
        idx = lat.index(TM, 0, 0)
        a_tm = np.zeros(lat.dim, dtype=complex)
        a_tm[idx] = 1.0
        # (+) coherent state: alpha' has support on the TM slot in the new
        # basis; pull back to old-basis amplitudes via T^-1
        a_plus = np.linalg.inv(pm.T.X.toarray()) @ a_tm
        E1 = coherent_expectation(obs["energy"], a_tm)
        E2 = coherent_expectation(obs["energy"], a_plus)
        S1 = coherent_expectation(obs["S3"], a_tm)
        S2 = coherent_expectation(obs["S3"], a_plus)
        assert E1 == pytest.approx(E2, rel=1e-12)
        assert abs(S1) < 1e-14  # pure TM carries no mean helicity
        w = math.hypot(1.0, 2.0)
        assert S2.real == pytest.approx(2.0 / w, rel=1e-12)  # c kz / w per photon


class TestStokes:
    def test_pair_expectations_match_the_quadratic_forms(self):
        lat = ASSEMBLY_LATTICES["asymmetric"]
        rng = np.random.default_rng(3)
        alpha = np.zeros(lat.dim, dtype=complex)
        for i in rng.choice(lat.dim, 12, replace=False):
            alpha[i] = complex(*rng.normal(size=2))
        sigma = stokes_expectations(lat, alpha)
        assert sigma.shape == (3, 8, 4)
        for im, m in enumerate(lat.m_values):
            for ip in range(2):
                for iz in range(2):
                    ops = build_stokes(lat, ip * 2 + iz, m)[1:]
                    for k in range(3):
                        want = coherent_expectation(ops[k], alpha)
                        assert sigma[k, im, ip * 2 + iz] == pytest.approx(want, rel=1e-15, abs=1e-15)

    def test_scalar_call_is_the_pair_rows(self):
        lat = ASSEMBLY_LATTICES["asymmetric"]
        for node, m in ((0, -2), (2, 3), (3, 5)):
            i = {f: lat.index(f, m, node) for f in FAMILIES}
            for op, rows in zip(build_stokes(lat, node, m), STOKES):
                ref = _from_triplets(lat, [(i[r], i[c], c0) for r, c, _, c0, _ in rows])
                assert _bits(op) == _bits(ref)

    @pytest.mark.parametrize("lat", [ASSEMBLY_LATTICES["reference"], lattice_d6()],
                             ids=["default-corners", "one-node"])
    def test_array_call_is_the_sum_of_scalar_calls(self, lat):
        # every corner label, repeats kept: on one node the node corners coincide
        corners = [(node, m) for node in (0, len(lat.nodes) - 1) for m in lat.m_range]
        node, m = np.array(corners).T
        summed = [sum(ops[1:], ops[0]) for ops in zip(*(build_stokes(lat, *c) for c in corners))]
        for op, want in zip(build_stokes(lat, node, m), summed):
            assert op.X.dtype == want.X.dtype == complex
            assert (op.X != want.X).nnz == 0
            assert op.X.nnz == want.X.nnz


def _random_map(lat):
    """BasisMap of random complex per-pair blocks near the identity."""
    rng = np.random.default_rng(21)
    shape = lat.pairs().shape + (2,)
    return BasisMap(lat, np.eye(2) + 0.5 * (rng.normal(size=shape) + 1j * rng.normal(size=shape)))


class TestBasisMaps:
    def test_pm_unitary(self):
        pm = make_pm_map(lattice_d6())
        assert pm.unitarity_residual <= 1e-12
        assert pm.condition_number == pytest.approx(1.0, abs=1e-12)

    def test_rl_nonunitary_but_invertible(self):
        rl = make_rl_map(lattice_d6())
        assert rl.unitarity_residual > 1e-12
        assert 1.0 < rl.condition_number < 10.0

    @pytest.mark.parametrize("make_map", [make_pm_map, make_rl_map, _random_map],
                             ids=["pm", "rl", "random"])
    def test_block_inverse_matches_dense_inverse(self, make_map):
        lat = ASSEMBLY_LATTICES["negative-kz"]
        bm = make_map(lat)
        assert bm.blocks.shape == lat.pairs().shape + (2,)
        dense = np.linalg.inv(bm.T.X.toarray())
        assert np.abs(bm.inverse.X.toarray() - dense).max() <= 1e-12

    def test_rl_condition_number_over_distinct_betas(self):
        lat = ASSEMBLY_LATTICES["negative-kz"]
        rl = make_rl_map(lat)
        betas = {round(lat.c * kz / (lat.c * math.hypot(kp, kz)), 12)
                 for kp, kz in lat.nodes}
        assert len(betas) == 12
        assert rl.condition_number == pytest.approx(np.linalg.cond(rl.T.X.toarray()), rel=1e-12)

    def test_rl_needs_wide_m_range(self):
        narrow = build_lattice((0, 1), [1.0], [2.0])
        with pytest.raises(LatticeError):
            make_rl_map(narrow)


class TestSpherical:
    def test_su2_closure(self):
        L_plus, L_minus, L_3 = build_L_spherical(4)
        Lx = L_plus + L_minus
        Ly = 1j * (L_minus - L_plus)
        assert L_3.diagonal().sum() == 0.0  # complete j multiplets: no zero point
        assert abs(Lx @ Ly - Ly @ Lx - 1j * L_3).max() < 1e-13
        # with the halved ladder coefficients, [L+, L-] = (hbar/2) L3
        assert abs(L_plus @ L_minus - L_minus @ L_plus - 0.5 * L_3).max() < 1e-13

    def test_l3_spectrum(self):
        _, _, L_3 = build_L_spherical(2)
        diag = np.real(L_3.diagonal())
        assert diag.tolist() == [m for j in (1, 2) for m in range(-j, j + 1)]

    def test_ladder_layout(self):
        L_plus, L_minus, _ = build_L_spherical(2)
        # L+ raises m by one inside each multiplet; the tops carry no entry
        assert L_plus.nnz == 2 * 1 + 2 * 2
        rows, cols = L_plus.nonzero()
        assert np.all(rows == cols + 1)
        assert L_plus[1, 0] == 0.5 * math.sqrt(2)  # j = 1, m = -1 -> 0
        assert abs(L_minus - L_plus.getH()).max() == 0.0
