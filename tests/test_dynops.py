"""Observable builders: Hermiticity, oracle expectations, basis maps."""

import math

import numpy as np
import pytest

from besselbeams.dynops import (
    SphericalLattice,
    assemble,
    build_L_spherical,
    build_energy_number,
    build_helicity,
    build_observables,
    build_stokes,
    make_pm_map,
    make_rl_map,
    stokes_expectations,
)
from besselbeams.lattice import (
    CoherentAmplitude,
    FockOracle,
    LatticeError,
    QuadraticOperator,
    build_lattice,
    coherent_expectation,
    commutator,
)
from besselbeams.modes import TE, TM


def lattice_d6():
    return build_lattice((-1, 1), [(1.0, 1.0)], [(2.0, 1.0)])


class TestHermiticityAndAdjoints:
    def test_scalar_observables_hermitian(self):
        obs = build_observables(lattice_d6())
        assert obs.energy.is_hermitian
        assert obs.number.is_hermitian
        assert obs.P_3.is_hermitian
        assert obs.L_3.is_hermitian
        assert obs.S_3.is_hermitian

    def test_ladder_adjoint_pairs(self):
        obs = build_observables(lattice_d6())
        for plus, minus in ((obs.P_plus, obs.P_minus), (obs.L_plus, obs.L_minus),
                            (obs.S_plus, obs.S_minus)):
            assert (plus.dagger() - minus).max_abs() < 1e-14

    def test_cartesian_components_hermitian(self):
        obs = build_observables(lattice_d6())
        for which in ("P", "L", "S"):
            for comp in obs.cartesian(which):
                assert comp.is_hermitian

    def test_named_keys(self):
        obs = build_observables(lattice_d6())
        assert set(obs.named()) == {
            "energy", "number", "P+", "P-", "P3", "L+", "L-", "L3", "S+", "S-", "S3",
        }


class TestElementaryFamilies:
    """The Pi / Lambda / Sigma families as they sit in the assembled observables."""

    def test_pi_ladder_structure(self):
        lat = lattice_d6()  # hbar = k_perp = 1: P_+ = sum of Pi_+
        obs = build_observables(lat)
        X = obs.P_plus.dense()
        # couples m-1 <- m with coefficient i, within each family only
        for fam in (TM, TE):
            assert X[lat.index(fam, -1, 0, 0), lat.index(fam, 0, 0, 0)] == 1j
        tm = [lat.index(TM, m, 0, 0) for m in lat.m_values]
        te = [lat.index(TE, m, 0, 0) for m in lat.m_values]
        assert np.abs(X[np.ix_(tm, te)]).max() == 0.0
        assert np.abs(X[np.ix_(te, tm)]).max() == 0.0
        assert (obs.P_minus - obs.P_plus.dagger()).max_abs() == 0.0

    def test_lambda_three_counts_m(self):
        lat = lattice_d6()
        X = build_observables(lat).L_3.dense()
        for fam in (TM, TE):
            for m in lat.m_values:
                assert X[lat.index(fam, m, 0, 0), lat.index(fam, m, 0, 0)] == m

    def test_sigma_su2_per_node(self):
        lat = lattice_d6()
        _, s1, s2, s3 = build_stokes(lat, 0, 0, 0)
        assert (commutator(s1, s2) - 2j * s3).max_abs() < 1e-14
        assert (commutator(s2, s3) - 2j * s1).max_abs() < 1e-14
        assert (commutator(s3, s1) - 2j * s2).max_abs() < 1e-14

    def test_sigma_requires_both_families(self):
        single = build_lattice((-1, 1), [(1.0, 1.0)], [(2.0, 1.0)], families=(TM,))
        with pytest.raises(LatticeError):
            build_helicity(single)
        with pytest.raises(LatticeError):
            build_observables(single)


def _per_node(lat):
    for ip, (kp, _) in enumerate(lat.k_perp_nodes):
        for iz, (kz, _) in enumerate(lat.k_z_nodes):
            yield ip, iz, kp, kz, lat.c * math.hypot(kp, kz)


def _elementary(lat, ip, iz):
    """Per-node Pi and Lambda (per family) and Sigma operators {+, 3}."""
    m_lo, m_hi = lat.m_range
    shifted = range(m_lo + 1, m_hi + 1)

    def idx(fam, m):
        return lat.index(fam, m, ip, iz)

    def op(terms, s=0.0):
        return QuadraticOperator.from_terms(lat, terms, s)

    out = {}
    for f in lat.families:
        out["Pi+", f] = op([(idx(f, m - 1), idx(f, m), 1j) for m in shifted])
        out["Pi3", f] = op([(idx(f, m), idx(f, m), 1.0) for m in lat.m_values],
                           0.5 * len(lat.m_values))
        out["Lambda+", f] = op([(idx(f, m - 1), idx(f, m), 1j * (m - 0.5)) for m in shifted])
        out["Lambda3", f] = op([(idx(f, m), idx(f, m), float(m)) for m in lat.m_values],
                               0.5 * sum(lat.m_values))
    out["Sigma+"] = op([t for m in shifted for t in (
        (idx(TE, m), idx(TM, m - 1), 0.5), (idx(TM, m), idx(TE, m - 1), -0.5))])
    out["Sigma3"] = op([t for m in lat.m_values for t in (
        (idx(TM, m), idx(TE, m), 1j), (idx(TE, m), idx(TM, m), -1j))])
    return out


def _reference_operators(lat, include_zero_point):
    """Observables and commutator-table right-hand sides built node by node
    from the elementary families with repeated sparse +, the construction
    the term table replaced."""
    hbar, c = lat.hbar, lat.c
    m_lo, m_hi = lat.m_range
    diag_E = np.array([hbar * lat.omega(i) for i in range(lat.dim)])
    ref = {
        "energy": QuadraticOperator.from_terms(
            lat, [(i, i, diag_E[i]) for i in range(lat.dim)],
            s=0.5 * diag_E.sum() if include_zero_point else 0.0),
        "number": QuadraticOperator.from_terms(
            lat, [(i, i, 1.0) for i in range(lat.dim)],
            s=0.5 * lat.dim if include_zero_point else 0.0),
    }
    sums = ("P+", "P3", "L+", "L3", "S+", "S3", "[L+,L-]", "[L+,P+]", "[S+,L3]", "[S+,L-] printed")
    ref.update((name, QuadraticOperator(lat)) for name in sums)
    for ip, iz, kp, kz, w in _per_node(lat):
        el = _elementary(lat, ip, iz)
        lam3 = QuadraticOperator(lat)
        for f in lat.families:
            ref["P+"] = ref["P+"] + (hbar * kp) * el["Pi+", f]
            ref["P3"] = ref["P3"] + (hbar * kz) * el["Pi3", f]
            ref["L+"] = ref["L+"] + (hbar * kz / kp) * el["Lambda+", f]
            ref["L3"] = ref["L3"] + hbar * el["Lambda3", f]
            lam3 = lam3 + el["Lambda3", f]
        ref["S+"] = ref["S+"] + (hbar * c * kp / w) * el["Sigma+"]
        ref["S3"] = ref["S3"] + (hbar * c * kz / w) * el["Sigma3"]
        ref["[L+,L-]"] = ref["[L+,L-]"] + (2.0 * hbar**2 * kz**2 / kp**2) * QuadraticOperator(
            lat, lam3.X)
        ref["[L+,P+]"] = ref["[L+,P+]"] + QuadraticOperator.from_terms(lat, [
            (lat.index(f, m - 1, ip, iz), lat.index(f, m + 1, ip, iz), hbar**2 * kz)
            for f in lat.families for m in range(m_lo + 1, m_hi)])
        ref["[S+,L3]"] = ref["[S+,L3]"] + (-(hbar**2) * c * kp / w) * el["Sigma+"]
        ref["[S+,L-] printed"] = ref["[S+,L-] printed"] + QuadraticOperator.from_terms(lat, [
            t for m in range(m_lo + 1, m_hi) for t in (
                (lat.index(TE, m + 1, ip, iz), lat.index(TM, m - 1, ip, iz),
                 -1j * hbar**2 * c * kz / w),
                (lat.index(TM, m + 1, ip, iz), lat.index(TE, m - 1, ip, iz),
                 1j * hbar**2 * c * kz / w))])
    for v in "PLS":
        ref[f"{v}-"] = ref[f"{v}+"].dagger()
    return ref


def _reference_pair_block(lat, beta):
    T = np.zeros((lat.dim, lat.dim), dtype=complex)
    for ip, iz, kp, kz, w in _per_node(lat):
        b = beta(kz, w)
        nrm = 1.0 / math.sqrt(1.0 + b**2)
        for m in lat.m_values:
            i1 = lat.index(TM, m, ip, iz)
            i2 = lat.index(TE, m, ip, iz)
            T[i1, i1], T[i1, i2] = nrm, 1j * b * nrm
            T[i2, i1], T[i2, i2] = nrm, -1j * b * nrm
    return T


def _bits(op):
    X = op.X
    return (X.indptr.tobytes(), X.indices.tobytes(), X.data.tobytes(),
            np.array([op.s]).tobytes())


ASSEMBLY_LATTICES = {
    "asymmetric": build_lattice((-2, 5), [(0.37, 0.5), (1.1, 0.25)],
                                [(-2.6, 1.0), (1.3, 0.75)], c=1.7, hbar=0.3),
    "reference": build_lattice((-4, 4), [(v, 1.0) for v in (0.5, 1.0, 1.5)],
                               [(v, 1.0) for v in (1.0, 2.0)]),
    "negative-kz": build_lattice((-3, 1), [(v, 1.0) for v in (0.2, 0.9, 2.3)],
                                 [(v, 1.0) for v in (-1.1, -0.4, 0.8, 3.3)], c=0.61, hbar=2.2),
}


class TestTermTableAssembly:
    @pytest.mark.parametrize("include_zero_point", [True, False], ids=["zero-point", "normal"])
    @pytest.mark.parametrize("name", list(ASSEMBLY_LATTICES))
    def test_bitwise_equal_to_per_node_construction(self, name, include_zero_point):
        lat = ASSEMBLY_LATTICES[name]
        ref = _reference_operators(lat, include_zero_point)
        named = build_observables(lat, include_zero_point).named()
        assert len(named) == 11
        for key, op in named.items():
            assert _bits(op) == _bits(ref[key]), key
        for key in ("[L+,L-]", "[L+,P+]", "[S+,L3]", "[S+,L-] printed"):
            assert _bits(assemble(lat, key)) == _bits(ref[key]), key

    @pytest.mark.parametrize("name", list(ASSEMBLY_LATTICES))
    def test_pair_blocks_bitwise_equal_to_per_node_fill(self, name):
        lat = ASSEMBLY_LATTICES[name]
        pm = _reference_pair_block(lat, lambda kz, w: 1.0)
        rl = _reference_pair_block(lat, lambda kz, w: lat.c * kz / w)
        assert make_pm_map(lat).T.toarray().tobytes() == pm.tobytes()
        assert make_rl_map(lat).T.toarray().tobytes() == rl.tobytes()


class TestExpectations:
    def test_two_mode_transverse_momentum(self):
        # equal real amplitudes on neighbors (m, m+1) carry transverse
        # momentum 2 hbar k_perp |alpha|^2 w along axis 2 and none along 1
        lat = build_lattice((-2, 2), [(1.3, 0.7)], [(2.0, 1.0)])
        obs = build_observables(lat, include_zero_point=False)
        a = 0.6
        alpha = CoherentAmplitude({
            lat.index(TM, 0, 0, 0): a,
            lat.index(TM, 1, 0, 0): a,
        })
        P1, P2, P3 = obs.cartesian("P")
        p1 = coherent_expectation(P1, alpha)
        p2 = coherent_expectation(P2, alpha)
        kp = 1.3
        assert abs(p1) < 1e-14
        assert p2.real == pytest.approx(2 * kp * a**2, rel=1e-14)
        assert abs(p2.imag) < 1e-14
        # independent Fock-oracle value
        small = build_lattice((0, 1), [(1.3, 0.7)], [(2.0, 1.0)])
        oracle = FockOracle(small, n_max=8)
        obs_small = build_observables(small, include_zero_point=False)
        alpha_small = CoherentAmplitude({small.index(TM, 0, 0, 0): a, small.index(TM, 1, 0, 0): a})
        _, P2s, _ = obs_small.cartesian("P")
        assert oracle.expectation(P2s, alpha_small).real == pytest.approx(
            2 * kp * a**2, abs=1e-6
        )

    def test_zero_point_energy(self):
        lat = lattice_d6()
        energy, number = build_energy_number(lat, include_zero_point=True)
        vac = coherent_expectation(energy, CoherentAmplitude())
        expected = 0.5 * sum(lat.omega(i) for i in range(lat.dim))
        assert vac.real == pytest.approx(expected, rel=1e-15)
        assert coherent_expectation(number, CoherentAmplitude()).real == pytest.approx(
            0.5 * lat.dim
        )

    def test_pm_basis_changes_helicity_not_energy(self):
        # one TM photon vs one (+) photon: same energy, different S3
        lat = lattice_d6()
        obs = build_observables(lat, include_zero_point=False)
        pm = make_pm_map(lat)
        idx = lat.index(TM, 0, 0, 0)
        a_tm = CoherentAmplitude({idx: 1.0})
        # (+) coherent state: alpha' has support on the TM slot in the new
        # basis; pull back to old-basis amplitudes via T^-1
        e = np.zeros(lat.dim, dtype=complex)
        e[idx] = 1.0
        back = np.linalg.inv(pm.T.toarray()) @ e
        a_plus = CoherentAmplitude({i: back[i] for i in range(lat.dim) if abs(back[i]) > 0})
        E1 = coherent_expectation(obs.energy, a_tm)
        E2 = coherent_expectation(obs.energy, a_plus)
        S1 = coherent_expectation(obs.S_3, a_tm)
        S2 = coherent_expectation(obs.S_3, a_plus)
        assert E1 == pytest.approx(E2, rel=1e-12)
        assert abs(S1) < 1e-14  # pure TM carries no mean helicity
        w = math.hypot(1.0, 2.0)
        assert S2.real == pytest.approx(2.0 / w, rel=1e-12)  # c kz / w per photon


class TestStokes:
    def test_pair_expectations_match_the_quadratic_forms(self):
        lat = ASSEMBLY_LATTICES["asymmetric"]
        rng = np.random.default_rng(3)
        alpha = CoherentAmplitude(
            {int(i): complex(*rng.normal(size=2)) for i in rng.choice(lat.dim, 12, replace=False)}
        )
        sigma = stokes_expectations(lat, alpha)
        assert sigma.shape == (3, 8, 2, 2)
        for im, m in enumerate(lat.m_values):
            for ip in range(2):
                for iz in range(2):
                    ops = build_stokes(lat, ip, iz, m)[1:]
                    for k in range(3):
                        want = coherent_expectation(ops[k], alpha)
                        assert sigma[k, im, ip, iz] == pytest.approx(want, rel=1e-15, abs=1e-15)


class TestBasisMaps:
    def test_pm_unitary(self):
        pm = make_pm_map(lattice_d6())
        assert pm.is_unitary
        assert pm.condition_number == pytest.approx(1.0, abs=1e-12)

    def test_rl_nonunitary_but_invertible(self):
        rl = make_rl_map(lattice_d6())
        assert not rl.is_unitary
        assert 1.0 < rl.condition_number < 10.0

    @pytest.mark.parametrize("make_map", [make_pm_map, make_rl_map], ids=["pm", "rl"])
    def test_block_inverse_matches_dense_inverse(self, make_map):
        lat = ASSEMBLY_LATTICES["negative-kz"]
        bm = make_map(lat)
        assert [b.shape[1:] for _, b in bm._blocks] == [(2, 2)]
        dense = np.linalg.inv(bm.T.toarray())
        assert np.abs(bm.inverse.toarray() - dense).max() <= 1e-12

    def test_rl_condition_number_over_distinct_betas(self):
        lat = ASSEMBLY_LATTICES["negative-kz"]
        rl = make_rl_map(lat)
        betas = {round(lat.c * kz / (lat.c * math.hypot(kp, kz)), 12)
                 for kp, _ in lat.k_perp_nodes for kz, _ in lat.k_z_nodes}
        assert len(betas) == 12
        assert rl.condition_number == pytest.approx(np.linalg.cond(rl.T.toarray()), rel=1e-12)

    def test_rl_needs_wide_m_range(self):
        narrow = build_lattice((0, 1), [(1.0, 1.0)], [(2.0, 1.0)])
        with pytest.raises(LatticeError):
            make_rl_map(narrow)


class TestSpherical:
    def test_su2_closure(self):
        s_lat = SphericalLattice(((2.0, 1.0),), (1, 4))
        L_plus, L_minus, L_3 = build_L_spherical(s_lat)
        Lx = L_plus + L_minus
        Ly = 1j * (L_minus - L_plus)
        from besselbeams.lattice import QuadraticOperator

        L3_nos = QuadraticOperator(s_lat, L_3.X, 0.0)
        assert (commutator(Lx, Ly) - 1j * L3_nos).max_abs() < 1e-13
        # with the halved ladder coefficients, [L+, L-] = (hbar/2) L3
        assert (commutator(L_plus, L_minus) - 0.5 * L3_nos).max_abs() < 1e-13

    def test_l3_spectrum(self):
        s_lat = SphericalLattice(((1.0, 1.0),), (1, 2))
        _, _, L_3 = build_L_spherical(s_lat)
        diag = np.real(np.diag(L_3.dense()))
        ms = sorted(diag.tolist())
        expected = sorted([m for _ in ("E", "M") for j in (1, 2) for m in range(-j, j + 1)])
        assert np.allclose(ms, expected)

    @pytest.mark.parametrize(
        "omega_nodes, hbar",
        [(((float("nan"), 1.0),), 1.0), (((float("inf"), 1.0),), 1.0),
         (((1.0, float("nan")),), 1.0), (((1.0, -1.0),), 1.0), (((1.0, 1.0),), float("nan"))],
        ids=["omega-nan", "omega-inf", "weight-nan", "weight-negative", "hbar-nan"],
    )
    def test_nodes_and_hbar_must_be_positive_and_finite(self, omega_nodes, hbar):
        with pytest.raises(LatticeError):
            SphericalLattice(omega_nodes, (1, 2), hbar=hbar)

    def test_index_validation(self):
        s_lat = SphericalLattice(((1.0, 1.0),), (1, 2))
        with pytest.raises(LatticeError):
            s_lat.index("E", 0, 3, 0)
        with pytest.raises(LatticeError):
            s_lat.index("E", 0, 2, 3)
        with pytest.raises(LatticeError):
            SphericalLattice(((1.0, 1.0),), (0, 2))
