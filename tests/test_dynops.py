"""Observable builders: Hermiticity, oracle expectations, basis maps."""

import math

import numpy as np
import pytest

from besselbeams.dynops import (
    SphericalLattice,
    build_L_spherical,
    build_energy_number,
    build_momentum,
    build_observables,
    build_stokes,
    elementary_lambda,
    elementary_pi,
    elementary_sigma,
    make_pm_map,
    make_rl_map,
)
from besselbeams.lattice import (
    CoherentAmplitude,
    FockOracle,
    LatticeError,
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
    def test_pi_ladder_structure(self):
        lat = lattice_d6()
        pi = elementary_pi(lat, TM, 0, 0)
        X = pi["+"].dense()
        # couples m-1 <- m with coefficient i, TM block only
        assert X[lat.index(TM, -1, 0, 0), lat.index(TM, 0, 0, 0)] == 1j
        assert np.abs(X[lat.index(TE, -1, 0, 0), :]).max() == 0.0
        assert (pi["-"] - pi["+"].dagger()).max_abs() == 0.0

    def test_lambda_three_counts_m(self):
        lat = lattice_d6()
        lam3 = elementary_lambda(lat, TE, 0, 0)["3"]
        X = lam3.dense()
        for m in lat.m_values:
            assert X[lat.index(TE, m, 0, 0), lat.index(TE, m, 0, 0)] == m

    def test_sigma_su2_per_node(self):
        lat = lattice_d6()
        _, s1, s2, s3 = build_stokes(lat, 0, 0, 0)
        assert (commutator(s1, s2) - 2j * s3).max_abs() < 1e-14
        assert (commutator(s2, s3) - 2j * s1).max_abs() < 1e-14
        assert (commutator(s3, s1) - 2j * s2).max_abs() < 1e-14

    def test_sigma_requires_both_families(self):
        single = build_lattice((-1, 1), [(1.0, 1.0)], [(2.0, 1.0)], families=(TM,))
        with pytest.raises(LatticeError):
            elementary_sigma(single, 0, 0)


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
        back = np.linalg.inv(pm.T) @ e
        a_plus = CoherentAmplitude({i: back[i] for i in range(lat.dim) if abs(back[i]) > 0})
        E1 = coherent_expectation(obs.energy, a_tm)
        E2 = coherent_expectation(obs.energy, a_plus)
        S1 = coherent_expectation(obs.S_3, a_tm)
        S2 = coherent_expectation(obs.S_3, a_plus)
        assert E1 == pytest.approx(E2, rel=1e-12)
        assert abs(S1) < 1e-14  # pure TM carries no mean helicity
        w = math.hypot(1.0, 2.0)
        assert S2.real == pytest.approx(2.0 / w, rel=1e-12)  # c kz / w per photon


class TestBasisMaps:
    def test_pm_unitary(self):
        pm = make_pm_map(lattice_d6())
        assert pm.is_unitary
        assert pm.condition_number == pytest.approx(1.0, abs=1e-12)

    def test_rl_nonunitary_but_invertible(self):
        rl = make_rl_map(lattice_d6())
        assert not rl.is_unitary
        assert 1.0 < rl.condition_number < 10.0

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

    def test_index_validation(self):
        s_lat = SphericalLattice(((1.0, 1.0),), (1, 2))
        with pytest.raises(LatticeError):
            s_lat.index("E", 0, 3, 0)
        with pytest.raises(LatticeError):
            s_lat.index("E", 0, 2, 3)
        with pytest.raises(LatticeError):
            SphericalLattice(((1.0, 1.0),), (0, 2))
