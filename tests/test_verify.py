"""Verification-suite behavior: outcomes, flags, and result invariants."""

import math
import time

import numpy as np
import pytest
from scipy.special import roots_legendre

from besselbeams import specfun
from besselbeams.dynops import assemble, build_stokes
from besselbeams.lattice import build_lattice
from besselbeams.modes import TM
from besselbeams.verify import (
    RelationResult,
    WavepacketSpec,
    QuadratureDomain,
    basis_suite,
    commutator_suite,
    default_domain,
    expansion_coefficients,
    k_counts,
    printed_uv,
    spherical_suite,
    _spherical_wave_pair,
    _su2_residual,
)


def make_lattice():
    return build_lattice(
        (-4, 4),
        [(0.5, 1.0), (1.5, 1.0)],
        [(1.0, 1.0), (2.0, 1.0)],
    )


class TestRelationResult:
    def test_pass_flag_must_match_norm(self):
        with pytest.raises(ValueError):
            RelationResult("x", 1.0, 1e-3, True)
        with pytest.raises(ValueError):
            RelationResult("x", 0.0, 1e-3, False)

    def test_from_norm_and_inconclusive(self):
        ok = RelationResult.from_norm("a", 1e-6, 1e-3)
        assert ok.passed and not ok.inconclusive
        bad = RelationResult.from_norm("b", 1.0, 1e-3)
        assert not bad.passed
        inc = RelationResult.from_norm("c", 1e-6, 1e-3, "no convergence", inconclusive=True)
        assert inc.inconclusive and not inc.passed
        with pytest.raises(ValueError):
            RelationResult("d", 1e-6, 1e-3, True, inconclusive=True)

    def test_to_dict_schema(self):
        d = RelationResult.from_norm("a", 0.0, 1e-3, "n").to_dict()
        assert set(d) == {"name", "residual", "tolerance", "pass", "notes"}


class TestCommutatorSuite:
    def test_outcomes(self):
        results = commutator_suite(make_lattice())
        by_name = {r.name: r for r in results}
        # deterministic sorted order
        assert [r.name for r in results] == sorted(r.name for r in results)
        # canonical relations all pass
        for name, r in by_name.items():
            if r.notes.startswith("canonical"):
                assert r.passed, name
        # the two printed relations are flagged, their companions pass
        assert not by_name["commutator: [S+,L+] = -hbar S3 (printed)"].passed
        assert by_name["commutator: [S+,L+] = +(hbar/2) S3 (computed)"].passed
        slm = [n for n in by_name if "[S+,L-]" in n]
        assert any(n.endswith("(printed)") and not by_name[n].passed for n in slm)
        assert any(n.endswith("(computed)") and by_name[n].passed for n in slm)
        # everything else passes
        for name, r in by_name.items():
            if not name.endswith("(printed)"):
                assert r.passed, (name, r.lhs_minus_rhs_norm)

    def test_residuals_scale_with_the_operands(self):
        # D = 66, |m| <= 16, kz/kp = 8.3: [L+,L-] has entries of 1.7e4 and an
        # absolute residual of 3e-12; relative to |L+|max |L-|max it is ~2e-16
        lat = build_lattice((-16, 16), [(0.3, 1.0)], [(2.5, 1.0)])
        by_name = {r.name: r for r in commutator_suite(lat, fock_check=False)}
        failing = {n for n, r in by_name.items() if not r.passed}
        assert failing == {n for n in by_name if n.endswith("(printed)")}
        ll = by_name["commutator: [L+,L-] = 2 hbar^2 sum (kz^2/kp^2) Lambda3"]
        assert ll.lhs_minus_rhs_norm < 1e-15
        assert "|A|max |B|max = 16684" in ll.notes

    def test_fock_cross_check_included(self):
        results = commutator_suite(make_lattice(), fock_check=True)
        names = [r.name for r in results]
        assert any("fock-oracle" in n for n in names)
        results2 = commutator_suite(make_lattice(), fock_check=False)
        assert not any("fock-oracle" in r.name for r in results2)


class TestStokesResidual:
    STOKES = "commutator: stokes [sigma_i,sigma_j] = 2i eps_ijk sigma_k"

    @staticmethod
    def pairs(lat):
        return [(ip, iz, m) for ip in range(len(lat.k_perp_nodes))
                for iz in range(len(lat.k_z_nodes)) for m in lat.m_values]

    def test_suite_residual_is_the_per_pair_worst(self):
        lat = build_lattice((-2, 2), [(0.5, 1.0), (1.5, 1.0)], [(1.0, 1.0), (-2.0, 1.0)])
        worst = max(_su2_residual(*build_stokes(lat, *p)[1:]) for p in self.pairs(lat))
        by_name = {r.name: r for r in commutator_suite(lat, fock_check=False)}
        assert by_name[self.STOKES].lhs_minus_rhs_norm == worst
        summed = _su2_residual(*(assemble(lat, f"sigma{k}") for k in (1, 2, 3)))
        assert summed == worst

    def test_disjoint_pairs_keep_each_pair_residual(self):
        # scaled pairs f sigma_k break su(2) by |f^2 - f|; the sum over all
        # pairs has the worst pair's residual, not a sum of them
        lat = build_lattice((-2, 2), [(0.5, 1.0), (1.5, 1.0)], [(1.0, 1.0), (-2.0, 1.0)])
        per_pair, summed = [], [0.0, 0.0, 0.0]
        for n, p in enumerate(self.pairs(lat)):
            scaled = [(1.0 + 0.1 * n) * s for s in build_stokes(lat, *p)[1:]]
            per_pair.append(_su2_residual(*scaled))
            summed = [a + b for a, b in zip(summed, scaled)]
        assert max(per_pair) > 1.0
        assert _su2_residual(*summed) == pytest.approx(max(per_pair), rel=1e-15)


class TestBasisSuite:
    def test_all_pass(self):
        for r in basis_suite(make_lattice()):
            assert r.passed, (r.name, r.lhs_minus_rhs_norm, r.notes)

    def test_sparse_at_d2376(self):
        # dense D x D basis maps took about a minute and 0.9 GB at this size
        lat = build_lattice((-16, 16), [(0.3 + 0.2 * i, 1.0) for i in range(6)],
                            [(1.0 + 0.3 * i, 1.0) for i in range(6)])
        assert lat.dim == 2376
        t0 = time.perf_counter()
        results = basis_suite(lat)
        assert time.perf_counter() - t0 < 15.0
        for r in results:
            assert r.passed, (r.name, r.lhs_minus_rhs_norm, r.notes)

    def test_pythagorean_node_helicity(self):
        # on the (3, 4) node the (+/-) helicity eigenvalues are +/- 0.8
        lat = build_lattice((-2, 2), [(3.0, 1.0)], [(4.0, 1.0)])
        results = basis_suite(lat)
        eig = next(r for r in results if "eigenvalues" in r.name)
        assert eig.passed


class TestWavepacketAndDomain:
    def test_support_validation(self):
        with pytest.raises(ValueError):
            WavepacketSpec(TM, 0, 1.0, 0.5, 2.0, 0.1)  # k_perp support hits 0
        with pytest.raises(ValueError):
            WavepacketSpec(TM, 0, 1.0, 0.1, 0.2, 0.1)  # k_z support crosses 0
        wp = WavepacketSpec(TM, 1, 1.0, 0.05, 2.0, 0.05)
        g = wp.envelope(np.array([1.0]), np.array([2.0]))
        assert g[0] == pytest.approx(1.0)

    def test_domain_scaling(self):
        wp = WavepacketSpec(TM, 1, 1.0, 0.1, 2.0, 0.1)
        dom = default_domain(wp)
        fine = dom.scaled(1.5)
        assert fine.R == pytest.approx(1.5 * dom.R)
        assert fine.n_radial >= 2 * dom.n_radial
        with pytest.raises(ValueError):
            QuadratureDomain(-1.0, 1.0, 8, 8)

    def test_k_counts_scale_with_domain(self):
        wp = WavepacketSpec(TM, 1, 1.0, 0.1, 2.0, 0.1)
        dom = default_domain(wp)
        n1 = k_counts(wp, dom)
        n2 = k_counts(wp, dom.scaled(2.0))
        assert n2[0] >= 2 * n1[0] - 24
        assert n2[1] >= 2 * n1[1] - 24


class TestSphericalSuite:
    def test_outcomes(self):
        results = spherical_suite(j_max=40)
        by_name = {r.name: r for r in results}
        flagged = "spherical: printed u phase matches projection coefficient (flagged)"
        assert not by_name[flagged].passed
        for name, r in by_name.items():
            if name != flagged:
                assert r.passed, (name, r.lhs_minus_rhs_norm)

    def test_selection_rule_and_ratio(self):
        # coefficients with m_j != m vanish identically; printed magnitude
        # tracks the projection magnitude with a constant ratio
        u1, v1 = printed_uv(2, 1.0, 2.0, 5, 3)
        assert u1 == 0.0 and v1 == 0.0
        aE4, aM4 = expansion_coefficients("N", 2, 1.0, 2.0, 4)
        aE5, aM5 = expansion_coefficients("N", 2, 1.0, 2.0, 5)
        u4, v4 = printed_uv(2, 1.0, 2.0, 4, 2)
        u5, v5 = printed_uv(2, 1.0, 2.0, 5, 2)
        assert abs(aE4 / u4) == pytest.approx(abs(aE5 / u5), rel=1e-10)
        assert abs(aM4 / v4) == pytest.approx(abs(aM5 / v5), rel=1e-10)
        assert abs(aE4 / u4) == pytest.approx(abs(aM4 / v4), rel=1e-10)


def _spherical_wave_quadrature(j, m, omega, point, c=1.0):
    """(V^E_j, V^M_j)(r) = int dOmega Y^(i)_jm(n) e^{i (omega/c) n . r} on a
    (j+40)-node Gauss-Legendre x n_phi-point trapezoid rule over the sphere."""
    x, y, z = point
    r = math.sqrt(x * x + y * y + z * z)
    n_theta = j + 40
    n_phi = int(8 * (abs(m) + omega * r / c + 4))
    ct, wt = roots_legendre(n_theta)
    st = np.sqrt(1.0 - ct * ct)
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)[None, :]
    ye, ym = specfun.vsh_grid(j, m, np.arccos(ct)[:, None], phis)
    kdotr = (omega / c) * (
        st[:, None] * np.cos(phis) * x + st[:, None] * np.sin(phis) * y + ct[:, None] * z
    )
    wgt = (wt[:, None] * np.exp(1j * kdotr)) * (2 * math.pi / n_phi)
    ve = np.tensordot(wgt, ye, axes=([0, 1], [0, 1]))
    vm = np.tensordot(wgt, ym, axes=([0, 1], [0, 1]))
    return ve, vm


def _closed_form_and_oracle(j, m, omega, kr, theta, phi):
    r_hat = np.array(
        [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
    )
    point = tuple(kr / omega * r_hat)
    return _spherical_wave_pair(j, m, omega, point), _spherical_wave_quadrature(j, m, omega, point)


class TestSphericalWaves:
    def test_rayleigh_closed_form(self):
        # the shipped closed form against the angular quadrature it replaced
        rng = np.random.default_rng(20261018)
        cases = []
        for _ in range(24):
            j = int(rng.integers(1, 12))
            m = int(rng.integers(-j, j + 1))
            omega = rng.uniform(0.5, 3.0)
            # below kr ~ j/2, V_j ~ (kr)^j is so small that the quadrature's
            # absolute rounding dominates any relative bound
            kr = rng.uniform(0.5 * j + 0.5, j + 4.0)
            theta = math.acos(rng.uniform(-0.95, 0.95))
            phi = rng.uniform(-math.pi, math.pi)
            cases.append((j, m, omega, kr, theta, phi))
        # on the axis the transverse harmonics vanish unless |m| = 1, and the
        # radial Y_jm term of V^E unless m = 0
        axis = [(j, m, 1.3, j + 2.5, theta, 0.0)
                for j in (1, 4, 8) for m in (-1, 0, 1) for theta in (0.0, math.pi)]
        for case in cases + axis:
            (ve, vm), (ve_q, vm_q) = _closed_form_and_oracle(*case)
            scale = max(np.abs(ve_q).max(), np.abs(vm_q).max())
            assert np.abs(vm - vm_q).max() <= 1e-10 * scale, case
            assert np.abs(ve - ve_q).max() <= 1e-10 * scale, case
        for j, m in ((2, 2), (4, -2), (8, 3)):
            for theta in (0.0, math.pi):
                waves = _closed_form_and_oracle(j, m, 1.3, j + 2.5, theta, 0.0)
                assert max(np.abs(v).max() for pair in waves for v in pair) < 1e-14, (j, m, theta)
