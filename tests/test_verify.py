"""Verification-suite behavior: outcomes, flags, and result invariants."""

import math

import numpy as np
import pytest
from scipy.special import spherical_jn

from besselbeams import specfun
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


class TestBasisSuite:
    def test_all_pass(self):
        for r in basis_suite(make_lattice()):
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


class TestSphericalWaves:
    def test_rayleigh_closed_form(self):
        # V^M_j = 4 pi i^j j_j(kr) Y^M_jm(r^) and V^E_j = -(1/ik) curl V^M_j
        #       = 4 pi i^(j+3) [(j_j/kr) Y_jm r^ + (j_j/kr + j_j') Y^E_jm]
        rng = np.random.default_rng(20261018)
        for _ in range(24):
            j = int(rng.integers(1, 12))
            m = int(rng.integers(-j, j + 1))
            omega = rng.uniform(0.5, 3.0)
            # below kr ~ j/2, V_j ~ (kr)^j is so small that the quadrature's
            # absolute rounding dominates any relative bound
            kr = rng.uniform(0.5 * j + 0.5, j + 4.0)
            theta = math.acos(rng.uniform(-0.95, 0.95))
            phi = rng.uniform(-math.pi, math.pi)
            r_hat = np.array(
                [math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)]
            )
            ve, vm = _spherical_wave_pair(j, m, omega, tuple(kr / omega * r_hat))
            ye, ym = specfun.vsh_grid(j, m, theta, phi)
            y = specfun.spherical_harmonic(j, m, theta, phi)
            jj, jp = spherical_jn(j, kr), spherical_jn(j, kr, derivative=True)
            vm_cf = 4 * math.pi * 1j**j * jj * ym
            ve_cf = 4 * math.pi * 1j ** (j + 3) * ((jj / kr) * y * r_hat + (jj / kr + jp) * ye)
            scale = max(np.abs(ve_cf).max(), np.abs(vm_cf).max())
            assert np.abs(vm - vm_cf).max() <= 1e-10 * scale, (j, m, omega, kr)
            assert np.abs(ve - ve_cf).max() <= 1e-10 * scale, (j, m, omega, kr)
