"""Verification-suite behavior: outcomes, flags, and result invariants."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import roots_legendre, spherical_jn

from besselbeams import specfun, verify
from besselbeams.dynops import assemble, build_stokes
from besselbeams.lattice import build_lattice
from besselbeams.modes import TM
from besselbeams.verify import (
    RelationResult,
    WavepacketSpec,
    QuadratureDomain,
    apply_L_plus,
    basis_suite,
    commutator_suite,
    default_domain,
    expansion_coefficients,
    k_counts,
    partial_sums,
    printed_uv,
    smear_mode,
    spherical_suite,
    _CylinderQuadrature,
    _panels,
    _spherical_wave_pair,
    _su2_residual,
)


def make_lattice():
    return build_lattice(
        (-4, 4),
        [0.5, 1.5],
        [1.0, 2.0],
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
        lat = build_lattice((-16, 16), [0.3], [2.5])
        by_name = {r.name: r for r in commutator_suite(lat)}
        failing = {n for n, r in by_name.items() if not r.passed}
        assert failing == {n for n in by_name if n.endswith("(printed)")}
        ll = by_name["commutator: [L+,L-] = 2 hbar^2 sum (kz^2/kp^2) Lambda3"]
        assert ll.lhs_minus_rhs_norm < 1e-15
        assert "|A|max |B|max = 16684" in ll.notes

    def test_fock_cross_check_included(self):
        results = commutator_suite(make_lattice())
        names = [r.name for r in results]
        assert any("fock-oracle" in n for n in names)


def stokes_matrices(lat, pair):
    """Coefficient matrices of sigma_1..3 on one (ip, iz, m) pair."""
    return [s.X for s in build_stokes(lat, *pair)[1:]]


class TestStokesResidual:
    STOKES = "commutator: stokes [sigma_i,sigma_j] = 2i eps_ijk sigma_k"

    @staticmethod
    def pairs(lat):
        return [(ip, iz, m) for ip in range(len(lat.k_perp_nodes))
                for iz in range(len(lat.k_z_nodes)) for m in lat.m_values]

    def test_suite_residual_is_the_per_pair_worst(self):
        lat = build_lattice((-2, 2), [0.5, 1.5], [1.0, -2.0])
        worst = max(_su2_residual(*stokes_matrices(lat, p), 2j) for p in self.pairs(lat))
        by_name = {r.name: r for r in commutator_suite(lat)}
        assert by_name[self.STOKES].lhs_minus_rhs_norm == worst
        summed = _su2_residual(*(assemble(lat, f"sigma{k}").X for k in (1, 2, 3)), 2j)
        assert summed == worst

    def test_disjoint_pairs_keep_each_pair_residual(self):
        # scaled pairs f sigma_k break su(2) by |f^2 - f|; the sum over all
        # pairs has the worst pair's residual, not a sum of them
        lat = build_lattice((-2, 2), [0.5, 1.5], [1.0, -2.0])
        per_pair, summed = [], [0.0, 0.0, 0.0]
        for n, p in enumerate(self.pairs(lat)):
            scaled = [(1.0 + 0.1 * n) * X for X in stokes_matrices(lat, p)]
            per_pair.append(_su2_residual(*scaled, 2j))
            summed = [a + b for a, b in zip(summed, scaled)]
        assert max(per_pair) > 1.0
        assert _su2_residual(*summed, 2j) == pytest.approx(max(per_pair), rel=1e-15)


class TestBasisSuite:
    def test_all_pass(self):
        for r in basis_suite(make_lattice()):
            assert r.passed, (r.name, r.lhs_minus_rhs_norm, r.notes)

    def test_sparse_at_d2376(self):
        # dense D x D basis maps took about a minute and 0.9 GB at this size
        lat = build_lattice((-16, 16), [0.3 + 0.2 * i for i in range(6)],
                            [1.0 + 0.3 * i for i in range(6)])
        assert lat.dim == 2376
        t0 = time.perf_counter()
        results = basis_suite(lat)
        assert time.perf_counter() - t0 < 15.0
        for r in results:
            assert r.passed, (r.name, r.lhs_minus_rhs_norm, r.notes)

    def test_pythagorean_node_helicity(self):
        # on the (3, 4) node the (+/-) helicity eigenvalues are +/- 0.8
        lat = build_lattice((-2, 2), [3.0], [4.0])
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


def _axial_quadrature(kz1, kz2, Z, q, sign):
    """int_-Z^Z z^q e^{i(kz + sign kz') z} dz as a matrix on 64 panels of 24
    Gauss-Legendre nodes: the exp-table kernel the closed form replaced."""
    z, w_z = _panels(-Z, Z, 64 * 24)
    E1 = np.exp(1j * np.outer(kz1, z))
    E2 = np.exp(1j * sign * np.outer(kz2, z))
    return (E1 * (w_z * z**q)) @ E2.T


def _j1_series(x):
    """j_1(x) = x sum_k (-x^2/2)^k / (k! (2k+3)!!), summed to rounding for |x| <= 0.1."""
    term, total, k = x / 3.0, 0.0, 0
    while term != 0.0 and k < 12:
        total += term
        k += 1
        term *= -x * x / (2 * k * (2 * k + 3))
    return total


class TestAxialKernel:
    Z = 6.5
    X = np.array([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 7.5, 33.0, 100.0])

    def quad(self):
        return _CylinderQuadrature(QuadratureDomain(3.0, self.Z, 24, 24))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    @pytest.mark.parametrize("q", [0, 1])
    def test_closed_form_matches_the_quadrature(self, q, sign):
        # kappa Z = +/-X; the X = 0 entry is exact: kz' = kz for the conjugated
        # product (sign -1, a conjugated field carries -kz'), kz' = -kz for the
        # non-conjugated one (sign +1)
        base = 1.7
        kz1 = np.concatenate([base + self.X / self.Z, base - self.X[1:] / self.Z])
        kz2 = np.array([-sign * base])
        got = self.quad().axial(
            SimpleNamespace(kz_nodes=kz1), SimpleNamespace(kz_nodes=sign * kz2), q
        )
        want = _axial_quadrature(kz1, kz2, self.Z, q, sign)
        assert got.shape == want.shape == (len(kz1), 1)
        assert (kz1 + sign * kz2)[0] == 0.0
        scale = 2 * self.Z if q == 0 else self.Z**2
        assert np.abs(got - want).max() <= 1e-13 * scale

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_small_argument_needs_no_series_branch(self, sign):
        kz1 = self.X[1:6] / self.Z  # kappa Z from 1e-12 to 0.1, against kz' = 0
        F1, F2 = SimpleNamespace(kz_nodes=kz1), SimpleNamespace(kz_nodes=sign * np.zeros(1))
        quad = self.quad()
        x = kz1 * self.Z
        j0 = quad.axial(F1, F2, 0)[:, 0] / (2 * self.Z)
        j1 = quad.axial(F1, F2, 1)[:, 0] / (2j * self.Z**2)
        assert np.abs(j0 - np.sin(x) / x).max() <= 1e-15
        j1_ref = np.array([_j1_series(v) for v in x])
        assert np.all(np.abs(j1 - j1_ref) <= 1e-14 * np.abs(j1_ref))

    def test_only_z_powers_zero_and_one(self):
        F = SimpleNamespace(kz_nodes=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            self.quad().axial(F, F, 2)


def _branching_volume_integral(F1, F2, quad, table, conjugate):
    """int F1 (table product) F2(*) dV as one loop that branches on `conjugate`
    for the e_pol flip, the azimuthal selection rule, the conjugated
    coefficients and the sign of kz' in the axial kernel: the contraction
    that SmearedField.conj() replaced."""
    Z = quad.dom.Z
    out = {pol: 0.0 + 0.0j for pol, _ in table.values()}
    for c1 in F1.comps:
        for c2 in F2.comps:
            pol2 = verify._FLIP[c2.pol] if conjugate else c2.pol
            pair = table.get((c1.pol, pol2))
            if pair is None:
                continue
            if conjugate:
                if c1.azim != c2.azim:
                    continue
                G2 = np.conj(c2.coeff)
                sign = -1.0
            else:
                if c1.azim + c2.azim != 0:
                    continue
                G2 = c2.coeff
                sign = 1.0
            rad = quad.radial(F1, F2, c1.order, c2.order, c1.rho_pow + c2.rho_pow)
            x = np.add.outer(F1.kz_nodes, sign * F2.kz_nodes) * Z
            q = c1.z_pow + c2.z_pow
            ax = 2 * Z * spherical_jn(0, x) if q == 0 else 2j * Z * Z * spherical_jn(1, x)
            G1 = c1.coeff * F1.kp_w[:, None] * F1.kz_w[None, :]
            G2 = G2 * F2.kp_w[:, None] * F2.kz_w[None, :]
            out[pair[0]] += 2 * math.pi * pair[1] * np.einsum("ab,cd,ac,bd->", G1, G2, rad, ax, optimize=True)
    return out


class TestOneContractionPath:
    @pytest.fixture(scope="class")
    def contracted(self):
        """(F1, F2, quad) of every contraction quadrature_suite makes at margin 0.25."""
        seen = {}

        def recording(fn):
            def wrapped(F1, F2, quad, conjugate=True):
                seen.setdefault((id(F1), id(F2), id(quad)), (F1, F2, quad))
                return fn(F1, F2, quad, conjugate)
            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "volume_dot", recording(verify.volume_dot))
            mp.setattr(verify, "volume_cross", recording(verify.volume_cross))
            verify.quadrature_suite(margin=0.25)
        return list(seen.values())

    def test_equals_the_branching_contraction_exactly(self, contracted):
        # 8 pairs on both the coarse and the fine pass, 4 more on the coarse
        # one, and E.E*, B.B* for the energy per photon
        assert len(contracted) == 22
        nonzero = set()
        for F1, F2, quad in contracted:
            for conjugate in (True, False):
                dot = verify.volume_dot(F1, F2, quad, conjugate)
                cross = verify.volume_cross(F1, F2, quad, conjugate)
                assert dot == _branching_volume_integral(F1, F2, quad, verify._DOT, conjugate)[""]
                assert cross == _branching_volume_integral(F1, F2, quad, verify._CROSS, conjugate)
                if dot != 0 or any(cross.values()):
                    nonzero.add(conjugate)
        assert nonzero == {True, False}

    def test_conj_is_an_involution_on_shared_k_perp_nodes(self):
        wp = WavepacketSpec(TM, 2, 1.0, 0.08, 2.0, 0.12)
        F = apply_L_plus(smear_mode("N", wp, 48, 48))
        Fc, Fcc = F.conj(), F.conj().conj()
        assert Fc.kp_nodes is F.kp_nodes and Fcc.kp_nodes is F.kp_nodes
        assert np.array_equal(Fc.kz_nodes, -F.kz_nodes)
        assert [(c.pol, c.azim) for c in Fc.comps] == [
            (verify._FLIP[c.pol], -c.azim) for c in F.comps
        ]
        for name in ("kp_nodes", "kp_w", "kz_nodes", "kz_w"):
            assert np.array_equal(getattr(Fcc, name), getattr(F, name)), name
        assert len(Fcc.comps) == len(F.comps) == 6
        for c, cc in zip(F.comps, Fcc.comps):
            assert cc[:5] == c[:5]
            assert np.array_equal(cc.coeff, c.coeff)
        with pytest.raises(AttributeError):
            F.comps[0].coeff = 2 * F.comps[0].coeff


class TestSphericalSuite:
    def test_outcomes(self):
        results = spherical_suite()
        by_name = {r.name: r for r in results}
        flagged = "spherical: printed u phase matches projection coefficient (flagged)"
        assert not by_name[flagged].passed
        for name, r in by_name.items():
            if name != flagged:
                assert r.passed, (name, r.lhs_minus_rhs_norm)

    def test_selection_rule_and_ratio(self):
        # projections onto m_j = m +/- 1 vanish to rounding, and there is no
        # Y_(2,3); printed magnitude tracks the projection magnitude with a
        # constant ratio
        aE4, aM4 = expansion_coefficients("N", 2, 1.0, 2.0, 4)
        for mj in (1, 3):
            off_E, off_M = expansion_coefficients("N", 2, 1.0, 2.0, 4, m_j=mj)
            assert max(abs(off_E), abs(off_M)) <= 1e-12 * max(abs(aE4), abs(aM4))
        assert expansion_coefficients("N", 2, 1.0, 2.0, 2, m_j=3) == (0.0, 0.0)
        aE5, aM5 = expansion_coefficients("N", 2, 1.0, 2.0, 5)
        u4, v4 = printed_uv(2, 1.0, 2.0, 4)
        u5, v5 = printed_uv(2, 1.0, 2.0, 5)
        assert abs(aE4 / u4) == pytest.approx(abs(aE5 / u5), rel=1e-10)
        assert abs(aM4 / v4) == pytest.approx(abs(aM5 / v5), rel=1e-10)
        assert abs(aE4 / u4) == pytest.approx(abs(aM4 / v4), rel=1e-10)

    def test_selection_rule_fails_on_a_wrong_azimuthal_factor(self, monkeypatch):
        # a part 1e-6 of the cone density carrying e^(i (m+1) phi_k) in place
        # of e^(i m phi_k) projects onto Y_(j,m+1), so the selection rule fails
        cone_density = verify.cone_density

        def shifted(which, m, k_perp, k_z, phi_k, c=1.0):
            twist = 1.0 + 1e-6 * np.exp(1j * np.asarray(phi_k))[..., None]
            return cone_density(which, m, k_perp, k_z, phi_k, c) * twist

        monkeypatch.setattr(verify, "cone_density", shifted)
        by_name = {r.name: r for r in spherical_suite()}
        rule = by_name["spherical: u, v selection rule m_j = m"]
        assert not rule.passed
        assert rule.lhs_minus_rhs_norm > 1e-8


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


class TestSharedCoefficients:
    @pytest.mark.parametrize("which", ["M", "N"])
    @pytest.mark.parametrize("m", [-3, 0, 2])
    def test_batched_points_match_single_point_runs(self, which, m):
        rng = np.random.default_rng(20261018)
        points = rng.uniform(-2.0, 2.0, size=(3, 3, 3))
        points[1, 1] = (0.0, 0.0, 0.7)  # on the axis, not the origin
        batch = list(partial_sums(which, m, 1.0, 2.0, points, 14))
        assert [j for j, *_ in batch] == list(range(max(1, abs(m)), 15))
        for idx in np.ndindex(3, 3):
            one = list(partial_sums(which, m, 1.0, 2.0, points[idx][None], 14))
            bare = list(partial_sums(which, m, 1.0, 2.0, tuple(points[idx].tolist()), 14))
            coeff_sum = 0.0
            for (j, aE, aM, total), (j1, aE1, aM1, t1), (j2, aE2, aM2, t2) in zip(batch, one, bare):
                assert j == j1 == j2 and aE == aE1 == aE2 and aM == aM1 == aM2
                assert t1.shape == (1, 3) and t2.shape == (3,)
                assert np.array_equal(total[idx], t1[0]), (idx, j)
                # a bare point takes numpy's scalar complex products inside
                # vsh_grid, which may round apart from the array loop (README);
                # the terms are at most 4 pi (|aE| + |aM|) in size
                coeff_sum += abs(aE) + abs(aM)
                gap = np.abs(total[idx] - t2).max()
                assert gap <= 4 * np.finfo(float).eps * coeff_sum, (idx, j)

    def test_one_coefficient_per_degree_in_the_suite(self, monkeypatch):
        calls = []
        original = verify.expansion_coefficients

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, "expansion_coefficients", counted)
        spherical_suite()
        # 10 degrees for the printed u, v, each projected at m_j = m, m - 1 and
        # m + 1; 59 degrees (j = 2..60) for each of N and M, shared by the 3
        # sample points
        assert len(calls) == 3 * 10 + 2 * 59 == 148
