"""Verification-suite behavior: outcomes, flags, and result invariants."""

import json
import math
import os
import subprocess
import sys
import time
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.special import roots_legendre, spherical_jn

from besselbeams import cli, modes, specfun, verify
from besselbeams.dynops import assemble, build_stokes, make_rl_map
from besselbeams.lattice import apply_basis, build_lattice
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
    @pytest.mark.parametrize("residual, passed", [(1e-6, True), (1e-3, True), (1.0, False),
                                                  (math.nan, False)],
                             ids=["within", "at-tolerance", "above", "nan"])
    def test_passed_follows_the_residual(self, residual, passed):
        r = RelationResult("a", residual, 1e-3)
        assert r.passed is passed
        assert r.inconclusive is False

    def test_inconclusive_is_never_passed(self):
        r = RelationResult("c", 1e-6, 1e-3, "no convergence", inconclusive=True)
        assert r.passed is False
        assert r.to_dict()["inconclusive"] is True

    def test_to_dict_schema(self):
        d = RelationResult("a", 0.0, 1e-3, "n").to_dict()
        assert list(d) == ["name", "residual", "tolerance", "pass", "notes", "inconclusive"]

    @pytest.mark.parametrize("residual, passed", [(1e-6, True), (1.0, False)], ids=["within", "above"])
    def test_numpy_residual_renders_json_bools(self, residual, passed):
        # np.float64 <= float is an np.bool_, which cli._fmt would print as 1 or 0
        r = RelationResult("a", np.float64(residual), 1e-3)
        assert r.passed is passed
        text = cli._json_text(r.to_dict())
        assert f'"pass": {"true" if passed else "false"}' in text
        assert '"inconclusive": false' in text
        assert json.loads(text)["pass"] is passed

    def test_is_frozen(self):
        r = RelationResult("a", 1.0, 1e-3)
        with pytest.raises(AttributeError):
            r.residual = 0.0


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
                assert r.passed, (name, r.residual)

    def test_residuals_scale_with_the_operands(self):
        # D = 66, |m| <= 16, kz/kp = 8.3: [L+,L-] has entries of 1.7e4 and an
        # absolute residual of 3e-12; relative to |L+|max |L-|max it is ~2e-16
        lat = build_lattice((-16, 16), [0.3], [2.5])
        by_name = {r.name: r for r in commutator_suite(lat)}
        failing = {n for n, r in by_name.items() if not r.passed}
        assert failing == {n for n in by_name if n.endswith("(printed)")}
        ll = by_name["commutator: [L+,L-] = 2 hbar^2 sum (kz^2/kp^2) Lambda3"]
        assert ll.residual < 1e-15
        assert "|A|max |B|max = 16684" in ll.notes

    def test_fock_cross_check_included(self):
        results = commutator_suite(make_lattice())
        names = [r.name for r in results]
        assert any("fock-oracle" in n for n in names)

    def test_fock_cross_check_computed_once_per_process(self, monkeypatch):
        # the check reads no input but tol: every suite run calls it, and
        # the first builds the oracle
        built, calls = [], []

        class CountingOracle(verify.FockOracle):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        check = verify._fock_cross_check
        monkeypatch.setattr(verify, "FockOracle", CountingOracle)
        monkeypatch.setattr(verify, "_fock_cross_check", lambda tol: calls.append(tol) or check(tol))
        verify._fock_residual.cache_clear()
        runs = [[r for r in commutator_suite(make_lattice()) if "fock-oracle" in r.name]
                for _ in range(2)]
        assert len(built) == 1 and len(calls) == 2
        assert runs[0] == runs[1] and len(runs[0]) == 1
        assert runs[0][0].passed

    def test_table_provenance_matches_the_flags(self):
        rows = {"commutator: " + row[0]: row for row in verify.COMMUTATOR_TABLE}
        assert {row[4] for row in rows.values()} == {"canonical", "printed", "computed"}
        flagged = {f: c for f, c in verify.FLAGGED.items() if f in rows}
        assert len(flagged) == 2
        for name, companion in flagged.items():
            assert (rows[name][4], rows[companion][4]) == ("printed", "computed")
            assert rows[name][1:3] == rows[companion][1:3]  # the same [A, B]
        assert {n for n, row in rows.items() if row[4] == "computed"} == set(flagged.values())


NODES = ([0.5, 1.0, 1.5], [1.0, 2.0])


def _probe():
    """(m_range, k_perp nodes, k_z nodes, c, hbar) of each seeded probe case."""
    rng = np.random.default_rng(20261019)
    cases = {f"width-{2 * h + 1}": ((-h, h), *NODES, 1.0, 1.0) for h in (3, 4, 8)}
    cases["m-nonnegative"] = ((0, 8), *NODES, 1.0, 1.0)
    cases["negative-kz-reordered"] = ((-4, 4), [1.5, 0.5, 1.0], [2.0, -1.0], 1.0, 1.0)
    for i in range(3):
        kp = rng.uniform(0.05, 20.0, size=3)
        # k_z in [-20, 20], at least 0.05 away from 0
        kz = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.05, 20.0, size=2)
        cases[f"random-nodes-{i}"] = ((-4, 4), kp.tolist(), kz.tolist(), 1.0, 1.0)
    for hbar, c in ((1.0545718e-27, 2.99792458e10), (1e-30, 1e6), (3.7, 0.02)):
        cases[f"hbar={hbar:g},c={c:g}"] = ((-4, 4), *NODES, c, hbar)
    return cases


PROBE = _probe()


@pytest.mark.parametrize("case", list(PROBE))
def test_algebra_verdicts_do_not_depend_on_the_lattice(case):
    m_range, kp, kz, c, hbar = PROBE[case]
    lat = build_lattice(m_range, kp, kz, c=c, hbar=hbar)
    results = commutator_suite(lat) + basis_suite(lat)
    failing = {r.name for r in results if not r.passed}
    assert failing == {n for n in verify.FLAGGED if n.startswith("commutator: ")}
    assert not any(r.inconclusive for r in results)


def stokes_matrices(lat, pair):
    """Coefficient matrices of sigma_1..3 on one (node, m) pair."""
    return [s.X for s in build_stokes(lat, *pair)[1:]]


class TestStokesResidual:
    STOKES = "commutator: stokes [sigma_i,sigma_j] = 2i eps_ijk sigma_k"

    @staticmethod
    def pairs(lat):
        return [(node, m) for node in range(len(lat.nodes)) for m in lat.m_values]

    def test_suite_residual_is_the_per_pair_worst(self):
        lat = build_lattice((-3, 3), [0.5, 1.5], [1.0, -2.0])
        worst = max(_su2_residual(*stokes_matrices(lat, p), 2j) for p in self.pairs(lat))
        by_name = {r.name: r for r in commutator_suite(lat)}
        assert by_name[self.STOKES].residual == worst
        every_pair = build_stokes(lat, np.arange(len(lat.nodes)), np.array(lat.m_values)[:, None])
        assert _su2_residual(*(s.X for s in every_pair[1:]), 2j) == worst

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
            assert r.passed, (r.name, r.residual, r.notes)

    def test_sparse_at_d2376(self):
        # dense D x D basis maps took about a minute and 0.9 GB at this size
        lat = build_lattice((-16, 16), [0.3 + 0.2 * i for i in range(6)],
                            [1.0 + 0.3 * i for i in range(6)])
        assert lat.dim == 2376
        t0 = time.perf_counter()
        results = basis_suite(lat)
        assert time.perf_counter() - t0 < 15.0
        for r in results:
            assert r.passed, (r.name, r.residual, r.notes)

    def test_pythagorean_node_helicity(self):
        # on the (3, 4) node the (+/-) helicity eigenvalues are +/- 0.8
        lat = build_lattice((-2, 2), [3.0], [4.0])
        results = basis_suite(lat)
        eig = next(r for r in results if "eigenvalues" in r.name)
        assert eig.passed

    @pytest.mark.parametrize("hbar, c", [(1.0, 1.0), (0.37, 2.9), (3.7e-29, 2.9e8), (1e5, 1e-5)])
    def test_paraxial_law_equals_nine_one_node_lattices_bitwise(self, hbar, c):
        # the reference: nine one-node lattices, one per ratio
        mags = []
        for r in verify.PARAXIAL_RATIOS:
            one = build_lattice((-2, 2), [r], [1.0], c=c, hbar=hbar)
            mags.append(float(verify._offdiag(apply_basis(assemble(one, "energy"), make_rl_map(one))).max_abs()))
        mags = np.array(mags)
        got = verify._paraxial_offdiag(hbar, c)
        assert got.view(np.int64).tolist() == mags.view(np.int64).tolist()
        slope = np.polyfit(np.log(verify.PARAXIAL_RATIOS), np.log(mags), 1)[0]
        lat = build_lattice((-2, 2), [0.5], [1.0], c=c, hbar=hbar)
        row = next(r for r in basis_suite(lat) if r.name.startswith("basis: paraxial"))
        assert np.float64(row.residual).view(np.int64) == np.float64(abs(slope - 2.0)).view(np.int64)
        assert f"log-log slope {slope:.6f} " in row.notes

    @pytest.mark.parametrize("ratio, inconclusive", [(1e4, False), (1e6, True)])
    def test_rl_residual_within_rounding_is_inconclusive(self, ratio, inconclusive):
        # on one node the R/L map's condition number is k_perp/k_z, and
        # rounding in T^-1 alone leaves up to eps cond(T) off the diagonal
        results = basis_suite(build_lattice((-4, 4), [ratio], [1.0]))
        rl = next(r for r in results if r.name == "basis: S3 diagonal under R/L map")
        assert (rl.inconclusive, rl.passed) == (inconclusive, not inconclusive)
        assert all(r.passed for r in results if r is not rl)


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
        # one rule at every scale: the extents grow with it, and the radial
        # grid keeps one 24-node panel per two periods of J(k_perp,max rho)
        wp = WavepacketSpec(TM, 2, 1.0, 0.08, 2.0, 0.12)
        kp_max = wp.support()[0][1]
        dom = default_domain(wp)
        for s in (1.0, 1.5, 2.0):
            scaled = default_domain(wp, s)
            # bit for bit, so the fine pass's cylinder is exactly (150, 100)
            assert (scaled.R, scaled.Z) == (s * dom.R, s * dom.Z)
            assert scaled.n_radial == 24 * max(8, math.ceil(kp_max * scaled.R / (4 * math.pi)))
        fine = default_domain(wp, 1.5)
        assert (fine.R, fine.Z, fine.n_radial) == (150.0, 100.0, 408)
        with pytest.raises(ValueError):
            QuadratureDomain(-1.0, 1.0, 8, 8)

    def test_k_counts_scale_with_domain(self):
        wp = WavepacketSpec(TM, 1, 1.0, 0.1, 2.0, 0.1)
        n1 = k_counts(wp, default_domain(wp))
        n2 = k_counts(wp, default_domain(wp, 2.0))
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

    def test_one_kernel_per_z_power_per_contraction(self, recorded_suite):
        # a contraction's fields fix both k_z grids, so each z power needs
        # one kernel; one kernel is alive at a time, and none outlives its
        # contraction
        powers = recorded_suite.axial
        assert len(powers) == len(recorded_suite.contractions) == 23
        assert all(len(set(qs)) == len(qs) for qs in powers)
        assert sum(map(len, powers)) == 25
        overlap = recorded_suite.axial_overlap
        assert len(overlap) == 4 and not any(overlap)
        alive = recorded_suite.axial_alive
        assert len(alive) == 25 and not any(alive)


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


def _copy_field(F):
    """F with copied coefficient arrays, so a record does not keep F's own alive."""
    return F._replace(comps=tuple(c._replace(coeff=c.coeff.copy()) for c in F.comps))


@pytest.fixture(scope="module")
def recorded_suite():
    """One quadrature_suite(rel_tol=1e-14) run, recorded.

    The contractions and smears do not depend on rel_tol, so the run serves
    every test below.  Returns a namespace of: the results; the fields each
    pass smears, by (n_kp, n_kz); whether each coarse-pass coefficient array
    and Bessel table or seed was alive when the fine pass smeared its first field;
    the Bessel tables specfun._bessel_j_table computed, as (phase, |m|, grid
    digest), and the seed passes, as (phase, "j0" or "j1", grid digest); the
    liveness of every table and seed once the suite returned; and a copy of the
    fields and the domain of each volume_dot/volume_cross call; every radial
    kernel call, as (phase, domain, k_perp grids, orders, rho power); the
    number of radial calls each suite contraction made, by its (field, field,
    product, conjugate); the z powers of each volume_dot/volume_cross call's
    axial kernels; the liveness of that call's earlier kernels whenever it
    asked for another; the liveness of every axial kernel once its call
    returned; every omega computed on a smear's k-grid, as (phase, grid
    digest); and the digest of every 64 x 64 envelope grid omega was computed on.
    """
    smear, table, originals = verify.smear_mode, specfun._bessel_j_table, (verify.volume_dot, verify.volume_cross)
    omega = verify.omega
    radial, axial, contract = _CylinderQuadrature.radial, _CylinderQuadrature.axial, verify._contract
    rec = SimpleNamespace(passes={}, coeffs_alive_at_fine=[], tables_alive_at_fine=[],
                          tables=[], seeds=[], contractions=[], radial=[], contraction_radial=[],
                          axial=[], axial_overlap=[], axial_alive=[], omegas=[], rule_omegas=[],
                          phase="coarse")
    axial_refs = []
    coarse_coeffs, table_refs = [], []

    def smearing(which, wp, n_kp, n_kz, omegas):
        if which in ("M", "N"):  # E and B belong to the energy-per-photon packet
            if rec.passes and (n_kp, n_kz) not in rec.passes:  # the fine pass's first field
                rec.phase = "fine"
                rec.coeffs_alive_at_fine.extend(ref() is not None for ref in coarse_coeffs)
                rec.tables_alive_at_fine.extend(ref() is not None for ref in table_refs)
            rec.passes.setdefault((n_kp, n_kz), []).append((which, wp.m, wp.k_z_center))
        else:
            rec.phase = "energy"
        F = smear(which, wp, n_kp, n_kz, omegas)
        if len(rec.passes) == 1 and which in ("M", "N"):
            # a SmearedField is a tuple, which takes no weakref
            coarse_coeffs.extend(weakref.ref(c.coeff) for c in F.comps)
        return F

    def computing(order, arg, seeds):
        out = table(order, arg, seeds)
        rec.tables.append((rec.phase, order, hash(arg.tobytes())))
        table_refs.append(weakref.ref(out))
        return out

    def seeding(name, seed):
        def seeded(arg):
            out = seed(arg)
            rec.seeds.append((rec.phase, name, hash(arg.tobytes())))
            table_refs.append(weakref.ref(out))
            return out
        return seeded

    def recording(fn):
        def wrapped(F1, F2, quad, conjugate=True):
            rec.contractions.append((_copy_field(F1), _copy_field(F2), quad.dom))
            rec.axial.append([])
            axial_refs.clear()
            out = fn(F1, F2, quad, conjugate)
            rec.axial_alive.extend(ref() is not None for ref in axial_refs)
            return out
        return wrapped

    def axial_recording(quad, F1, F2, q):
        rec.axial_overlap.extend(ref() is not None for ref in axial_refs)
        kernel = axial(quad, F1, F2, q)
        rec.axial[-1].append(q)
        axial_refs.append(weakref.ref(kernel))
        return kernel

    def radial_recording(quad, F1, F2, o1, o2, p):
        rec.radial.append((rec.phase, quad.dom, F1.kp_nodes, F2.kp_nodes, o1, o2, p))
        return radial(quad, F1, F2, o1, o2, p)

    def omega_recording(c, k_perp, k_z):
        # a smear's k-grid, or the 64 x 64 rule of the envelope integrals
        if np.ndim(k_perp) == 2:
            grid = hash(k_perp.tobytes() + k_z.tobytes())
            if np.shape(k_perp) == (64, 64):
                rec.rule_omegas.append(grid)
            else:
                rec.omegas.append((rec.phase, grid))
        return omega(c, k_perp, k_z)

    def contracting(F, f1, f2, product, conjugate):
        before = len(rec.radial)
        out = contract(F, f1, f2, product, conjugate)
        rec.contraction_radial.append(((f1, f2, product, conjugate), len(rec.radial) - before))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "smear_mode", smearing)
        mp.setattr(specfun, "_bessel_j_table", computing)
        for name in ("j0", "j1"):
            mp.setattr(specfun, name, seeding(name, getattr(specfun, name)))
        mp.setattr(_CylinderQuadrature, "radial", radial_recording)
        mp.setattr(_CylinderQuadrature, "axial", axial_recording)
        mp.setattr(verify, "_contract", contracting)
        for module in (verify, modes):
            mp.setattr(module, "omega", omega_recording)
        for fn in originals:
            mp.setattr(verify, fn.__name__, recording(fn))
        rec.results = verify.quadrature_suite(rel_tol=1e-14)
        rec.tables_alive_after = [ref() is not None for ref in table_refs]
    return rec


class TestOneContractionPath:
    def test_equals_the_branching_contraction_exactly(self, recorded_suite):
        # 8 contractions on both the coarse and the fine pass, 5 more on the
        # coarse one (M1 and M_up both dotted and crossed), and E.E*, B.B* for
        # the energy per photon
        assert len(recorded_suite.contractions) == 23
        quads, nonzero = {}, set()
        for F1, F2, dom in recorded_suite.contractions:
            quad = quads.setdefault(dom, _CylinderQuadrature(dom))
            for conjugate in (True, False):
                dot = verify.volume_dot(F1, F2, quad, conjugate)
                cross = verify.volume_cross(F1, F2, quad, conjugate)
                assert dot == _branching_volume_integral(F1, F2, quad, verify._DOT, conjugate)[""]
                assert cross == _branching_volume_integral(F1, F2, quad, verify._CROSS, conjugate)
                if dot != 0 or any(cross.values()):
                    nonzero.add(conjugate)
        assert nonzero == {True, False}
        assert len(quads) == 3  # coarse, fine, energy per photon

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


class TestQuadratureInconclusive:
    def test_unconverged_relations_are_inconclusive(self, recorded_suite):
        # at the default margin the refined relations converge to 2e-16..7.2e-13,
        # so a 1e-14 tolerance cannot decide seven of them
        results = recorded_suite.results
        inconclusive = [r for r in results if r.inconclusive]
        assert (len(results), len(inconclusive)) == (14, 7)
        for r in inconclusive:
            assert r.passed is False
            assert r.notes.startswith("convergence estimate ")
            assert float(r.notes.split()[2].rstrip(";")) > r.tolerance


class TestQuadraturePasses:
    def test_each_pass_smears_what_it_reads_and_drops_the_coarse_fields(self, recorded_suite):
        coarse, fine = recorded_suite.passes.values()
        assert (len(coarse), len(fine)) == (9, 6)
        # N_up, M_rev and N_rev are read by the structural zeros alone
        assert set(coarse) - set(fine) == {("N", 3, 2.0), ("M", -2, -2.0), ("N", -2, -2.0)}
        alive = recorded_suite.coeffs_alive_at_fine
        assert len(alive) > 0 and not any(alive)

    def test_each_bessel_table_is_computed_once(self, recorded_suite):
        # a pass reads 6 tables on two (k_perp, rho) grids, the carrier's and
        # Mp's, and the energy check 3 on one: 15 tables on 5 grids.  Each grid
        # makes one j0 and one j1 pass, its tables of orders 0 and 1, and every
        # order >= 2 it reads is computed once from them
        tables, seeds = recorded_suite.tables, recorded_suite.seeds
        assert [(phase, name) for phase, name, _ in seeds] == (
            [("coarse", "j0"), ("coarse", "j1")] * 2 + [("fine", "j0"), ("fine", "j1")] * 2
            + [("energy", "j0"), ("energy", "j1")]
        )
        grids = [grid for _, _, grid in seeds]
        assert grids[::2] == grids[1::2] and len(set(grids)) == 5
        # the three quadratures' radial grids differ, so they share no table
        assert len(set(tables)) == len(tables) == 11 and all(order >= 2 for _, order, _ in tables)
        assert {grid for *_, grid in tables} == set(grids)
        assert [phase for phase, *_ in tables] == ["coarse"] * 5 + ["fine"] * 5 + ["energy"]

    def test_omega_once_per_k_grid(self, recorded_suite):
        # a pass smears on three k-grids: the carrier packet's (M1, N1, M_up,
        # M_dn, N_up), the kz-reflected one's (Mf, M_rev, N_rev) and Mp's; the
        # energy packet's E and B share one
        grids = recorded_suite.omegas
        assert len(set(grids)) == len(grids) == 7
        assert [phase for phase, _ in grids] == ["coarse"] * 3 + ["fine"] * 3 + ["energy"]
        # the envelope integrals read one 64 x 64 rule per packet: the carrier's
        # (3 pair integrals, 2 L+ forms) and the energy packet's (2 pair integrals)
        rules = recorded_suite.rule_omegas
        assert len(set(rules)) == len(rules) == 2

    def test_a_shared_omega_keeps_every_bit(self):
        # each coefficient as each smear computed it before omega was shared
        wp = WavepacketSpec(TM, 1, 1.0, 0.02, 2.0, 0.04)
        omegas = {}
        for which, vector in (("M", "M"), ("N", "N"), ("E", "N"), ("B", "M")):
            F = smear_mode(which, wp, 48, 72, omegas)
            KP, KZ = np.meshgrid(F.kp_nodes, F.kz_nodes, indexing="ij")
            pref = 1.0 if which == vector else modes.NormalizationConvention().amplitude_grid(KP, KZ)
            want = [coeff * pref * wp.envelope(KP, KZ) for _, _, coeff in modes.mode_terms(vector, 1, KP, KZ)]
            assert len(F.comps) == len(want) and all(_bitwise(c.coeff, w) for c, w in zip(F.comps, want)), which
        assert len(omegas) == 1
        smear_mode("M", replace(wp, k_perp_center=1.05), 48, 72, omegas)
        assert len(omegas) == 1  # one grid's omega at a time: the slot holds the new grid's

    def test_coarse_tables_die_before_the_fine_pass_smears(self, recorded_suite):
        # 5 computed tables and the seeds of 2 grids
        alive = recorded_suite.tables_alive_at_fine
        assert len(alive) == 5 + 2 * 2 and not any(alive)

    def test_no_table_outlives_the_suite(self, recorded_suite):
        alive = recorded_suite.tables_alive_after
        assert len(alive) == 11 + 5 * 2 and not any(alive)

    def test_a_second_run_gives_the_same_results(self, recorded_suite, default_quadrature):
        # it computes every table afresh; rel_tol moves only the verdicts
        again, _ = default_quadrature
        assert [(r.name, r.residual, r.notes) for r in again] == [
            (r.name, r.residual, r.notes) for r in recorded_suite.results
        ]
        assert sum(r.inconclusive for r in again) == 0


class TestLegendreRule:
    def test_one_read_only_rule_per_size(self):
        for n in (24, 64):
            x, w = verify._legendre_rule(n)
            assert verify._legendre_rule(n)[0] is x
            assert not (x.flags.writeable or w.flags.writeable)
            rx, rw = roots_legendre(n)
            assert np.abs(x - rx).max() <= np.spacing(1.0)
            assert np.abs(w - rw).max() <= 5e-15

    def test_a_fresh_quadrature_run_never_imports_scipy_linalg(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        code = ("import sys; from besselbeams.cli import main; "
                "rc = main(['verify', 'quadrature', '--out', 'q.json']); "
                "print(rc, 'scipy.linalg' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        assert proc.stdout.split() == ["0", "False"], proc.stderr


# the contractions behind each quadrature row, as (field, field, product, conjugate);
# the computed companion reads the printed row's value, and the energy per
# photon contracts its own packet's E and B
PRINTED_LPLUS = ("Mf", "LM", "dot", False)
ROW_CONTRACTIONS = {
    "int M.M'* dV = (2pi)^2 int g g'* w^2/(kp kz^2)": [("M1", "M1", "dot", True)],
    "int N.N'* dV = (2pi)^2 int g g'* w^2/(kp kz^2)": [("N1", "N1", "dot", True)],
    "int M.N'* dV = 0": [("M1", "N1", "dot", True)],
    "int N x M'* dV, m'=m: e3 coefficient = (2pi)^2 int g g'* w/(kp kz)": [("N1", "M1", "cross", True)],
    "int N x M'* dV, m'=m+1: e- coefficient = (i/2)(2pi)^2 int g g'* w/kz^2": [("N1", "M_up", "cross", True)],
    "int N x M'* dV, m'=m-1: e+ coefficient = -(i/2)(2pi)^2 int g g'* w/kz^2": [("N1", "M_dn", "cross", True)],
    "int M'* . (L+ M) dV = envelope-derivative form, m' = m+1": [("LM", "Mp", "dot", True)],
    "int M' . (L+ M) dV = 0 (printed)": [PRINTED_LPLUS],
    "int M' . (L+ M) dV = (-1)^(m+1) x reflected conjugated element (computed)": [PRINTED_LPLUS],
    "int M.M'* dV = 0 for m != m'": [("M1", "M_up", "dot", True)],
    "int M x M'* dV = 0": [("M1", "M_up", "cross", True)],
    "int N x N'* dV = 0": [("N1", "N_up", "cross", True)],
    "int (M x N' - N x M') dV = 0": [("M1", "N_rev", "cross", False), ("N1", "M_rev", "cross", False)],
    "energy per photon = hbar * mean omega": [("E", "E", "dot", True), ("B", "B", "dot", True)],
}


class TestQuadratureRows:
    def test_exactly_the_two_rows_that_say_so_contract_nothing(self, recorded_suite):
        per_contraction = {}
        for key, n in recorded_suite.contraction_radial:
            per_contraction[key] = per_contraction.get(key, 0) + n
        assert set(per_contraction) == {c for cs in ROW_CONTRACTIONS.values() for c in cs}
        counts = {"quadrature: " + name: sum(per_contraction[c] for c in cs)
                  for name, cs in ROW_CONTRACTIONS.items()}
        results = {r.name: r for r in recorded_suite.results}
        assert set(counts) == set(results)
        empty = {"quadrature: int M.M'* dV = 0 for m != m'", "quadrature: int M x M'* dV = 0"}
        assert {name for name, n in counts.items() if n == 0} == empty
        for name in empty:
            assert results[name].residual == 0
            assert "contracts nothing" in results[name].notes
        assert not any("contracts nothing" in results[name].notes for name in set(results) - empty)


class TestRadialKernel:
    @pytest.mark.parametrize("a", [-3, -1, 0, 1, 3])
    def test_matches_the_lommel_closed_form(self, a):
        # two k_perp grids in one quadrature: a table memo that ignored the
        # k bytes would hand F1's table to F2
        wp = WavepacketSpec(TM, 2, 1.0, 0.08, 2.0, 0.12)
        dom = default_domain(wp)
        F1, F2 = (smear_mode("M", replace(wp, k_perp_center=kc), 24, 24) for kc in (1.0, 1.05))
        quad = _CylinderQuadrature(dom)
        for G in (F1, F2):
            got = quad.radial(F1, G, a, a, 0)
            want = np.array([
                [specfun.lommel_overlap_equal(a, k, dom.R) if k == k2
                 else specfun.lommel_overlap(a, k, k2, dom.R) for k2 in G.kp_nodes]
                for k in F1.kp_nodes
            ])
            assert got.shape == want.shape == (24, 24)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_the_suite_grids_match_four_times_the_nodes(self, recorded_suite):
        # every (k_perp grids, orders, rho power) the suite reads, on each of its
        # three radial grids, against the same kernel on 4x the nodes
        carrier_wp = WavepacketSpec(TM, 2, 1.0, 0.08, 2.0, 0.12)
        carrier = default_domain(carrier_wp)
        energy = default_domain(WavepacketSpec(TM, 1, 1.0, 0.02, 2.0, 0.04))
        calls = {}
        for _, dom, kp1, kp2, o1, o2, p in recorded_suite.radial:
            calls.setdefault(dom, {})[kp1.tobytes(), kp2.tobytes(), o1, o2, p] = (kp1, kp2)
        assert list(calls) == [carrier, default_domain(carrier_wp, 1.5), energy]
        assert [dom.n_radial for dom in calls] == [288, 408, 864]
        for dom, kernels in calls.items():
            quad = _CylinderQuadrature(dom)
            ref = _CylinderQuadrature(replace(dom, n_radial=4 * dom.n_radial))
            for (*_, o1, o2, p), (kp1, kp2) in kernels.items():
                F1, F2 = SimpleNamespace(kp_nodes=kp1), SimpleNamespace(kp_nodes=kp2)
                want = ref.radial(F1, F2, o1, o2, p)
                err = np.abs(quad.radial(F1, F2, o1, o2, p) - want).max()
                assert err <= 1e-14 * np.abs(want).max(), (dom, o1, o2, p)


class TestSphericalSuite:
    def test_outcomes(self):
        results = spherical_suite()
        by_name = {r.name: r for r in results}
        flagged = "spherical: printed u phase matches projection coefficient (flagged)"
        assert not by_name[flagged].passed
        for name, r in by_name.items():
            if name != flagged:
                assert r.passed, (name, r.residual)

    def test_selection_rule_and_ratio(self):
        # projections onto m_j = m +/- 1 vanish to rounding, and there is no
        # Y_(2,3); printed magnitude tracks the projection magnitude with a
        # constant ratio
        (aE4, aE5), (aM4, aM5) = expansion_coefficients("N", 2, 1.0, 2.0, range(4, 6))
        for mj in (1, 3):
            off_E, off_M = expansion_coefficients("N", 2, 1.0, 2.0, range(4, 6), m_j=mj)
            assert max(abs(off_E[0]), abs(off_M[0])) <= 1e-12 * max(abs(aE4), abs(aM4))
        off_E, off_M = expansion_coefficients("N", 2, 1.0, 2.0, range(2, 4), m_j=3)
        assert off_E[0] == off_M[0] == 0.0
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
        assert rule.residual > 1e-8

    @pytest.mark.parametrize("ratio", [1e-3, 1e-6, 1e-9])
    def test_forward_cones_near_the_axis_reconstruct_to_rounding(self, ratio):
        # theta0 = acos(c k_z / w) kept half the digits as k_perp / k_z -> 0 and
        # rounded to the pole at 1e-9, where every coefficient came out 0
        rho, phi, z = 1.0, 0.4, 0.2
        point = (rho * math.cos(phi), rho * math.sin(phi), z)
        for which, evaluator in (("M", modes.eval_M), ("N", modes.eval_N)):
            for m in (1, 2, -3):
                direct = evaluator(m, 2.0 * ratio, 2.0, modes.CylPoint(rho, phi, z, 0.0))
                *_, (_, _, _, total) = partial_sums(which, m, 2.0 * ratio, 2.0, point, 30)
                err = np.abs(total - direct).max() / np.abs(direct).max()
                assert err <= 1e-13, (which, m, err)


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


def _vsh_one_degree(j, m, theta, phi):
    """The one-degree vector spherical harmonics as specfun.vsh_grid computed
    them before it took arrays of degrees, with each phase product a ufunc
    call, so that a bare angle pair takes numpy's array loop as an array of
    angles does.  The reference for TestWavesByDegree."""
    from scipy.special import sph_harm_y

    theta, phi = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    st, ct = np.sin(theta), np.cos(theta)
    up = dn = 0.0
    if m + 1 <= j:
        up = np.multiply(0.5 * math.sqrt((j - m) * (j + m + 1)) * sph_harm_y(j, m + 1, theta, phi),
                         np.exp(-1j * phi))
    if m - 1 >= -j:
        dn = np.multiply(0.5 * math.sqrt((j + m) * (j - m + 1)) * sph_harm_y(j, m - 1, theta, phi),
                         np.exp(1j * phi))
    dth = np.zeros(theta.shape, dtype=complex) + up - dn
    if m == 0:
        dphi_over_sin = np.zeros_like(dth)
    else:
        pole = st < specfun._POLE_SIN
        dphi_over_sin = np.where(pole, -1j * (up + dn) / np.where(pole, ct, 1.0),
                                 1j * m * sph_harm_y(j, m, theta, phi) / np.where(pole, 1.0, st))
    that = np.stack([ct * np.cos(phi), ct * np.sin(phi), -st], axis=-1)
    phat = np.stack([-np.sin(phi), np.cos(phi), np.zeros_like(theta)], axis=-1)
    ye = (dth[..., None] * that + dphi_over_sin[..., None] * phat) / (j * (j + 1))
    n_hat = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    return ye, np.cross(n_hat, ye)


def _wave_pair_one_degree(j, m, omega, points):
    """_spherical_wave_pair for one degree as it was computed before it took
    arrays of degrees (c = 1), with exact powers of i.  The reference for
    TestWavesByDegree."""
    from scipy.special import sph_harm_y

    points = np.asarray(points, dtype=float)
    r, theta, phi = np.array([
        (math.sqrt(x * x + y * y + z * z), math.atan2(math.hypot(x, y), z), math.atan2(y, x))
        for x, y, z in points.reshape(-1, 3).tolist()
    ]).T.reshape((3,) + points.shape[:-1])
    kr = omega * r
    ye, ym = _vsh_one_degree(j, m, theta, phi)
    jj, jp = spherical_jn(j, kr), spherical_jn(j, kr, derivative=True)
    radial = ((jj / kr) * sph_harm_y(j, m, theta, phi))[..., None]
    i_pow = (1, 1j, -1, -1j)
    ve = 4 * math.pi * i_pow[(j + 3) % 4] * (radial * (points / r[..., None]) + (jj / kr + jp)[..., None] * ye)
    vm = 4 * math.pi * i_pow[j % 4] * jj[..., None] * ym
    return ve, vm


def _bitwise(a, b):
    """Equal shapes and equal bits, signed zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestWavesByDegree:
    # degrees where a ladder term leaves the degree, the poles, and a bare angle pair
    THETA = np.array([0.0, 1e-9, 0.4, 1.3, math.pi - 1e-9, math.pi])
    PHI = np.array([0.0, 2.1, -0.7, 0.3, 1.9, -2.8])

    @pytest.mark.parametrize("m", [-3, -1, 0, 1, 2])
    def test_vsh_grid_by_degree_equals_the_one_degree_formula(self, m):
        degrees = np.arange(max(1, abs(m)), 13)
        grids = ((self.THETA, self.PHI), (self.THETA[:, None], self.PHI[None, :]), (0.4, -0.7), (0.0, 1.2))
        for th, ph in grids:
            batch = specfun.vsh_grid(degrees, m, th, ph)
            for i, j in enumerate(degrees):
                want = _vsh_one_degree(int(j), m, th, ph)
                for got, one, ref in zip(batch, specfun.vsh_grid(int(j), m, th, ph), want):
                    assert _bitwise(got[i], ref) and _bitwise(one, ref), (m, j, np.shape(th))
        # the bare pair (0.4, -0.7) is THETA[2], PHI[2]: its values are that entry's
        rows = specfun.vsh_grid(degrees, m, self.THETA, self.PHI)
        for bare, row in zip(specfun.vsh_grid(degrees, m, 0.4, -0.7), rows):
            assert _bitwise(bare, row[:, 2]), m

    @pytest.mark.parametrize("m", [-2, 0, 3])
    def test_wave_pair_by_degree_equals_the_one_degree_formula(self, m):
        degrees = np.array(list(range(max(1, abs(m)), 9)) + [97, 98, 104, 150])
        rng = np.random.default_rng(20261020)
        points = rng.uniform(-2.0, 2.0, size=(2, 3, 3))
        points[0, 1] = (0.0, 0.0, -0.9)  # on the axis
        for pts in (points, points[1, 2], tuple(points[0, 0].tolist())):
            batch = _spherical_wave_pair(degrees, m, 1.7, pts)
            for i, j in enumerate(degrees):
                for got, ref in zip(batch, _wave_pair_one_degree(int(j), m, 1.7, pts)):
                    assert _bitwise(got[i], ref), (m, j, np.shape(pts))
        # a bare point's waves are its row's in the array
        for bare, row in zip(_spherical_wave_pair(degrees, m, 1.7, tuple(points[1, 2].tolist())),
                             _spherical_wave_pair(degrees, m, 1.7, points)):
            assert _bitwise(bare, row[:, 1, 2]), m

    def test_phases_repeat_every_four_degrees(self, monkeypatch):
        # with j_j = 1, j_j' = 0, Y_jm = 0, unit VSH and kr = 1, each wave is
        # its phase 4 pi i^(j+3) or 4 pi i^j: degrees j and j + 4 agree bit for bit
        monkeypatch.setattr(verify, "spherical_jn",
                            lambda n, x, derivative=False: np.full(np.broadcast(n, x).shape, 1.0 - derivative))
        monkeypatch.setattr(verify, "_vsh_grid",
                            lambda j, m, th, ph: 2 * (np.ones(np.shape(j) + np.shape(th) + (3,)),))
        monkeypatch.setattr(verify, "sph_harm_y", lambda j, m, th, ph: np.zeros(np.broadcast(j, th).shape))
        ve, vm = _spherical_wave_pair(np.arange(205), 0, 1.0, (0.0, 0.0, 1.0))
        for v in (ve, vm):
            assert _bitwise(v[:-4], v[4:])
        assert np.array_equal(vm[:4, 0], 4 * math.pi * np.array([1, 1j, -1, -1j]))
        assert np.array_equal(ve[:4, 0], 4 * math.pi * np.array([-1j, 1, 1j, -1]))

    def test_partial_sums_make_one_wave_call(self, monkeypatch):
        calls = []
        original = verify._spherical_wave_pair
        monkeypatch.setattr(verify, "_spherical_wave_pair",
                            lambda j, *args, **kw: calls.append(np.shape(j)) or original(j, *args, **kw))
        assert [j for j, *_ in partial_sums("N", 2, 1.0, 2.0, (0.3, 0.2, 0.1), 9)] == list(range(2, 10))
        assert calls == [(8,)]
        assert list(partial_sums("N", 4, 1.0, 2.0, (0.3, 0.2, 0.1), 3)) == [] and len(calls) == 1


class TestTurnedRing:
    """expansion_coefficients, whose one ring is turned back to phi = 0, against
    the per-node projection: for each degree a ring of n = 8 (|m| + j + 4)
    nodes, with vsh_grid evaluated on every node."""

    @staticmethod
    def per_node(which, m, k_z, degrees, m_j):
        theta0 = math.acos(k_z / modes.omega(1.0, 1.0, k_z))
        alpha = np.zeros((2, len(degrees)), dtype=complex)
        for i, j in enumerate(degrees):
            if j < max(1, abs(m_j)):
                continue
            n = 8 * (abs(m) + j + 4)
            phis = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
            ring = modes.cone_density(which, m, 1.0, k_z, phis)
            for row, y in zip(alpha, specfun.vsh_grid(j, m_j, np.full(n, theta0), phis)):
                row[i] = j * (j + 1) * np.sum(ring * np.conj(y)) * (2 * math.pi / n)
        return alpha

    @staticmethod
    def tolerance(m_j):
        # vsh_grid on a node takes e^(i m_j phi_k) with m_j phi_k rounded, where
        # |m_j phi_k| < 2 pi |m_j|; the turned-back ring's phase is reduced exactly
        return 3e-15 + 2 * math.pi * abs(m_j) * np.finfo(float).eps

    @pytest.mark.parametrize("m", [*range(-8, 9), 150, -150])
    def test_equals_the_per_node_projection(self, m):
        degrees = range(max(0, abs(m) - 2), abs(m) + 9)
        for which in "MN":
            for k_z in (2.0, -2.0):
                # the off-order projections vanish to rounding: the range's
                # largest |alpha| at m_j = m sets the scale of all three
                scale = np.abs(self.per_node(which, m, k_z, degrees, m)).max()
                for m_j in (m - 1, m, m + 1):
                    got = np.array(expansion_coefficients(which, m, 1.0, k_z, degrees, m_j=m_j))
                    gap = np.abs(got - self.per_node(which, m, k_z, degrees, m_j)).max()
                    assert gap <= self.tolerance(m_j) * scale, (which, k_z, m_j, gap / scale)

    def test_phases_repeat_every_n_phi_orders(self):
        m = 150
        for m_j in (m - 1, m, m + 1):
            phis = np.linspace(0.0, 2 * math.pi, 8 * (abs(m - m_j) + 4), endpoint=False)
            ring = modes.cone_density("N", m, 1.0, 2.0, phis)
            assert _bitwise(verify._turned_back(ring, m_j, phis),
                            verify._turned_back(ring, m_j + len(phis), phis)), m_j


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
            for (j, aE, aM, total), (j1, aE1, aM1, t1), (j2, aE2, aM2, t2) in zip(batch, one, bare):
                assert j == j1 == j2 and aE == aE1 == aE2 and aM == aM1 == aM2
                assert t1.shape == (1, 3) and t2.shape == (3,)
                # a bare point takes the array loop in vsh_grid too (README)
                assert _bitwise(total[idx], t1[0]) and _bitwise(total[idx], t2), (idx, j)

    @pytest.mark.parametrize("which", ["M", "N"])
    @pytest.mark.parametrize("m", [-3, 0, 2, 3, 150])
    def test_a_range_call_equals_its_one_degree_calls(self, which, m):
        # the ring does not depend on the degrees, and vsh_grid gives each degree
        # the same bits in any degree array, so a range's entries are the
        # one-degree calls', in a stepped or descending range too
        for degrees in (range(max(0, abs(m) - 2), abs(m) + 6), range(max(0, abs(m) - 3), abs(m) + 7, 2),
                        range(abs(m) + 3, -1, -1)):
            for k_z in (2.0, -2.0):
                for m_j in (m - 1, m, m + 1):
                    batch = expansion_coefficients(which, m, 1.0, k_z, degrees, m_j=m_j)
                    below = np.array(degrees) < max(1, abs(m_j))
                    for got in batch:
                        assert got.dtype == complex and got.shape == (len(degrees),)
                        assert _bitwise(got[below], np.zeros(below.sum(), dtype=complex)), m_j
                    for i, j in enumerate(degrees):
                        one = expansion_coefficients(which, m, 1.0, k_z, range(j, j + 1), m_j=m_j)
                        for got, ref in zip(batch, one):
                            assert _bitwise(got[i:i + 1], ref), (degrees, m_j, k_z, j)
        for m_j in (m - 1, m, m + 1):
            empty = expansion_coefficients(which, m, 1.0, 2.0, range(3, 3), m_j=m_j)
            assert [a.shape for a in empty] == [(0,), (0,)]

    def test_one_coefficient_call_per_ring_range(self, monkeypatch):
        calls, rings = [], []
        original = verify.expansion_coefficients
        cone_density = verify.cone_density

        def counted(which, m, k_perp, k_z, degrees, c=1.0, m_j=None):
            calls.append((which, m if m_j is None else m_j, degrees))
            return original(which, m, k_perp, k_z, degrees, c, m_j)

        monkeypatch.setattr(verify, "expansion_coefficients", counted)
        monkeypatch.setattr(verify, "cone_density",
                            lambda *args: rings.append((len(calls), len(args[4]))) or cone_density(*args))
        spherical_suite()
        # the printed u, v at m_j = m and the projections at m_j = m -/+ 1 over
        # j = 2..11, then the sums of N and M over j = 2..60
        assert calls == [("N", 2, range(2, 12)), ("N", 1, range(2, 12)), ("N", 3, range(2, 12)),
                         ("N", 2, range(2, 61)), ("M", 2, range(2, 61))]
        # one cone_density call per coefficient call, on a ring of 8 (|m - m_j| + 4)
        # nodes whatever the degrees: 5 calls per suite, not one per degree
        assert rings == [(1, 32), (2, 40), (3, 40), (4, 32), (5, 32)]

    def test_five_rings_and_two_wave_pairs_in_the_suite(self, monkeypatch):
        keys = []
        original = verify._vsh_grid

        def counted(j, m, theta, phi):
            keys.append((np.asarray(j).tolist(), m, np.shape(theta)))
            return original(j, m, theta, phi)

        def bits(results):
            return [(r.name, np.float64(r.residual).tobytes(), r.notes, r.passed) for r in results]

        monkeypatch.setattr(verify, "_vsh_grid", counted)
        ranged = spherical_suite()
        # one ring at phi = 0 per expansion_coefficients call, one wave-pair
        # grid at the 3 sample points per partial_sums call (N, then M)
        sums = [(list(range(2, 61)), 2, (3,)), (list(range(2, 61)), 2, ())]
        assert keys == [(list(range(2, 12)), 2, ()), (list(range(2, 12)), 1, ()),
                        (list(range(3, 12)), 3, ())] + sums * 2
        # the report's bits do not depend on the degrees a ring call takes
        coefficients = verify.expansion_coefficients

        def per_degree(which, m, k_perp, k_z, degrees, c=1.0, m_j=None):
            ones = [coefficients(which, m, k_perp, k_z, range(j, j + 1), c, m_j) for j in degrees]
            return tuple(np.concatenate(parts) for parts in zip(*ones))

        monkeypatch.setattr(verify, "expansion_coefficients", per_degree)
        assert bits(ranged) == bits(spherical_suite())

    def test_one_ring_call_and_one_wave_pair_call_per_expand_run(self, monkeypatch, tmp_path):
        # expand's path: partial_sums makes one wave-pair call and one ring
        # call, and the next run makes its own
        calls = []
        original = verify._vsh_grid
        monkeypatch.setattr(verify, "_vsh_grid",
                            lambda *args: calls.append((np.size(args[0]), np.shape(args[2]))) or original(*args))
        for _ in range(2):
            list(partial_sums("N", 2, 1.0, 2.0, (0.3, 0.2, 0.1), 9))
        assert calls == [(8, ()), (8, ())] * 2  # the wave pair at one point, then the ring
        calls.clear()
        assert cli.main(["expand", "--m", "-3", "--which", "M", "--kperp", "1.0", "--kz", "-2.0",
                         "--jmax", "12", "--out", str(tmp_path / "e.csv")]) == 0
        assert calls == [(10, ()), (10, ())]
