"""Acceptance gate: one test per top-level acceptance criterion.

Each test prints a single ``ACCEPTANCE <n> <label>: PASS|FAIL`` line so the
suite output doubles as a checklist.  Relations whose printed source form
disagrees with the computed algebra are flagged (pass=False with the
residual in normal form) and carry a passing companion entry with the
computed normal form; the gate requires exactly that structure, never a
silent fix-up.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import jv

from besselbeams.dynops import (
    build_L_spherical,
    build_observables,
    build_stokes,
    zero_points,
)
from besselbeams.lattice import FockOracle, build_lattice, commutator
from besselbeams.modes import (
    E3, CylPoint, ModeIndex, NormalizationConvention, TE, TM, eval_E, eval_M, eval_N,
)
from besselbeams.specfun import lommel_overlap
from besselbeams.verify import (
    basis_suite,
    commutator_suite,
    spherical_suite,
)
from hertz import hertz_fields

FLAGGED = {
    "commutator: [S+,L+] = -hbar S3 (printed)",
    "commutator: [S+,L-] = -i hbar^2 sum (c kz/omega)"
    "(a1_{m-1} a2+_{m+1} - a2_{m-1} a1+_{m+1}) (printed)",
    "quadrature: int M' . (L+ M) dV = 0 (printed)",
    "spherical: printed u phase matches projection coefficient (flagged)",
}


def _report(number, label, ok):
    print(f"\nACCEPTANCE {number} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({label}) failed"


def reference_lattice():
    return build_lattice(
        (-4, 4),
        [0.5, 1.0, 1.5],
        [1.0, 2.0],
    )


def test_01_commutator_table():
    t0 = time.monotonic()
    results = commutator_suite(reference_lattice())
    elapsed = time.monotonic() - t0
    ok = elapsed < 30.0
    for r in results:
        if r.name in FLAGGED:
            # printed-form conflicts stay flagged with their residual and
            # must have a passing computed companion
            ok = ok and not r.passed and r.residual > r.tolerance
            companion = [
                s for s in results if s.name.endswith("(computed)")
                and s.name.split(" = ")[0] == r.name.split(" = ")[0]
            ]
            ok = ok and companion and all(s.passed for s in companion)
        elif r.notes.startswith("canonical"):
            ok = ok and r.passed and r.residual < 1e-12
        else:
            ok = ok and r.passed
    _report(1, "commutator table on the reference lattice", ok)


def test_02_fock_oracle_equivalence():
    t0 = time.monotonic()
    lat = build_lattice((-1, 1), [1.0], [2.0])  # D = 6
    obs = build_observables(lat)
    oracle = FockOracle(lat, n_max=3)
    keep = np.flatnonzero(oracle.occupancy_mask(oracle.n_max - 1))
    worst = 0.0

    def block_max(S):
        # max |entry| on the truncation-safe occupancy block, kept sparse
        return float(np.abs(S.tocsr()[keep][:, keep].toarray()).max())

    from scipy.sparse import identity

    eye = identity(oracle.dim, dtype=complex, format="csr")
    # every observable: coefficient realization vs literal ladder assembly
    for op in obs.values():
        direct = 0 * eye
        coo = op.X.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            direct = direct + v * (oracle.bdag[r] @ oracle.b[c])
        worst = max(worst, block_max(oracle.realize(op) - direct))
    # symmetrizing a diagonal observable adds (1/2) sum_j X_jj [b_j, b_j^dag],
    # its zero point times 1 on the block
    for name, zero in zero_points(lat).items():
        sym = sum(0.5 * x * (oracle.bdag[j] @ oracle.b[j] + oracle.b[j] @ oracle.bdag[j])
                  for j, x in enumerate(obs[name].X.diagonal()))
        worst = max(worst, block_max(sym - oracle.realize(obs[name]) - zero * eye))
    # every commutator of the observables: algebraic vs matrix commutator
    realized = {n: oracle.realize(op).tocsr() for n, op in obs.items()}
    names = sorted(obs)
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            lhs = oracle.realize(commutator(obs[na], obs[nb]))
            Am, Bm = realized[na], realized[nb]
            worst = max(worst, block_max(lhs - (Am @ Bm - Bm @ Am)))
    elapsed = time.monotonic() - t0
    _report(2, "Fock-oracle equivalence (D=6, cutoff 3)", worst < 1e-12 and elapsed < 60.0)


def test_03_simultaneous_diagonalization():
    results = basis_suite(reference_lattice())
    by_name = {r.name: r for r in results}
    ok = (
        by_name["basis: {E,P3,L3,S3} mutually commute"].passed
        and by_name["basis: {E,P3,L3,S3} diagonal in (+/-) basis"].passed
        and by_name[
            "basis: (+/-) eigenvalues {hbar w, hbar kz, hbar m, +/-hbar c kz/w}"
        ].passed
    )
    # Pythagorean node: S3 eigenvalues exactly +/- 0.8 hbar
    pyth = build_lattice((-2, 2), [3.0], [4.0])
    eig = {r.name: r for r in basis_suite(pyth)}[
        "basis: (+/-) eigenvalues {hbar w, hbar kz, hbar m, +/-hbar c kz/w}"
    ]
    ok = ok and eig.passed and abs(0.8 - 4.0 / 5.0) == 0.0
    _report(3, "simultaneous diagonalization in the (+/-) basis", ok)


def test_04_stokes_and_spherical_su2():
    lat = reference_lattice()
    worst = 0.0
    for ip in range(3):
        for iz in range(2):
            for m in lat.m_values:
                _, s1, s2, s3 = build_stokes(lat, ip, iz, m)
                worst = max(
                    worst,
                    (commutator(s1, s2) - 2j * s3).max_abs(),
                    (commutator(s2, s3) - 2j * s1).max_abs(),
                    (commutator(s3, s1) - 2j * s2).max_abs(),
                )
    # coefficient matrices: [b^dag X b, b^dag Y b] = b^dag [X, Y] b
    L_plus, L_minus, L_3 = build_L_spherical(4)
    Lx = L_plus + L_minus
    Ly = 1j * (L_minus - L_plus)
    sph = max(
        abs(Lx @ Ly - Ly @ Lx - 1j * L_3).max(),
        abs(Ly @ L_3 - L_3 @ Ly - 1j * Lx).max(),
        abs(L_3 @ Lx - Lx @ L_3 - 1j * Ly).max(),
    )
    _report(4, "Stokes su(2) at every node and spherical su(2) for j <= 4",
            worst < 1e-13 and sph < 1e-13)


def test_05_rl_basis_claims():
    by_name = {r.name: r for r in basis_suite(reference_lattice())}
    s3 = by_name["basis: S3 diagonal under R/L map"]
    cross = by_name["basis: R/L energy cross-term = (1/4)(1+beta^2)(1-1/beta^2) hbar w"]
    slope = by_name["basis: paraxial off-diagonal energy ~ (kp/kz)^2"]
    ok = (
        s3.passed and s3.residual < 1e-12
        and cross.passed and cross.residual < 1e-12
        and slope.passed and slope.residual <= 0.05
    )
    _report(5, "R/L basis: S3 diagonal, cross-term coefficient, paraxial slope", ok)


def test_06_wavepacket_quadrature(default_quadrature):
    results, elapsed = default_quadrature
    ok = elapsed < 180.0
    for r in results:
        if r.name in FLAGGED:
            ok = ok and not r.passed
            companion = [s for s in results if "reflected conjugated" in s.name]
            ok = ok and companion and all(s.passed for s in companion)
        else:
            ok = ok and r.passed
    # cross-family and m != m' overlaps below 1e-6 of the diagonal scale
    for name in ("quadrature: int M.M'* dV = 0 for m != m'",
                 "quadrature: int M.N'* dV = 0"):
        r = next(s for s in results if s.name == name)
        ok = ok and r.residual < 1e-6
    # finite-radius radial overlaps against the closed form, 100 tuples
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(0, 6))
        k = float(rng.uniform(0.2, 3.0))
        k2 = float(rng.uniform(0.2, 3.0))
        if abs(k - k2) < 1e-3:
            k2 += 0.1
        R = float(rng.uniform(0.5, 12.0))
        direct, _ = quad(lambda r_: jv(m, k * r_) * jv(m, k2 * r_) * r_, 0.0, R, limit=400)
        worst = max(worst, abs(lommel_overlap(m, k, k2, R) - direct))
    ok = ok and worst < 1e-10
    _report(6, "wavepacket-smeared volume quadrature and radial overlaps", ok)


def test_07_energy_per_photon(default_quadrature):
    # quadrature_suite() ends with energy_per_photon_check() at the same margin
    results, _ = default_quadrature
    (r,) = [s for s in results if s.name == "quadrature: energy per photon = hbar * mean omega"]
    _report(7, "narrow-wavepacket energy per photon within 1%",
            r.passed and r.residual < 0.01)


def test_08_spherical_expansion():
    results = spherical_suite()
    by_name = {r.name: r for r in results}
    scalar = by_name["spherical: scalar angular-spectrum identity"]
    recon = by_name["spherical: M, N reconstruction from spherical modes (j_max=60)"]
    select = by_name["spherical: u, v selection rule m_j = m"]
    flagged = by_name["spherical: printed u phase matches projection coefficient (flagged)"]
    ok = (
        scalar.passed and scalar.tolerance <= 1e-10
        and recon.passed and recon.residual < 1e-3
        and select.passed and select.tolerance <= 1e-12
        and not flagged.passed  # printed phase conflict stays flagged
        and all(r.passed for r in results if r.name not in FLAGGED)
    )
    _report(8, "scalar angular spectrum, spherical reconstruction, selection rule", ok)


def test_09_field_identities():
    rng = np.random.default_rng(99)
    worst_dual = worst_hertz = 0.0
    for _ in range(1000):
        m = int(rng.integers(-4, 5))
        kp = float(rng.uniform(0.3, 2.5))
        kz = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0))
        p = CylPoint(
            float(rng.uniform(1e-3, 6.0)),
            float(rng.uniform(-math.pi, math.pi)),
            float(rng.uniform(-3.0, 3.0)),
        )
        w = math.hypot(kp, kz)
        # c kz M = w N x e3 with the orientation fixed by the computed
        # algebra: e3 x N (the mirrored order flips the transverse sign)
        lhs = kz * eval_M(m, kp, kz, p)
        rhs = w * np.cross(E3, eval_N(m, kp, kz, p))
        worst_dual = max(worst_dual, float(np.abs(lhs - rhs).max()))
        # independent Hertz-potential fields: N = E_TM/(kp kz), M = -E_TE/(kp kz)
        E_tm, _ = hertz_fields(TM, m, kp, kz, p)
        E_te, _ = hertz_fields(TE, m, kp, kz, p)
        worst_hertz = max(
            worst_hertz,
            float(np.abs(eval_N(m, kp, kz, p) - E_tm / (kp * kz)).max()),
            float(np.abs(eval_M(m, kp, kz, p) + E_te / (kp * kz)).max()),
        )
    # finite-difference divergence of E at second-order stencil accuracy
    norm = NormalizationConvention()
    h = 1e-5
    worst_div = 0.0
    for family in (TM, TE):
        K = ModeIndex(family, 2, 1.0, 2.0)
        for x0, y0, z0 in [(0.8, -0.4, 0.3), (1.6, 1.1, -0.7)]:
            div = 0.0 + 0.0j
            for axis in range(3):
                for s in (1.0, -1.0):
                    q = [x0, y0, z0]
                    q[axis] += s * h
                    rho, phi = math.hypot(q[0], q[1]), math.atan2(q[1], q[0])
                    div += s * 0.5 / h * eval_E(K, CylPoint(rho, phi, q[2]), norm)[axis]
            scale = np.abs(
                eval_E(K, CylPoint(math.hypot(x0, y0), math.atan2(y0, x0), z0), norm)
            ).max()
            worst_div = max(worst_div, abs(div) / scale)
    _report(9, "duality, M and N against the Hertz fields, and div E = 0",
            worst_dual < 1e-12 and worst_hertz < 1e-12 and worst_div < 1e-5)
