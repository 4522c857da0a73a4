"""Numerical verification suites for the mode algebra and its field identities.

Four suites, each returning a deterministic list of RelationResult:

* commutator_suite -- the full table of commutators among P, L, S on a
  mode lattice, plus the per-node Stokes su(2) algebra, cross-checked
  against a brute-force truncated-Fock realization.
* basis_suite -- simultaneous diagonalization in the (+/-) basis, the
  circular (R/L) map, the energy cross-term coefficient, and the
  paraxial scaling of the off-diagonal energy.
* quadrature_suite -- the delta-normalized volume integrals (scalar and
  vector products, L_+ matrix elements, energy per photon) regularized
  by Gaussian wavepacket smearing and integrated over a finite cylinder.
* spherical_suite -- plane-wave angular spectra, expansion of the
  cylinder modes in spherical vector modes, and the spherical-basis
  su(2) algebra.

Relations whose commonly printed form disagrees with the computed
algebra are reported with pass=False, each beside a computed companion
relation; FLAGGED maps one name to the other.  The suites check, they do
not patch.

All suites run with c = hbar = 1 unless the lattice says otherwise.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import spherical_jn

from . import specfun
from .lattice import (
    FAMILIES,
    FockOracle,
    LatticeError,
    ModeLattice,
    QuadraticOperator,
    apply_basis,
    build_lattice,
    commutator,
)
from .dynops import (
    assemble,
    build_L_spherical,
    build_observables,
    build_stokes,
    make_pm_map,
    make_rl_map,
)
from .modes import (
    FIELD_RULE,
    CylPoint,
    NormalizationConvention,
    TE,
    TM,
    angular_spectrum,
    cone_density,
    eval_M,
    eval_N,
    mode_terms,
    scalar_angular_spectrum,
)

ALG_TOL = 1e-12
STOKES_TOL = 1e-13
QUAD_REL_TOL = 1e-3
QUAD_MARGIN = 0.25  # k_counts margin; a larger one buys k-resolution for a tighter QUAD_REL_TOL
SPHERICAL_TOL = 1e-3
AZIMUTHAL_TOL = 1e-6


@dataclass(frozen=True)
class RelationResult:
    """Outcome of one checked relation; the verdict follows from the residual."""

    name: str
    residual: float
    tolerance: float
    notes: str = ""
    inconclusive: bool = False

    @property
    def passed(self):
        """Residual within tolerance, and the check conclusive (a Python bool)."""
        return bool(self.residual <= self.tolerance) and not self.inconclusive

    def to_dict(self):
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "notes": self.notes,
            "inconclusive": self.inconclusive,
        }


def _sorted(results):
    return sorted(results, key=lambda r: r.name)


# Relations whose printed form the computed algebra contradicts, each mapped to
# the computed relation reported beside it.  The suites report a flagged
# relation with pass=False; cli.DEFAULT_EXPECTED_FAIL is these names, in order.
FLAGGED = {
    "commutator: [S+,L+] = -hbar S3 (printed)":
        "commutator: [S+,L+] = +(hbar/2) S3 (computed)",
    "commutator: [S+,L-] = -i hbar^2 sum (c kz/omega)(a1_{m-1} a2+_{m+1} - a2_{m-1} a1+_{m+1}) (printed)":
        "commutator: [S+,L-] = -(1/2) x printed RHS (computed)",
    "quadrature: int M' . (L+ M) dV = 0 (printed)":
        "quadrature: int M' . (L+ M) dV = (-1)^(m+1) x reflected conjugated element (computed)",
    "spherical: printed u phase matches projection coefficient (flagged)":
        "spherical: u phase without i^j matches projection coefficient (computed)",
}


def _flagged(suite):
    """(flagged name, companion name) of the one FLAGGED relation of `suite`."""
    (pair,) = [item for item in FLAGGED.items() if item[0].startswith(suite + ": ")]
    return pair


# ---------------------------------------------------------------------------
# Commutator suite
# ---------------------------------------------------------------------------


def _interior_indices(lat: ModeLattice):
    """Indices whose m is at least 2 away from the truncation edge.

    m-shifting bilinears develop O(1) boundary defects on a truncated
    m-window; all operator relations hold exactly on the interior block.
    Below width 7 that block holds no two m values 2 apart, so a relation
    whose sides shift m by 2 would restrict to nothing and pass vacuously.
    """
    m_min, m_max = lat.m_range
    if m_max - m_min + 1 < 7:
        raise LatticeError(
            f"commutators need an m_range at least 7 wide, got {m_min}..{m_max}: "
            "a narrower interior block holds no two m values 2 apart"
        )
    return lat.pairs()[2:-2].ravel()


# Every printed [A, B] = RHS as (name, A, B, RHS, provenance, notes), with A
# and B `build_observables` names.  RHS is None for 0, (x, observable) for
# x hbar times that observable, or (x, TERMS entry) for x times its grid-factor
# operator.  Provenance is canonical, printed (the source's own form) or
# computed (the normal form beside a flagged printed row).  Observables are
# normal-ordered (no zero point), so both sides are pure quadratic forms, as
# every commutator is.
COMMUTATOR_TABLE = (
    ("[P+,P-] = 0", "P+", "P-", None, "canonical", "momentum components commute"),
    ("[P+,P3] = 0", "P+", "P3", None, "canonical", ""),
    ("[P-,P3] = 0", "P-", "P3", None, "canonical", ""),
    ("[S+,S-] = 0", "S+", "S-", None, "canonical", "helicity components commute"),
    ("[S+,S3] = 0", "S+", "S3", None, "canonical", ""),
    ("[S-,S3] = 0", "S-", "S3", None, "canonical", ""),
    ("[P+,S+] = 0", "P+", "S+", None, "canonical", "momentum commutes with helicity"),
    ("[P+,S-] = 0", "P+", "S-", None, "canonical", ""),
    ("[P+,S3] = 0", "P+", "S3", None, "canonical", ""),
    ("[P3,S+] = 0", "P3", "S+", None, "canonical", ""),
    ("[P3,S3] = 0", "P3", "S3", None, "canonical", ""),
    ("[L3,P3] = 0", "L3", "P3", None, "canonical", ""),
    ("[S3,L+] = 0", "S3", "L+", None, "canonical", ""),
    ("[S3,L-] = 0", "S3", "L-", None, "canonical", ""),
    ("[S3,L3] = 0", "S3", "L3", None, "canonical", ""),
    ("[L+,L3] = hbar L+", "L+", "L3", (1, "L+"), "canonical", ""),
    ("[L-,L3] = -hbar L-", "L-", "L3", (-1, "L-"), "canonical", ""),
    ("[L+,L-] = 2 hbar^2 sum (kz^2/kp^2) Lambda3", "L+", "L-", (1, "[L+,L-]"), "printed",
     "grid-factor RHS"),
    ("[L3,P-] = hbar P-", "L3", "P-", (1, "P-"), "printed", ""),
    ("[L+,P-] = hbar P3", "L+", "P-", (1, "P3"), "printed",
     "matrix parts; zero-point scalar excluded from both sides"),
    ("[L+,P3] = 0", "L+", "P3", None, "printed", ""),
    ("[L+,P+] = hbar^2 sum kz a+_{m-1} a_{m+1}", "L+", "P+", (1, "[L+,P+]"), "printed",
     "grid-factor RHS"),
    ("[S+,L3] = -hbar^2 sum (c kp/omega) Sigma+", "S+", "L3", (1, "[S+,L3]"), "printed",
     "grid-factor RHS"),
    ("[S+,L+] = -hbar S3 (printed)", "S+", "L+", (-1, "S3"), "printed",
     "printed RHS does not match the computed algebra; see companion relation"),
    ("[S+,L+] = +(hbar/2) S3 (computed)", "S+", "L+", (0.5, "S3"), "computed",
     "computed normal form is -1/2 of the printed RHS"),
    ("[S+,L-] = -i hbar^2 sum (c kz/omega)(a1_{m-1} a2+_{m+1} - a2_{m-1} a1+_{m+1}) (printed)",
     "S+", "L-", (1, "[S+,L-] printed"), "printed",
     "printed RHS (summed over m) does not match the computed algebra; see companion relation"),
    ("[S+,L-] = -(1/2) x printed RHS (computed)", "S+", "L-", (-0.5, "[S+,L-] printed"), "computed",
     "computed normal form is exactly -1/2 of the printed combination"),
)


def commutator_suite(lat: ModeLattice, tol=ALG_TOL):
    """Evaluate COMMUTATOR_TABLE on the lattice, then the Stokes algebra and
    the brute-force Fock cross-check.

    The table is plain data: the suite builds each row's operands and
    right-hand side on `lat` and compares them on the interior m-block
    (margin 2 from the truncation edge), where the relations are free of
    window artifacts; a window narrower than 7 is refused.  Canonical rows
    are expected to pass; a printed row that the computed algebra
    contradicts fails, and is in FLAGGED with its computed companion row.
    A table row's residual is max|[A,B] - RHS| / (|A|max |B|max), so `tol`
    is relative there; the Stokes and Fock rows stay absolute.
    """
    interior = _interior_indices(lat)
    obs = build_observables(lat, include_zero_point=False)
    results = []
    lhs = {}
    for name, a, b, rhs, provenance, notes in COMMUTATOR_TABLE:
        A, B = obs[a], obs[b]
        if (a, b) not in lhs:
            lhs[a, b] = commutator(A, B)
        diff = lhs[a, b]
        if rhs is not None:
            x, term = rhs
            diff = diff - (x * lat.hbar * obs[term] if term in obs else x * assemble(lat, term))
        # entries of [A, B] grow like |A|max |B|max with the lattice size
        scale = A.max_abs() * B.max_abs()
        resid = diff.restrict(interior).max_abs() / scale
        # a canonical row says so in its notes, as reports always have
        parts = ([provenance] if provenance == "canonical" else []) + ([notes] if notes else [])
        parts.append(f"residual relative to |A|max |B|max = {scale:.6g}")
        results.append(RelationResult("commutator: " + name, resid, tol, "; ".join(parts)))

    # Stokes su(2) on every (TM, TE) pair at once: the summed operators sit
    # on disjoint index pairs, so each summed residual's max-abs is the
    # worst case over all (node, m).  Per-pair operators at the corner
    # (m, node) labels check the same algebra at full size.
    worst = _su2_residual(*(assemble(lat, name).X for name in ("sigma1", "sigma2", "sigma3")), 2j)
    corners = {
        (ip, iz, m)
        for ip in (0, len(lat.k_perp_nodes) - 1)
        for iz in (0, len(lat.k_z_nodes) - 1)
        for m in lat.m_range
    }
    for ip, iz, m in sorted(corners):
        worst = max(worst, _su2_residual(*(s.X for s in build_stokes(lat, ip, iz, m)[1:]), 2j))
    results.append(
        RelationResult(
            "commutator: stokes [sigma_i,sigma_j] = 2i eps_ijk sigma_k",
            worst,
            STOKES_TOL,
            "worst case over all (node, m)",
        )
    )

    results.append(_fock_cross_check(tol))
    return _sorted(results)


def _su2_residual(X1, X2, X3, unit):
    """max-abs of [X_i, X_j] - unit eps_ijk X_k over the three cyclic pairs
    of sparse coefficient matrices: unit is 2i for the Stokes operators and
    i (hbar = 1) for L.  [b^dag X b, b^dag Y b] = b^dag [X, Y] b, so this is
    the residual of the quadratic forms too."""
    cyclic = ((X1, X2, X3), (X2, X3, X1), (X3, X1, X2))
    return max(abs(A @ B - B @ A - unit * C).max() for A, B, C in cyclic)


def _fock_cross_check(tol):
    """Brute-force check of the quadratic commutator identity on a D=6 lattice.

    Every relation LHS is realized two ways on a truncated Fock space:
    through the coefficient-matrix commutator and as the literal matrix
    commutator of the realized observables.  Agreement is exact on the
    subspace that never touches the truncation level.
    """
    lat = build_lattice((-1, 1), [1.0], [2.0])
    obs = build_observables(lat, include_zero_point=False)
    oracle = FockOracle(lat, n_max=3)
    keep = np.flatnonzero(oracle.occupancy_mask(oracle.n_max - 1))
    pairs = [
        ("P+", "P-"), ("P+", "P3"), ("S+", "S-"), ("P+", "S+"),
        ("L3", "P3"), ("S3", "L+"), ("L+", "L3"), ("L+", "L-"),
        ("L3", "P-"), ("L+", "P-"), ("L+", "P3"), ("L+", "P+"),
        ("S+", "L3"), ("S+", "L+"), ("S+", "L-"),
    ]
    realized = {n: oracle.realize(obs[n]) for n in sorted({n for pair in pairs for n in pair})}
    worst = 0.0
    for na, nb in pairs:
        lhs = oracle.realize(commutator(obs[na], obs[nb]))
        rhs = realized[na] @ realized[nb] - realized[nb] @ realized[na]
        diff = (lhs - rhs)[keep][:, keep]
        worst = max(worst, float(abs(diff).max()))
    return RelationResult(
        "commutator: fock-oracle cross-check (15 pairs, cutoff 3)",
        worst,
        tol,
        "element-wise on the occupation<=2 block of a D=6 lattice",
    )


# ---------------------------------------------------------------------------
# Basis suite
# ---------------------------------------------------------------------------


def _offdiag_norm(A: QuadraticOperator):
    X = A.X.tocoo()
    off = np.abs(X.data[X.row != X.col])
    return float(off.max()) if off.size else 0.0


def _worst(ratios):
    """Largest of the residual ratios as a float, NaN when any is NaN: max()
    would keep its running value past a NaN, since NaN compares False."""
    return float(np.max(ratios))


def basis_suite(lat: ModeLattice, tol=ALG_TOL):
    """Diagonalization and circular-basis checks.

    (a) {energy, P3, L3, S3} mutually commute and are simultaneously
        diagonal after the (+/-) map, with per-mode eigenvalues
        {hbar*omega, hbar*kz, hbar*m, +/-hbar*c*kz/omega};
    (b) S3 is diagonal under the (non-unitary) R/L map;
    (c) the R/L energy cross-term coefficient is
        (1/4)[1+(c kz/w)^2][1-(w/(c kz))^2] * hbar*omega;
    (d) that off-diagonal energy scales like (kp/kz)^2 in the paraxial
        regime (log-log slope 2 over two decades).
    Each residual is relative to the scale its note states (max-abs
    entries of the operands), so `tol` is relative and the verdicts do
    not depend on the units of hbar and c.  Ratios are numpy divisions,
    so a zero or overflowed scale gives a NaN or inf residual, never an
    exception.  Rounding in T^-1 alone can leave (b) a residual up to
    eps cond(T); one above `tol` but within that bound is inconclusive.
    """
    hbar, c = lat.hbar, lat.c
    obs = build_observables(lat, include_zero_point=False)
    results = []

    quartet = ("energy", "P3", "L3", "S3")
    worst = _worst([
        np.divide(commutator(A, B).max_abs(), A.max_abs() * B.max_abs())
        for A, B in itertools.combinations([obs[name] for name in quartet], 2)
    ])
    results.append(
        RelationResult(
            "basis: {E,P3,L3,S3} mutually commute",
            worst,
            tol,
            "residual relative to |A|max |B|max of each pair",
        )
    )

    pm = make_pm_map(lat)
    results.append(
        RelationResult(
            "basis: (+/-) map is unitary",
            pm.unitarity_residual,
            tol,
            "max |T^dag T - I|; T is dimensionless, scale 1",
        )
    )
    # (m, k_perp node, k_z node) grids; the (TM, TE) pair of each sits at
    # pairs[..., 0] and pairs[..., 1]
    pairs = lat.pairs()
    m = np.array(lat.m_values)[:, None, None]
    kz = np.array(lat.k_z_nodes)
    w = np.array([[c * math.hypot(kp, v) for v in lat.k_z_nodes] for kp in lat.k_perp_nodes])
    off, diag = [], {}
    for name in quartet:
        A = obs[name]
        Ap = apply_basis(A, pm)
        off.append(np.divide(_offdiag_norm(Ap), A.max_abs()))
        diag[name] = (np.real(Ap.X.diagonal()), A.max_abs())
    eig = []
    for fam, idx in zip(FAMILIES, np.moveaxis(pairs, -1, 0)):
        hel = 1.0 if fam == TM else -1.0  # (+) combination sits in the TM slot
        expected = {
            "energy": hbar * w,
            "P3": hbar * kz,
            "L3": hbar * m,
            "S3": hel * hbar * c * kz / w,
        }
        for name, want in expected.items():
            values, scale = diag[name]
            eig.append(np.divide(np.abs(values[idx] - want).max(), scale))
    results.append(
        RelationResult(
            "basis: {E,P3,L3,S3} diagonal in (+/-) basis",
            _worst(off),
            tol,
            "off-diagonal residual relative to |A|max of each operator",
        )
    )
    results.append(
        RelationResult(
            "basis: (+/-) eigenvalues {hbar w, hbar kz, hbar m, +/-hbar c kz/w}",
            _worst(eig),
            tol,
            "per-mode eigenvalue table; residual relative to |A|max of each operator",
        )
    )

    rl = make_rl_map(lat)
    S3_rl = apply_basis(obs["S3"], rl)
    scale = obs["S3"].max_abs()
    resid = float(np.divide(_offdiag_norm(S3_rl), scale))
    notes = (f"map condition number {rl.condition_number:.6g} (non-unitary); "
             f"residual relative to |S3|max = {scale:.6g}")
    # rounding in T^-1 can explain a residual up to eps cond(T)
    rounding = np.finfo(float).eps * rl.condition_number
    inconclusive = bool(tol < resid <= rounding)
    if inconclusive:
        notes += f"; inconclusive: rounding in T^-1 allows up to eps cond(T) = {rounding:.3e}"
    results.append(
        RelationResult("basis: S3 diagonal under R/L map", resid, tol, notes, inconclusive)
    )

    E_rl = apply_basis(obs["energy"], rl)
    scale = E_rl.max_abs()
    E_rl = E_rl.X
    # in numpy floats, an underflowed beta^2 gives an infinite residual, not an exception
    beta2 = (c * kz / w) ** 2
    coeff = 0.25 * (1.0 + beta2) * (1.0 - 1.0 / beta2) * hbar * w
    coeff = np.broadcast_to(coeff, (len(lat.m_values),) + coeff.shape).ravel()
    i1, i2 = pairs.reshape(-1, 2).T
    worst_cross = _worst([
        np.abs(np.asarray(E_rl[a, b]).ravel() - coeff).max() for a, b in ((i1, i2), (i2, i1))
    ])
    results.append(
        RelationResult(
            "basis: R/L energy cross-term = (1/4)(1+beta^2)(1-1/beta^2) hbar w",
            float(np.divide(worst_cross, scale)),
            tol,
            "beta = c kz/omega per node; symmetric (Hermitian) cross term; "
            f"residual relative to |E in R/L|max = {scale:.6g}",
        )
    )

    ratios = np.logspace(-3, -1, 9)
    mags = []
    for r in ratios:
        one = build_lattice((-2, 2), [r], [1.0], c=c, hbar=hbar)
        E_one = apply_basis(assemble(one, "energy"), make_rl_map(one))
        mags.append(_offdiag_norm(E_one))
    slope = np.polyfit(np.log(ratios), np.log(mags), 1)[0]
    results.append(
        RelationResult(
            "basis: paraxial off-diagonal energy ~ (kp/kz)^2",
            abs(slope - 2.0),
            0.05,
            f"log-log slope {slope:.6f} over kp/kz in [1e-3, 1e-1]; the slope is dimensionless",
        )
    )
    return _sorted(results)


# ---------------------------------------------------------------------------
# Quadrature suite (wavepacket-smeared volume integrals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WavepacketSpec:
    """Gaussian envelope in (k_perp, k_z) around a carrier Bessel mode."""

    family: str
    m: int
    k_perp_center: float
    k_perp_width: float
    k_z_center: float
    k_z_width: float

    def __post_init__(self):
        if self.k_perp_width <= 0 or self.k_z_width <= 0:
            raise ValueError("widths must be positive")
        (kp_lo, _), (kz_lo, kz_hi) = self.support()
        if kp_lo <= 0:
            raise ValueError("k_perp support (+/-5 widths) must stay positive")
        if kz_lo <= 0 <= kz_hi:
            raise ValueError("k_z support (+/-5 widths) must not cross zero")
        if self.family not in (TM, TE):
            raise ValueError("unknown family")

    def support(self):
        """((k_perp lo, hi), (k_z lo, hi)): +/-5 widths around the centre,
        the k-range every quadrature over the envelope covers."""
        return (
            (self.k_perp_center - 5 * self.k_perp_width, self.k_perp_center + 5 * self.k_perp_width),
            (self.k_z_center - 5 * self.k_z_width, self.k_z_center + 5 * self.k_z_width),
        )

    def envelope(self, kp, kz):
        return np.exp(
            -((kp - self.k_perp_center) ** 2) / (2 * self.k_perp_width**2)
            - ((kz - self.k_z_center) ** 2) / (2 * self.k_z_width**2)
        )


@dataclass(frozen=True)
class QuadratureDomain:
    """Finite cylinder |z| <= Z, rho <= R with composite quadrature counts."""

    R: float
    Z: float
    n_radial: int
    n_axial: int = 0  # sizes nothing (the axial kernel is exact); perfbench's self-test passes it

    def __post_init__(self):
        if min(self.R, self.Z) <= 0 or self.n_radial < 1:
            raise ValueError("QuadratureDomain needs positive extents and counts")


def default_domain(wp: WavepacketSpec, scale=1.0):
    """Cylinder sized to the Gaussian spatial decay of the wavepacket:
    8 decay lengths radially and axially, times `scale`.

    The radial rule is one 24-node Gauss-Legendre panel per two periods
    of J(k_perp,max rho), at least 8 panels.  On the suite's three domains
    (the carrier packet's at scale 1 and 1.5, and the energy packet's)
    every radial kernel matches a grid of 4x the nodes to 4e-15 of its
    largest entry; one panel per four periods misses by 4.8e-12 on the
    energy packet's domain.
    """
    R = 8.0 / wp.k_perp_width * scale
    Z = 8.0 / wp.k_z_width * scale
    kp_max = wp.support()[0][1]
    n_rad = int(24 * max(8, math.ceil(kp_max * R / (4 * math.pi))))
    return QuadratureDomain(R, Z, n_rad)


class _Component(NamedTuple):
    """One e_pol component of a smeared field: coeff(k) J_order(kp rho)
    rho^rho_pow z^z_pow e^{i kz z} e^{i azim phi}."""

    pol: str
    azim: int
    order: int
    rho_pow: int
    z_pow: int
    coeff: np.ndarray


class SmearedField(NamedTuple):
    """Wavepacket superposition of Bessel modes on a Gauss-Legendre k-grid."""

    kp_nodes: np.ndarray
    kp_w: np.ndarray
    kz_nodes: np.ndarray
    kz_w: np.ndarray
    comps: tuple

    def conj(self):
        """The complex-conjugate field: J is real, so e_pol flips, azim, kz and the
        phase of coeff change sign; kp_nodes and the weights are the same arrays."""
        comps = tuple(c._replace(pol=_FLIP[c.pol], azim=-c.azim, coeff=np.conj(c.coeff)) for c in self.comps)
        return self._replace(kz_nodes=-self.kz_nodes, comps=comps)


def smear_mode(which, wp: WavepacketSpec, n_kp, n_kz):
    """Smeared M, N, E or B field of the carrier family/m of `wp`, c = hbar = 1.

    E and B carry the normalization amplitude; M and N are bare.
    The k-grids are composite Gauss-Legendre: when the field feeds a
    finite-volume integral the node counts must resolve the sin(dk R)/dk
    structure of the truncated overlap kernels (see k_counts).
    """
    kp_support, kz_support = wp.support()
    kp, wkp = _panels(*kp_support, n_kp)
    kz, wkz = _panels(*kz_support, n_kz)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    g = wp.envelope(KP, KZ)
    if which in ("M", "N"):
        vector, pref = which, 1.0
    elif which in ("E", "B"):
        vector, sign = FIELD_RULE[which, wp.family]
        pref = sign(NormalizationConvention().amplitude_grid(KP, KZ))
    else:
        raise ValueError("which must be one of M, N, E, B")
    comps = tuple(
        _Component(pol, order, order, 0, 0, coeff * pref * g)
        for pol, order, coeff in mode_terms(vector, wp.m, KP, KZ)
    )
    return SmearedField(kp, wkp, kz, wkz, comps)


def k_counts(wp: WavepacketSpec, dom: QuadratureDomain, margin=QUAD_MARGIN):
    """Composite k-node counts resolving the finite-domain overlap kernels.

    The truncated radial/axial overlaps oscillate in the difference
    variable with period 2 pi / extent, so each k grid gets
    margin x (support width) x (extent) / (2 pi) panels of 24 nodes,
    rounded up, and at least 4 panels.
    """
    n_kp = 24 * max(4, math.ceil(margin * 10 * wp.k_perp_width * dom.R / (2 * math.pi)))
    n_kz = 24 * max(4, math.ceil(margin * 10 * wp.k_z_width * dom.Z / (2 * math.pi)))
    return n_kp, n_kz


def apply_L_plus(F: SmearedField):
    """L_+ = e^{i phi}[z(d_rho + (i/rho) d_phi) - rho d_z], applied exactly.

    On a component J_a(kp rho) e^{i a phi} e^{i kz z} the angular ladder
    collapses by the Bessel recurrence to
    -kp z J_{a+1} e^{i(a+1)phi} - i kz rho J_a e^{i(a+1)phi}.
    """
    KP, KZ = np.meshgrid(F.kp_nodes, F.kz_nodes, indexing="ij")
    out = []
    for comp in F.comps:
        if comp.rho_pow or comp.z_pow or comp.azim != comp.order:
            raise ValueError("L+ supported on bare mode components only")
        a = comp.order
        out.append(_Component(comp.pol, a + 1, a + 1, 0, 1, -KP * comp.coeff))
        out.append(_Component(comp.pol, a + 1, a, 1, 0, -1j * KZ * comp.coeff))
    return F._replace(comps=tuple(out))


# e_pol pairing tables: (pol1, pol2) -> (e_pol of the product, coefficient).
# conj(e_-) = e_+ etc.; e_- . e_+ = 2, e_3 . e_3 = 1; the dot product is the
# scalar "" entry.
_DOT = {("-", "+"): ("", 2.0), ("+", "-"): ("", 2.0), ("3", "3"): ("", 1.0)}
_CROSS = {
    ("-", "+"): ("3", 2j),
    ("+", "-"): ("3", -2j),
    ("-", "3"): ("-", -1j),
    ("3", "-"): ("-", 1j),
    ("+", "3"): ("+", 1j),
    ("3", "+"): ("+", -1j),
}
_FLIP = {"-": "+", "+": "-", "3": "3"}


class _CylinderQuadrature:
    """Kernels on the finite cylinder: Gauss-Legendre radially, closed form axially.

    The radial kernel's Bessel tables live in `tables` and die with the quadrature.
    """

    def __init__(self, dom: QuadratureDomain):
        self.dom = dom
        self.rho, self.w_rho = _panels(0.0, dom.R, dom.n_radial)
        self.tables = {}

    def radial(self, F1, F2, o1, o2, p):
        """int_0^R J_o1(kp rho) J_o2(kp' rho) rho^(1+p) drho as a matrix."""
        K1 = specfun.bessel_j_outer(o1, F1.kp_nodes, self.rho, self.tables)
        K2 = specfun.bessel_j_outer(o2, F2.kp_nodes, self.rho, self.tables)
        wt = self.w_rho * self.rho ** (1 + p)
        return (K1 * wt) @ K2.T

    def axial(self, F1, F2, q):
        """int_-Z^Z z^q e^{i kappa z} dz with kappa = kz + kz', exactly, as a matrix.

        int_-1^1 P_n(t) e^{ixt} dt = 2 i^n j_n(x) (DLMF 10.54.2) gives 2Z j_0(kappa Z)
        for q = 0 and 2i Z^2 j_1(kappa Z) for q = 1.  scipy's spherical_jn stays
        accurate as kappa Z -> 0, so no series branch is needed.
        """
        Z = self.dom.Z
        x = np.add.outer(F1.kz_nodes, F2.kz_nodes) * Z
        if q == 0:
            return 2 * Z * spherical_jn(0, x)
        if q == 1:
            return 2j * Z * Z * spherical_jn(1, x)
        raise ValueError(f"the axial kernel is closed-form for z powers 0 and 1, got {q}")


@functools.lru_cache(maxsize=None)
def _legendre_rule(n):
    """(nodes, weights) of the n-point Gauss-Legendre rule on [-1, 1], read-only.

    numpy's leggauss, not scipy's roots_legendre, whose first call imports
    scipy.linalg (about 60 ms of a fresh process)."""
    rule = leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def _panels(a, b, n_total, per_panel=24):
    n_panels = max(1, int(math.ceil(n_total / per_panel)))
    xs, ws = [], []
    edges = np.linspace(a, b, n_panels + 1)
    gx, gw = _legendre_rule(per_panel)
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (hi - lo) * gx + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * gw)
    return np.concatenate(xs), np.concatenate(ws)


def _volume_integral(F1, F2, quad: _CylinderQuadrature, table):
    """int F1 (table product) F2 dV as {e_pol: coefficient}; azimuthal integral exact."""
    out = {pol: 0.0 + 0.0j for pol, _ in table.values()}
    for c1 in F1.comps:
        for c2 in F2.comps:
            pair = table.get((c1.pol, c2.pol))
            if pair is None or c1.azim + c2.azim != 0:
                continue
            rad = quad.radial(F1, F2, c1.order, c2.order, c1.rho_pow + c2.rho_pow)
            ax = quad.axial(F1, F2, c1.z_pow + c2.z_pow)
            G1 = c1.coeff * F1.kp_w[:, None] * F1.kz_w[None, :]
            G2 = c2.coeff * F2.kp_w[:, None] * F2.kz_w[None, :]
            out[pair[0]] += 2 * math.pi * pair[1] * np.einsum("ab,cd,ac,bd->", G1, G2, rad, ax, optimize=True)
    return out


def volume_dot(F1, F2, quad: _CylinderQuadrature, conjugate=True):
    """int F1 . F2* dV over the cylinder (F1 . F2 with conjugate=False)."""
    return _volume_integral(F1, F2.conj() if conjugate else F2, quad, _DOT)[""]


def volume_cross(F1, F2, quad: _CylinderQuadrature, conjugate=True):
    """int F1 x F2* dV (F1 x F2 with conjugate=False) as {'-': c-, '+': c+, '3': c3}
    e_pol coefficients."""
    return _volume_integral(F1, F2.conj() if conjugate else F2, quad, _CROSS)


def _envelope_nodes(wp):
    """(KP, KZ, wkp, wkz): a 64 x 64 Gauss-Legendre grid over the support of `wp`."""
    kp_support, kz_support = wp.support()
    kp, wkp = _panels(*kp_support, 64, per_panel=64)
    kz, wkz = _panels(*kz_support, 64, per_panel=64)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    return KP, KZ, wkp, wkz


def _pair_integral(wp, weight):
    """int dkp dkz |g(k)|^2 weight(kp, kz) over the support of `wp`."""
    KP, KZ, wkp, wkz = _envelope_nodes(wp)
    g = wp.envelope(KP, KZ)
    return np.einsum("a,b,ab->", wkp, wkz, g * np.conj(g) * weight(KP, KZ))


def _lplus_analytic(wp_m, wp_mp):
    """Envelope form of the L+ matrix element int M'* . (L+ M) dV.

    The distributional identity (with m' = m+1)
        i (2pi)^2 (w w'/(kp kz kz')) [kp d_kz - kz d_kp - m kz/kp] delta delta
    is integrated by parts against the envelopes: with u = g w/(kp kz),
        I = i (2pi)^2 int dk conj(h) (w/kz) [ -d_kz(kp u) + d_kp(kz u) - m (kz/kp) u ]
    over the support of `wp_m`.
    """
    m = wp_m.m
    KP, KZ, wkp, wkz = _envelope_nodes(wp_m)
    W = np.hypot(KP, KZ)
    g = wp_m.envelope(KP, KZ)
    h = wp_mp.envelope(KP, KZ)
    # analytic partials of u = g w/(kp kz): Gaussian envelope derivatives
    dg_dkp = -(KP - wp_m.k_perp_center) / wp_m.k_perp_width**2 * g
    dg_dkz = -(KZ - wp_m.k_z_center) / wp_m.k_z_width**2 * g
    u = g * W / (KP * KZ)
    du_dkp = dg_dkp * W / (KP * KZ) + g * (KP / W / (KP * KZ) - W / (KP**2 * KZ))
    du_dkz = dg_dkz * W / (KP * KZ) + g * (KZ / W / (KP * KZ) - W / (KP * KZ**2))
    d_kz_kp_u = KP * du_dkz  # d/dkz (kp u)
    d_kp_kz_u = KZ * du_dkp  # d/dkp (kz u)
    integrand = np.conj(h) * (W / KZ) * (-d_kz_kp_u + d_kp_kz_u - m * (KZ / KP) * u)
    return 1j * (2 * math.pi) ** 2 * np.einsum("a,b,ab->", wkp, wkz, integrand)


class _PassFields(dict):
    """One pass's smeared fields by name, each smeared when first read.

    `packets` maps a name to the (which, packet) that smear_mode takes; "LM"
    is L+ applied to this pass's "M1".  The k-grids resolve the domain of `quad`.
    """

    def __init__(self, packets, quad: _CylinderQuadrature, margin):
        super().__init__()
        self.packets, self.quad, self.margin = packets, quad, margin

    def __missing__(self, name):
        if name == "LM":
            field = apply_L_plus(self["M1"])
        else:
            which, wp = self.packets[name]
            field = smear_mode(which, wp, *k_counts(wp, self.quad.dom, self.margin))
        self[name] = field
        return field


def _contract(F: _PassFields, f1, f2, product, conjugate):
    """{e_pol: coefficient} of int F[f1] . F[f2]* dV (product "dot", under the
    "" key) or of int F[f1] x F[f2]* dV ("cross"); conjugate=False contracts
    with F[f2] itself."""
    if product == "dot":
        return {"": volume_dot(F[f1], F[f2], F.quad, conjugate)}
    return volume_cross(F[f1], F[f2], F.quad, conjugate)


def quadrature_suite(rel_tol=QUAD_REL_TOL, margin=QUAD_MARGIN):
    """Wavepacket-smeared volume integrals over a finite cylinder.

    The carrier packet is TM, m = 2, centered at (k_perp, k_z) = (1, 2)
    with widths (0.08, 0.12).  Each relation compares a direct volume
    integral (exact azimuthally, Gauss-Legendre radially, closed form
    axially) with the analytic value obtained by applying the
    delta-normalized product formulas to the Gaussian envelopes.

    The relations are one table, evaluated one pass at a time: a coarse
    pass on the default domain, then a refinement pass (default_domain at
    scale 1.5, with every k-grid rebuilt to match via k_counts).  A pass
    smears a field when a relation first reads it and drops its fields
    before the next pass starts.  A table relation reports its fine value, and
    |fine - coarse| is its convergence estimate; relations whose estimate
    exceeds the tolerance are reported inconclusive.  The structural
    zeros (the m != m' scalar product, M x M'*, N x N'* and the symmetric
    non-conjugated cross combination) are evaluated on the coarse pass
    alone: they vanish at every resolution, by the exact azimuthal integral
    or by cancellation between product terms, so refinement cannot move
    them and they carry no estimate.
    """
    wp1 = WavepacketSpec(TM, 2, 1.0, 0.08, 2.0, 0.12)
    wp_up = replace(wp1, m=wp1.m + 1, k_perp_center=1.05 * wp1.k_perp_center,
                    k_z_center=0.95 * wp1.k_z_center)
    up = replace(wp1, m=wp1.m + 1)
    rev = replace(wp1, m=-wp1.m, k_z_center=-wp1.k_z_center)
    packets = {
        "M1": ("M", wp1),
        "N1": ("N", wp1),
        "M_up": ("M", up),
        "M_dn": ("M", replace(wp1, m=wp1.m - 1)),
        "N_up": ("N", up),
        "M_rev": ("M", rev),
        "N_rev": ("N", rev),
        "Mp": ("M", wp_up),
        "Mf": ("M", replace(wp1, m=-wp1.m - 1, k_z_center=-wp1.k_z_center)),
    }

    scalar_weight = lambda KP, KZ: (KP**2 + KZ**2) / (KP * KZ**2)
    ana_diag = (2 * math.pi) ** 2 * _pair_integral(wp1, scalar_weight)
    scale = abs(ana_diag)
    vec_weight = lambda KP, KZ: np.hypot(KP, KZ) / KZ**2
    ana_vec = (2 * math.pi) ** 2 * _pair_integral(wp1, vec_weight)
    ana_vec3 = (2 * math.pi) ** 2 * _pair_integral(wp1, lambda KP, KZ: np.hypot(KP, KZ) / (KP * KZ))
    vscale = abs(ana_vec)
    ana_L = _lplus_analytic(wp1, wp_up)
    lscale = max(abs(ana_L), scale)
    flagged, companion = _flagged("quadrature")
    printed = flagged.removeprefix("quadrature: ")

    # (name, (field, field, product, e_pol, conjugate), analytic value, scale, notes)
    table = [
        # (a) scalar orthonormality, same m; (b) cross family
        ("int M.M'* dV = (2pi)^2 int g g'* w^2/(kp kz^2)", ("M1", "M1", "dot", "", True),
         ana_diag, scale, "same-envelope diagonal"),
        ("int N.N'* dV = (2pi)^2 int g g'* w^2/(kp kz^2)", ("N1", "N1", "dot", "", True),
         ana_diag, scale, "same-envelope diagonal"),
        ("int M.N'* dV = 0", ("M1", "N1", "dot", "", True),
         0.0, scale, "cross-family scalar product, same m"),
        # (c) vector products: int N x M'* with m' = m, m+1, m-1 picks e3, e-, e+
        ("int N x M'* dV, m'=m: e3 coefficient = (2pi)^2 int g g'* w/(kp kz)",
         ("N1", "M1", "cross", "3", True), ana_vec3, vscale, ""),
        ("int N x M'* dV, m'=m+1: e- coefficient = (i/2)(2pi)^2 int g g'* w/kz^2",
         ("N1", "M_up", "cross", "-", True), 0.5j * ana_vec, vscale, "selection rule delta_{m+1,m'}"),
        ("int N x M'* dV, m'=m-1: e+ coefficient = -(i/2)(2pi)^2 int g g'* w/kz^2",
         ("N1", "M_dn", "cross", "+", True), -0.5j * ana_vec, vscale, "selection rule delta_{m-1,m'}"),
        # (e) L+ matrix element against the envelope-derivative analytic form
        ("int M'* . (L+ M) dV = envelope-derivative form, m' = m+1", ("LM", "Mp", "dot", "", True),
         ana_L, lscale, "delta' product formula integrated by parts against the envelopes"),
        # (f) the non-conjugated L+ product is claimed to vanish because every
        # delta is multiplied by its argument; the delta-derivative terms break
        # that argument (x delta'(x) = -delta(x)), so with a counter-propagating
        # partner the integral converges to a nonzero value.
        (printed, ("Mf", "LM", "dot", "", False), 0.0, lscale,
         "x delta'(x) = -delta(x): the delta-derivative terms survive; "
         "partner centered at (-m-1, -kz); value converged under refinement"),
    ]
    # structural zeros, (name, contractions, scale, tolerance, notes): the
    # residual is the largest |first - the others| over the e_pol coefficients
    nothing = "; contracts nothing: the azimuthal rule leaves no component pair, so the residual is 0"
    zeros = [
        ("int M.M'* dV = 0 for m != m'", [("M1", "M_up", "dot", True)],
         scale, AZIMUTHAL_TOL, "azimuthal integral is performed exactly" + nothing),
        # (d) vanishing vector products
        ("int M x M'* dV = 0", [("M1", "M_up", "cross", True)],
         vscale, rel_tol, "all e_pol coefficients" + nothing),
        ("int N x N'* dV = 0", [("N1", "N_up", "cross", True)],
         vscale, rel_tol, "all e_pol coefficients"),
        # symmetric non-conjugated combination, counter-propagating partner
        ("int (M x N' - N x M') dV = 0", [("M1", "N_rev", "cross", False), ("N1", "M_rev", "cross", False)],
         vscale, rel_tol, "non-conjugated, partner centered at (-m, -kz)"),
    ]

    results = []
    coarse, fine = {}, {}
    for values, size in ((coarse, 1.0), (fine, 1.5)):
        # rebinding F drops the previous pass's fields and Bessel tables before
        # this pass smears any
        F = _PassFields(packets, _CylinderQuadrature(default_domain(wp1, size)), margin)
        for name, (f1, f2, product, pol, conjugate), *_ in table:
            values[name] = _contract(F, f1, f2, product, conjugate)[pol]
        if values is coarse:
            for name, contractions, sc, tol, notes in zeros:
                first, *others = (_contract(F, *c) for c in contractions)
                resid = max(abs(v - sum(o[k] for o in others)) for k, v in first.items()) / sc
                results.append(RelationResult("quadrature: " + name, resid, tol, notes))
    del F  # the energy check below runs without the fine pass's fields and tables
    for name, _, analytic, sc, notes in table:
        est = abs(fine[name] - coarse[name]) / sc
        results.append(
            RelationResult("quadrature: " + name, abs(fine[name] - analytic) / sc, rel_tol,
                           f"convergence estimate {est:.3e}; " + notes,
                           inconclusive=bool(est > rel_tol))
        )

    # computed companion: M*_{m,kz} = (-1)^m M_{-m,-kz} maps the
    # non-conjugated product onto the conjugated matrix element of the
    # kz-reflected partner packet.
    ana_refl = (-1.0) ** (wp1.m + 1) * _lplus_analytic(wp1, up)
    results.append(
        RelationResult(
            companion,
            abs(fine[printed] - ana_refl) / max(abs(ana_refl), scale),
            rel_tol,
            "reflection identity M*_{m,kz} = (-1)^m M_{-m,-kz}",
        )
    )

    # (g) energy per photon of a narrow wavepacket
    results.append(energy_per_photon_check(margin))
    return _sorted(results)


def energy_per_photon_check(margin=QUAD_MARGIN):
    """(1/4pi) int (|E|^2 + |B|^2) dV = hbar * mean(omega) for a unit packet,
    to 1% for a TM, m = 1 packet of relative width 0.02 at (1, 2)."""
    wp = WavepacketSpec(TM, 1, 1.0, 0.02, 2.0, 0.04)
    F = _PassFields({"E": ("E", wp), "B": ("B", wp)}, _CylinderQuadrature(default_domain(wp)), margin)
    # a unit packet: the energy is divided by the envelope norm int |g|^2 dk
    nrm = _pair_integral(wp, lambda KP, KZ: np.ones_like(KP))
    omega_bar = _pair_integral(wp, lambda KP, KZ: np.hypot(KP, KZ)) / nrm
    field_sq = _contract(F, "E", "E", "dot", True)[""] + _contract(F, "B", "B", "dot", True)[""]
    energy = field_sq.real / (4 * math.pi * abs(nrm))
    resid = abs(energy - omega_bar.real) / omega_bar.real
    return RelationResult(
        "quadrature: energy per photon = hbar * mean omega",
        resid,
        0.01,
        f"relative width 0.02; measured {energy:.6f} vs mean omega {omega_bar.real:.6f}",
    )


# ---------------------------------------------------------------------------
# Spherical suite
# ---------------------------------------------------------------------------


# The VSH formula lives in specfun; perfbench's tracer wraps it here by this name.
_vsh_grid = specfun.vsh_grid


def expansion_coefficients(which, m, k_perp, k_z, j, c=1.0, m_j=None):
    """(alpha_E, alpha_M): coefficients of the spherical angular profiles.

    Defined by  F(r) = sum_j [alpha_E V^E_j + alpha_M V^M_j](r)  with
    V^(i)_j(r) = int dOmega Y^(i)_jm(n) e^{i k n . r}, obtained by
    projecting the plane-wave cone density of M or N onto the transverse
    harmonics of order m_j (default m; they are orthogonal with norm
    1/(j(j+1))).  For m_j != m the projections vanish up to rounding.
    """
    m_j = m if m_j is None else m_j
    if j < max(1, abs(m_j)):
        return 0.0 + 0.0j, 0.0 + 0.0j
    omega = c * math.hypot(k_perp, k_z)
    theta0 = math.acos(c * k_z / omega)
    n_phi = 8 * (abs(m) + j + 4)
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    ring = cone_density(which, m, k_perp, k_z, phis, c)
    ye, ym = _vsh_grid(j, m_j, np.full(n_phi, theta0), phis)
    step = 2 * math.pi / n_phi
    accE = np.sum(ring * np.conj(ye))
    accM = np.sum(ring * np.conj(ym))
    return j * (j + 1) * accE * step, j * (j + 1) * accM * step


def printed_uv(m, k_perp, k_z, j, c=1.0):
    """The printed closed forms of the expansion coefficients u and v.

    Delta-stripped: the factor delta(|k| - omega) delta_{m, m_j} is removed
    and the remaining smooth coefficient at m_j = m returned.
    """
    if j < max(1, abs(m)):
        return 0.0 + 0.0j, 0.0 + 0.0j
    omega = c * math.hypot(k_perp, k_z)
    x = c * k_z / omega
    norm = math.sqrt(
        (2 * j + 1) * math.factorial(j - abs(m)) / (4 * math.pi * math.factorial(j + abs(m)))
    )
    phase = (-1.0) ** (m + (m + abs(m)) // 2) * (1j) ** (m + j)
    pref = 4 * math.pi**2 * phase * norm * math.sqrt(c) * k_perp / (k_z * math.sqrt(omega))
    u = -pref * (c / omega) * float(specfun.assoc_legendre_prime(j, abs(m), x))
    v = pref * (1j * m * omega / (c * k_perp)) * float(specfun.assoc_legendre(j, abs(m), x))
    return u, v


def _spherical_wave_pair(j, m, omega, points, c=1.0):
    """(V^E_j, V^M_j)(r), V^(i)_j = int dOmega Y^(i)_jm(n) e^{i (omega/c) n . r}, closed form.

    Rayleigh's plane-wave expansion (Jackson, Classical Electrodynamics,
    ch. 9) gives, with k = omega/c, r > 0 and n = r/|r|,
        V^M_j = 4 pi i^j j_j(kr) Y^M_jm(n),
        V^E_j = 4 pi i^(j+3) [(j_j/kr) Y_jm(n) n + (j_j/kr + j_j') Y^E_jm(n)].
    `points` is one Cartesian point or an array of them, shaped (..., 3);
    both returned arrays have that shape.
    """
    points = np.asarray(points, dtype=float)
    # libm scalar calls per point keep r, theta, phi bit-identical however many points come
    r, theta, phi = np.array([
        (math.sqrt(x * x + y * y + z * z), math.atan2(math.hypot(x, y), z), math.atan2(y, x))
        for x, y, z in points.reshape(-1, 3).tolist()
    ]).T.reshape((3,) + points.shape[:-1])
    kr = omega * r / c
    ye, ym = _vsh_grid(j, m, theta, phi)
    jj, jp = spherical_jn(j, kr), spherical_jn(j, kr, derivative=True)
    n_hat = points / r[..., None]
    radial = ((jj / kr) * specfun.spherical_harmonic(j, m, theta, phi))[..., None]
    ve = 4 * math.pi * 1j ** (j + 3) * (radial * n_hat + (jj / kr + jp)[..., None] * ye)
    vm = 4 * math.pi * 1j**j * jj[..., None] * ym
    return ve, vm


def partial_sums(which, m, k_perp, k_z, points, j_max, c=1.0):
    """Truncated spherical sums of M or N at Cartesian points.

    `points` is one point (x, y, z) or an array of them, shaped (..., 3).
    Yields (j, alpha_E, alpha_M, sum of the terms of degree <= j) for
    j = max(1, |m|) .. j_max; the sum has the shape of `points`.  The
    coefficients do not depend on the point, so each degree computes them once.
    A bare point's sums may differ in the last bit from its sums inside an
    array, since numpy rounds scalar and array complex products apart (README).
    """
    omega = c * math.hypot(k_perp, k_z)
    total = np.zeros(np.shape(points), dtype=complex)
    for j in range(max(1, abs(m)), j_max + 1):
        aE, aM = expansion_coefficients(which, m, k_perp, k_z, j, c)
        ve, vm = _spherical_wave_pair(j, m, omega, points, c=c)
        total = total + aE * ve + aM * vm
        yield j, aE, aM, total


def spherical_suite(tol=SPHERICAL_TOL):
    """Angular-spectrum and spherical-expansion checks on the m = 2 mode at
    (k_perp, k_z) = (1, 2), with spherical sums up to j = 60.

    (a) scalar and vector plane-wave angular spectra reproduce the
        closed-form modes; (b) the printed u, v closed forms are compared
        against projection-derived expansion coefficients; (c) N and M are
        reconstructed from truncated spherical sums; (d) the
        spherical-basis angular momentum satisfies su(2).
    """
    c = 1.0
    j_max, m, k_perp, k_z = 60, 2, 1.0, 2.0
    results = []

    # (a) scalar identity
    worst = 0.0
    for rho, phi in [(0.3, 0.0), (1.1, 0.7), (2.4, -1.9), (5.0, 2.2)]:
        lhs = scalar_angular_spectrum(m, k_perp, rho, phi)
        rhs = specfun.bessel_j(m, k_perp * rho) * np.exp(1j * m * phi)
        worst = max(worst, abs(lhs - rhs))
    results.append(
        RelationResult(
            "spherical: scalar angular-spectrum identity", worst, 1e-10, "4 sample radii"
        )
    )
    worst = 0.0
    for rho, phi, z in [(0.4, 0.3, 0.2), (1.7, -0.8, 1.0)]:
        p = CylPoint(rho, phi, z, 0.13)
        for which, evaluator in (("M", eval_M), ("N", eval_N)):
            spec, _ = angular_spectrum(which, m, k_perp, k_z, p, c=c)
            direct = evaluator(m, k_perp, k_z, p, c=c)
            worst = max(worst, float(np.abs(spec.components - direct).max()))
    results.append(
        RelationResult(
            "spherical: vector angular-spectrum identity", worst, 1e-10, "M and N, 2 points"
        )
    )

    # (b) printed u, v against projection coefficients
    ratio_u, ratio_v = [], []
    j_range = range(max(1, abs(m)), max(1, abs(m)) + 10)
    sel_worst = coeff_max = 0.0
    for j in j_range:
        aE, aM = expansion_coefficients("N", m, k_perp, k_z, j, c)
        u, v = printed_uv(m, k_perp, k_z, j, c)
        coeff_max = max(coeff_max, abs(aE), abs(aM))
        for mj in (m - 1, m + 1):
            off_E, off_M = expansion_coefficients("N", m, k_perp, k_z, j, c, m_j=mj)
            sel_worst = max(sel_worst, abs(off_E), abs(off_M))
        if abs(u) > 1e-12:
            ratio_u.append(aE / u)
        if abs(v) > 1e-12:
            ratio_v.append(aM / v)
    results.append(
        RelationResult(
            "spherical: u, v selection rule m_j = m",
            sel_worst / coeff_max,
            1e-12,
            f"printed factor delta_(m,m_j): projections onto Y_(j,m+/-1), j = {j_range[0]}.."
            f"{j_range[-1]}, relative to the largest |alpha_E|, |alpha_M| at m_j = m",
        )
    )
    mag_u = np.array([abs(r) for r in ratio_u])
    mag_v = np.array([abs(r) for r in ratio_v])
    results.append(
        RelationResult(
            "spherical: |u_j| proportional to |projection E-coefficient|",
            float(mag_u.std() / mag_u.mean()),
            1e-10,
            f"constant magnitude ratio {mag_u.mean():.6g} across j",
        )
    )
    results.append(
        RelationResult(
            "spherical: |v_j| proportional to |projection M-coefficient|",
            float(mag_v.std() / mag_v.mean()),
            1e-10,
            f"constant magnitude ratio {mag_v.mean():.6g} across j",
        )
    )
    phase_u = np.array(ratio_u) / ratio_u[0]
    drift = float(np.abs(phase_u[1:] * 1j ** np.arange(1, len(phase_u)) - 1.0).max())
    flagged, companion = _flagged("spherical")
    results.append(
        RelationResult(
            flagged,
            float(np.abs(phase_u[1:] - 1.0).max()),
            1e-10,
            "printed phase factor i^(m+j) drifts by a factor i per j against the "
            f"projection value; removing i^j leaves residual {drift:.3e}, and the "
            "u and v magnitude ratios agree, so the j-dependent phase is the only "
            "discrepancy",
        )
    )
    results.append(
        RelationResult(
            companion,
            drift,
            1e-10,
            "the printed phase factor i^(m+j) with i^j removed: projection over printed u, "
            f"j = {j_range[0]}..{j_range[-1]}, relative to its value at j = {j_range[0]}",
        )
    )

    # (c) truncated reconstruction at sample points with k_perp * rho <= 2
    samples = [(0.5 / k_perp, 0.2, 0.3), (1.5 / k_perp, -0.4, 0.1), (2.0 / k_perp, 1.0, -0.5)]
    points = [(rho * math.cos(phi), rho * math.sin(phi), z) for rho, phi, z in samples]
    worst = 0.0
    checkpoints = tuple(sorted({j_max // 2, 3 * j_max // 4, j_max}))
    tail = []
    for which, evaluator in (("N", eval_N), ("M", eval_M)):
        partial = {
            j: total
            for j, _, _, total in partial_sums(which, m, k_perp, k_z, points, j_max, c)
            if j in checkpoints
        }
        for i, (rho, phi, z) in enumerate(samples):
            direct = evaluator(m, k_perp, k_z, CylPoint(rho, phi, z, 0.0), c=c)
            ref = float(np.abs(direct).max())
            worst = max(worst, float(np.abs(partial[j_max][i] - direct).max() / ref))
            tail.append([float(np.abs(partial[j][i] - direct).max() / ref) for j in checkpoints])
    tail_max = np.max(tail, axis=0)
    monotone = bool(np.all(np.diff(tail_max) <= 0))
    results.append(
        RelationResult(
            f"spherical: M, N reconstruction from spherical modes (j_max={j_max})",
            worst,
            tol,
            "relative max-abs error over sample points with k_perp*rho <= 2; "
            f"tail at j={list(checkpoints)}: {[f'{t:.2e}' for t in tail_max]} "
            f"(monotone decrease: {monotone})",
        )
    )

    # (d) su(2) algebra of the spherical-basis angular momentum
    L_plus, L_minus, L_3 = build_L_spherical(4)
    Lx = L_plus + L_minus
    Ly = 1j * (L_minus - L_plus)
    resid = _su2_residual(Lx, Ly, L_3, 1j)
    results.append(
        RelationResult(
            "spherical: [L_x, L_y] = i hbar L_z (spherical basis, j <= 4)",
            resid,
            STOKES_TOL,
            "hbar = 1",
        )
    )
    return _sorted(results)
