"""Numerical verification suites for the mode algebra and its field identities.

Four suites, each returning a deterministic list of RelationResult:

* commutator_suite -- the full table of commutators among P, L, S on a
  mode lattice, plus the per-node Stokes su(2) algebra, cross-checked
  against a brute-force realization on photon-number sectors.
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
from scipy.special import lpmv, sph_harm_y, spherical_jn

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
    cartesian,
    make_pm_map,
    make_rl_map,
)
from .modes import (
    FIELD_RULE,
    CylPoint,
    NormalizationConvention,
    I_POWERS,
    TE,
    TM,
    angular_spectrum,
    cone_density,
    eval_M,
    eval_N,
    mode_terms,
    omega,
    scalar_angular_spectrum,
)

ALG_TOL = 1e-12
STOKES_TOL = 1e-13
QUAD_REL_TOL = 1e-3
QUAD_MARGIN = 0.25  # k_counts margin; a larger one buys k-resolution for a tighter QUAD_REL_TOL
ENVELOPE_CUT = 5  # WavepacketSpec.support: +/- this many widths around the centre
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


# m-shifting bilinears develop O(1) boundary defects on a truncated m-window;
# all operator relations hold exactly on the interior block, this far from
# either edge.  Below width 7 that block holds no two m values 2 apart, so a
# relation whose sides shift m by 2 would restrict to nothing and pass vacuously.
INTERIOR_MARGIN = 2


# Every printed [A, B] = RHS as (name, A, B, RHS, provenance, notes), with A
# and B `build_observables` names.  RHS is None for 0, (x, observable) for
# x hbar times that observable, or (x, TERMS entry) for x times its grid-factor
# operator.  Provenance is canonical, printed (the source's own form) or
# computed (the normal form beside a flagged printed row).
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
    m_min, m_max = lat.m_range
    if m_max - m_min + 1 < 7:
        raise LatticeError(f"commutators need an m_range at least 7 wide, got {m_min}..{m_max}: "
                           "a narrower interior block holds no two m values 2 apart")
    obs = build_observables(lat)
    results, lhs = [], {}
    for name, a, b, rhs, provenance, notes in COMMUTATOR_TABLE:
        A, B = obs[a], obs[b]
        diff = lhs[a, b] = lhs.get((a, b)) or commutator(A, B)
        if rhs is not None:
            x, term = rhs
            diff = diff - (x * lat.hbar * obs[term] if term in obs else x * assemble(lat, term))
        # entries of [A, B] grow like |A|max |B|max with the lattice size
        scale = A.max_abs() * B.max_abs()
        resid = diff.max_abs(INTERIOR_MARGIN) / scale
        # a canonical row says so in its notes, as reports always have
        parts = ([provenance] if provenance == "canonical" else []) + ([notes] if notes else [])
        parts.append(f"residual relative to |A|max |B|max = {scale:.6g}")
        results.append(RelationResult("commutator: " + name, resid, tol, "; ".join(parts)))

    # Stokes su(2) on every (TM, TE) pair at once: the operators summed over
    # all (node, m) sit on disjoint index pairs, so the summed residual's
    # max-abs is the worst case over all (node, m)
    every_pair = build_stokes(lat, np.arange(len(lat.nodes)), np.array(lat.m_values)[:, None])
    results.append(RelationResult("commutator: stokes [sigma_i,sigma_j] = 2i eps_ijk sigma_k",
                                  _su2_residual(*every_pair[1:], 2j), STOKES_TOL,
                                  "worst case over all (node, m)"))

    results.append(_fock_cross_check(tol))
    return _sorted(results)


def _su2_residual(X1, X2, X3, unit):
    """max-abs of [X_i, X_j] - unit eps_ijk X_k over the three cyclic pairs of
    `QuadraticOperator`s or sparse coefficient matrices: unit is 2i for the
    Stokes operators and i (hbar = 1) for L.  [b^dag X b, b^dag Y b] =
    b^dag [X, Y] b, so this is the residual of the quadratic forms too."""
    cyclic = ((X1, X2, X3), (X2, X3, X1), (X3, X1, X2))
    residuals = [A @ B - B @ A - unit * C for A, B, C in cyclic]
    return max(R.max_abs() if isinstance(R, QuadraticOperator) else abs(R).max() for R in residuals)


def _fock_cross_check(tol):
    """Brute-force check of the quadratic commutator identity on a D=6 lattice.

    Every relation LHS is realized two ways on each photon-number sector:
    through the coefficient-matrix commutator and as the literal matrix
    commutator of the realized observables.  The forms conserve the photon
    number, so each sector is exact, with no truncation.
    """
    return RelationResult("commutator: fock-oracle cross-check (15 pairs, 1-3 photons)", _fock_residual(),
                          tol, "element-wise on every 1-, 2- and 3-photon state of a D=6 lattice")


# the commutators [A, B] that the Fock cross-check realizes
FOCK_PAIRS = (("P+", "P-"), ("P+", "P3"), ("S+", "S-"), ("P+", "S+"), ("L3", "P3"), ("S3", "L+"),
              ("L+", "L3"), ("L+", "L-"), ("L3", "P-"), ("L+", "P-"), ("L+", "P3"), ("L+", "P+"),
              ("S+", "L3"), ("S+", "L+"), ("S+", "L-"))


@functools.cache
def _fock_residual():
    """The cross-check's worst element; it reads no input, so once per process."""
    sides = _fock_sectors(build_lattice((-1, 1), [1.0], [2.0]))
    return max(float(np.abs(lhs - rhs).max()) for lhs, rhs in sides)


def _fock_sectors(lat: ModeLattice):
    """Both sides of every FOCK_PAIRS [A, B] on each sector N = 1..3, pair by pair: the
    realized coefficient commutator, and the commutator of the realized operators."""
    obs, oracle = build_observables(lat), FockOracle(lat, n_max=3)
    realized = {n: oracle.realize(obs[n]) for n in {n for pair in FOCK_PAIRS for n in pair}}
    for a, b in FOCK_PAIRS:
        lhs, A, B = oracle.realize(commutator(obs[a], obs[b])), realized[a], realized[b]
        for N in oracle.sectors:
            yield lhs[N], A[N] @ B[N] - B[N] @ A[N]


# ---------------------------------------------------------------------------
# Basis suite
# ---------------------------------------------------------------------------


def _offdiag(A: QuadraticOperator):
    """A's terms off the diagonal, those that shift m or mix families, as an operator."""
    return QuadraticOperator(A.lattice, {key: v for key, v in A.terms.items() if key[0] != key[1] or key[2]})


# k_perp / k_z of the paraxial law's nodes, two decades below 0.1
PARAXIAL_RATIOS = np.logspace(-3, -1, 9)


@functools.cache
def _paraxial_offdiag(hbar, c):
    """Per-node max |off-diagonal entry| of the energy in the R/L basis, read-only, on
    one lattice whose k_perp nodes are PARAXIAL_RATIOS (k_z = 1, m -2..2).

    The R/L map and the energy act within each node, so each node's column of
    the mapped energy's terms holds the numbers of a one-node lattice."""
    lat = build_lattice((-2, 2), PARAXIAL_RATIOS, [1.0], c=c, hbar=hbar)
    off = _offdiag(apply_basis(assemble(lat, "energy"), make_rl_map(lat)))
    worst = np.max([np.abs(v).max(axis=0) for v in off.terms.values()], axis=0, initial=0.0)
    worst.flags.writeable = False
    return worst


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
    obs = {name: assemble(lat, name) for name in ("energy", "P3", "L3", "S3")}
    size = {name: A.max_abs() for name, A in obs.items()}
    worst = _worst([np.divide(commutator(obs[a], obs[b]).max_abs(), size[a] * size[b])
                    for a, b in itertools.combinations(obs, 2)])
    results = [RelationResult("basis: {E,P3,L3,S3} mutually commute", worst, tol,
                              "residual relative to |A|max |B|max of each pair")]

    pm = make_pm_map(lat)
    results.append(RelationResult("basis: (+/-) map is unitary", pm.unitarity_residual, tol,
                                  "max |T^dag T - I|; T is dimensionless, scale 1"))
    # (m, node) grids; the (+) combination sits in the TM slot, (-) in the TE slot
    m = np.array(lat.m_values)[:, None]
    kp, kz = np.array(lat.nodes).T
    w = omega(c, kp, kz)
    expected = {"energy": (hbar * w,) * 2, "P3": (hbar * kz,) * 2, "L3": (hbar * m,) * 2,
                "S3": (hbar * c * kz / w, -1.0 * hbar * c * kz / w)}
    off, eig = [], []
    for name, A in obs.items():
        Ap = apply_basis(A, pm)
        off.append(np.divide(_offdiag(Ap).max_abs(), size[name]))
        for fam, want in zip(FAMILIES, expected[name]):
            eig.append(np.divide(np.abs(np.real(Ap.terms[fam, fam, 0]) - want).max(), size[name]))
    results.append(RelationResult("basis: {E,P3,L3,S3} diagonal in (+/-) basis", _worst(off), tol,
                                  "off-diagonal residual relative to |A|max of each operator"))
    results.append(RelationResult("basis: (+/-) eigenvalues {hbar w, hbar kz, hbar m, +/-hbar c kz/w}",
                                  _worst(eig), tol,
                                  "per-mode eigenvalue table; residual relative to |A|max of each operator"))

    rl, scale = make_rl_map(lat), size["S3"]
    resid = float(np.divide(_offdiag(apply_basis(obs["S3"], rl)).max_abs(), scale))
    cond = rl.condition_number
    notes = f"map condition number {cond:.6g} (non-unitary); residual relative to |S3|max = {scale:.6g}"
    # rounding in T^-1 can explain a residual up to eps cond(T)
    rounding = np.finfo(float).eps * cond
    inconclusive = bool(tol < resid <= rounding)
    if inconclusive:
        notes += f"; inconclusive: rounding in T^-1 allows up to eps cond(T) = {rounding:.3e}"
    results.append(RelationResult("basis: S3 diagonal under R/L map", resid, tol, notes, inconclusive))

    E_rl = apply_basis(obs["energy"], rl)
    scale = E_rl.max_abs()
    # in numpy floats, an underflowed beta^2 gives an infinite residual, not an exception
    beta2 = (c * kz / w) ** 2
    coeff = 0.25 * (1.0 + beta2) * (1.0 - 1.0 / beta2) * hbar * w
    worst_cross = _worst([np.abs(E_rl.terms[key] - coeff).max() for key in ((TM, TE, 0), (TE, TM, 0))])
    results.append(RelationResult(
        "basis: R/L energy cross-term = (1/4)(1+beta^2)(1-1/beta^2) hbar w",
        float(np.divide(worst_cross, scale)), tol,
        "beta = c kz/omega per node; symmetric (Hermitian) cross term; "
        f"residual relative to |E in R/L|max = {scale:.6g}",
    ))

    slope = np.polyfit(np.log(PARAXIAL_RATIOS), np.log(_paraxial_offdiag(hbar, c)), 1)[0]
    results.append(RelationResult(
        "basis: paraxial off-diagonal energy ~ (kp/kz)^2", abs(slope - 2.0), 0.05,
        f"log-log slope {slope:.6f} over kp/kz in [1e-3, 1e-1]; the slope is dimensionless",
    ))
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
            raise ValueError(f"k_perp support (+/-{ENVELOPE_CUT} widths) must stay positive")
        if kz_lo <= 0 <= kz_hi:
            raise ValueError(f"k_z support (+/-{ENVELOPE_CUT} widths) must not cross zero")
        if self.family not in (TM, TE):
            raise ValueError("unknown family")

    def support(self):
        """((k_perp lo, hi), (k_z lo, hi)): +/-ENVELOPE_CUT widths around the
        centre, the k-range every quadrature over the envelope covers."""
        dp, dz = ENVELOPE_CUT * self.k_perp_width, ENVELOPE_CUT * self.k_z_width
        return (
            (self.k_perp_center - dp, self.k_perp_center + dp),
            (self.k_z_center - dz, self.k_z_center + dz),
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


def smear_mode(which, wp: WavepacketSpec, n_kp, n_kz, omegas=None):
    """Smeared M, N, E or B field of the carrier family/m of `wp`, c = hbar = 1.

    E and B carry the normalization amplitude; M and N are bare.
    The k-grids are composite Gauss-Legendre: when the field feeds a
    finite-volume integral the node counts must resolve the sin(dk R)/dk
    structure of the truncated overlap kernels (see k_counts).  The
    caller's dict `omegas` keeps the omega of the last k-grid an M, E or B
    field was smeared on, keyed on the grid's bytes (N's terms hold no omega).
    """
    kp_support, kz_support = wp.support()
    kp, wkp = _panels(*kp_support, n_kp)
    kz, wkz = _panels(*kz_support, n_kz)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    omegas, key = {} if omegas is None else omegas, (kp.tobytes(), kz.tobytes())
    if which != "N" and key not in omegas:
        omegas.clear()  # one grid's omega at a time: a pass smears a grid's M, E, B fields in a row
        omegas[key] = omega(1.0, KP, KZ)
    w = omegas.get(key)
    g = wp.envelope(KP, KZ)
    if which in ("M", "N"):
        vector, pref = which, 1.0
    elif which in ("E", "B"):
        vector, sign = FIELD_RULE[which, wp.family]
        pref = sign(NormalizationConvention().amplitude_grid(KP, KZ, w))
    else:
        raise ValueError("which must be one of M, N, E, B")
    comps = tuple(
        _Component(pol, order, order, 0, 0, coeff * pref * g)
        for pol, order, coeff in mode_terms(vector, wp.m, KP, KZ, w=w)
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

    The radial kernel's Bessel tables live in `tables` and die with the
    quadrature; an axial kernel lives for one `_volume_integral` call.
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
        if q not in (0, 1):
            raise ValueError(f"the axial kernel is closed-form for z powers 0 and 1, got {q}")
        Z = self.dom.Z
        x = np.add.outer(F1.kz_nodes, F2.kz_nodes) * Z
        return 2 * Z * spherical_jn(0, x) if q == 0 else 2j * Z * Z * spherical_jn(1, x)


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
    """int F1 (table product) F2 dV as {e_pol: coefficient}; azimuthal integral exact.

    F1 and F2 fix the axial kernel up to its z power, so the terms go by
    power: each power's kernel is computed once and dropped before the
    next.  The terms then add up in component order."""
    terms = [(c1, c2, table[c1.pol, c2.pol]) for c1 in F1.comps for c2 in F2.comps
             if (c1.pol, c2.pol) in table and c1.azim + c2.azim == 0]
    values = [0j] * len(terms)
    for q in sorted({c1.z_pow + c2.z_pow for c1, c2, _ in terms}):
        ax = quad.axial(F1, F2, q)
        for i, (c1, c2, (_, factor)) in enumerate(terms):
            if c1.z_pow + c2.z_pow == q:
                rad = quad.radial(F1, F2, c1.order, c2.order, c1.rho_pow + c2.rho_pow)
                G1 = c1.coeff * F1.kp_w[:, None] * F1.kz_w[None, :]
                G2 = c2.coeff * F2.kp_w[:, None] * F2.kz_w[None, :]
                values[i] = 2 * math.pi * factor * np.einsum("ab,cd,ac,bd->", G1, G2, rad, ax, optimize=True)
        del ax
    out = {pol: 0.0 + 0.0j for pol, _ in table.values()}
    for (_, _, (pol, _)), v in zip(terms, values):
        out[pol] += v
    return out


def volume_dot(F1, F2, quad: _CylinderQuadrature, conjugate=True):
    """int F1 . F2* dV over the cylinder (F1 . F2 with conjugate=False)."""
    return _volume_integral(F1, F2.conj() if conjugate else F2, quad, _DOT)[""]


def volume_cross(F1, F2, quad: _CylinderQuadrature, conjugate=True):
    """int F1 x F2* dV (F1 x F2 with conjugate=False) as {'-': c-, '+': c+, '3': c3}
    e_pol coefficients."""
    return _volume_integral(F1, F2.conj() if conjugate else F2, quad, _CROSS)


def _envelope_rule(wp):
    """(KP, KZ, wkp, wkz, g, W): a 64 x 64 Gauss-Legendre grid over the support
    of `wp`, with the envelope g and omega W on its nodes; built once per packet."""
    kp_support, kz_support = wp.support()
    kp, wkp = _panels(*kp_support, 64, per_panel=64)
    kz, wkz = _panels(*kz_support, 64, per_panel=64)
    KP, KZ = np.meshgrid(kp, kz, indexing="ij")
    return KP, KZ, wkp, wkz, wp.envelope(KP, KZ), omega(1.0, KP, KZ)


def _pair_integral(rule, weight):
    """int dkp dkz |g(k)|^2 weight(kp, kz, omega) over a packet's _envelope_rule."""
    KP, KZ, wkp, wkz, g, W = rule
    return np.einsum("a,b,ab->", wkp, wkz, g * np.conj(g) * weight(KP, KZ, W))


def _lplus_analytic(wp_m, wp_mp, rule):
    """Envelope form of the L+ matrix element int M'* . (L+ M) dV.

    The distributional identity (with m' = m+1)
        i (2pi)^2 (w w'/(kp kz kz')) [kp d_kz - kz d_kp - m kz/kp] delta delta
    is integrated by parts against the envelopes: with u = g w/(kp kz),
        I = i (2pi)^2 int dk conj(h) (w/kz) [ -d_kz(kp u) + d_kp(kz u) - m (kz/kp) u ]
    over the support of `wp_m`, whose _envelope_rule is `rule`.
    """
    m = wp_m.m
    KP, KZ, wkp, wkz, g, W = rule
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
    is L+ applied to this pass's "M1".  The k-grids resolve the domain of
    `quad`; `omegas` is the pass's omega slot (smear_mode).
    """

    def __init__(self, packets, quad: _CylinderQuadrature, margin):
        super().__init__()
        self.packets, self.quad, self.margin, self.omegas = packets, quad, margin, {}

    def __missing__(self, name):
        if name == "LM":
            field = apply_L_plus(self["M1"])
        else:
            which, wp = self.packets[name]
            field = smear_mode(which, wp, *k_counts(wp, self.quad.dom, self.margin), self.omegas)
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

    rule = _envelope_rule(wp1)
    ana_diag = (2 * math.pi) ** 2 * _pair_integral(rule, lambda KP, KZ, W: (KP**2 + KZ**2) / (KP * KZ**2))
    scale = abs(ana_diag)
    ana_vec = (2 * math.pi) ** 2 * _pair_integral(rule, lambda KP, KZ, W: W / KZ**2)
    ana_vec3 = (2 * math.pi) ** 2 * _pair_integral(rule, lambda KP, KZ, W: W / (KP * KZ))
    vscale = abs(ana_vec)
    ana_L = _lplus_analytic(wp1, wp_up, rule)
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
    ana_refl = (-1.0) ** (wp1.m + 1) * _lplus_analytic(wp1, up, rule)
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
    rule = _envelope_rule(wp)
    nrm = _pair_integral(rule, lambda KP, KZ, W: np.ones_like(KP))
    omega_bar = _pair_integral(rule, lambda KP, KZ, W: W) / nrm
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


def _turned_back(ring, m_j, phis):
    """e^(-i m_j phi_k) R_z(-phi_k) ring[k] on phis[k] = 2 pi k / n: as Y(theta0, phi_k) = e^(i m_j phi_k)
    R_z(phi_k) Y(theta0, 0) by covariance about z, ring[k] . conj(Y(theta0, phi_k)) is this vector's product
    with conj(Y(theta0, 0)); the phase is e^(-i phis[(m_j k) mod n]), so m_j phi_k is never rounded."""
    cis, n = np.exp(1j * phis), len(phis)
    x, y, z = ring.T
    back = np.stack([cis.real * x + cis.imag * y, cis.real * y - cis.imag * x, z], axis=-1)
    return np.conj(cis[m_j * np.arange(n) % n, None]) * back


def expansion_coefficients(which, m, k_perp, k_z, degrees, c=1.0, m_j=None):
    """(alpha_E, alpha_M): coefficients of the spherical angular profiles, one
    complex array each, aligned with the range of degrees `degrees`.

    Defined by  F(r) = sum_j [alpha_E V^E_j + alpha_M V^M_j](r)  with
    V^(i)_j(r) = int dOmega Y^(i)_jm(n) e^{i k n . r}, obtained by
    projecting the plane-wave cone density of M or N onto the transverse
    harmonics of order m_j (default m; they are orthogonal with norm
    1/(j(j+1))).  For m_j != m the projections vanish up to rounding, and
    below degree max(1, |m_j|) they are exact 0.  One ring serves every
    degree: its density, _turned_back to phi = 0, sums to one vector D, and
    each degree's projection is D against its harmonics at phi = 0, which one
    vsh_grid call gives; a degree's values do not depend on the range.
    """
    m_j = m if m_j is None else m_j
    js = np.array(degrees, dtype=int)
    kept = js >= max(1, abs(m_j))
    alpha = np.zeros((2, len(js)), dtype=complex)
    if not kept.any():
        return alpha[0], alpha[1]
    # turned back, the density is e^(i (m - m_j) phi) times one vector: any n_phi > |m - m_j| sums it exactly
    n_phi = 8 * (abs(m - m_j) + 4)
    phis = np.linspace(0.0, 2 * math.pi, n_phi, endpoint=False)
    ring = cone_density(which, m, k_perp, k_z, phis, c)
    D = np.sum(_turned_back(ring, m_j, phis), axis=0) * (2 * math.pi / n_phi)
    # atan2 keeps every digit of the cone angle as k_perp / k_z -> 0, where acos(c k_z / w) keeps half.
    # A backward cone's angle pi - theta keeps few digits of a small theta, so its harmonics mirror
    # (z -> -z) the forward cone's: Y_jm(pi - theta) = (-1)^(j+m) Y_jm(theta) gives Y^E the factor
    # (-1)^(j+m) and Y^M, a pseudovector, -(-1)^(j+m), each with its z component negated
    at_zero = np.array(_vsh_grid(js[kept], m_j, math.atan2(k_perp, abs(k_z)), 0.0))  # (Y^E, Y^M) by degree
    if k_z < 0:
        at_zero *= np.array([1, -1])[:, None, None] * (-1.0) ** (js[kept] + m_j)[:, None] * [1, 1, -1]
    # elementwise products summed over the components, so no BLAS kernel rounds them
    alpha[:, kept] = js[kept] * (js[kept] + 1) * np.sum(D * np.conj(at_zero), axis=-1)
    return alpha[0], alpha[1]


def printed_uv(m, k_perp, k_z, j, c=1.0):
    """The printed closed forms of the expansion coefficients u and v.

    Delta-stripped: the factor delta(|k| - omega) delta_{m, m_j} is removed
    and the remaining smooth coefficient at m_j = m returned.
    """
    if j < max(1, abs(m)):
        return 0.0 + 0.0j, 0.0 + 0.0j
    w = omega(c, k_perp, k_z)
    x = c * k_z / w
    norm = math.sqrt(
        (2 * j + 1) * math.factorial(j - abs(m)) / (4 * math.pi * math.factorial(j + abs(m)))
    )
    phase = (-1.0) ** (m + (m + abs(m)) // 2) * I_POWERS[(m + j) % 4]
    pref = 4 * math.pi**2 * phase * norm * math.sqrt(c) * k_perp / (k_z * math.sqrt(w))
    p = float(lpmv(abs(m), j, x))
    below = float(lpmv(abs(m), j - 1, x)) if j - 1 >= abs(m) else 0.0
    # dP_j^m/dx from (x^2 - 1) P' = j x P_j^m - (j + |m|) P_{j-1}^m (DLMF 14.10)
    u = -pref * (c / w) * ((j * x * p - (j + abs(m)) * below) / (x * x - 1.0))
    v = pref * (1j * m * w / (c * k_perp)) * p
    return u, v


def _spherical_wave_pair(j, m, w, points, c=1.0):
    """(V^E_j, V^M_j)(r), V^(i)_j = int dOmega Y^(i)_jm(n) e^{i (w/c) n . r}, closed form.

    Rayleigh's plane-wave expansion (Jackson, Classical Electrodynamics,
    ch. 9) gives, with k = w/c, r > 0 and n = r/|r|,
        V^M_j = 4 pi i^j j_j(kr) Y^M_jm(n),
        V^E_j = 4 pi i^(j+3) [(j_j/kr) Y_jm(n) n + (j_j/kr + j_j') Y^E_jm(n)].
    `points` is one Cartesian point or an array of them, shaped (..., 3);
    `j` is one degree or an integer array of them, served by one vsh_grid
    call.  Both returned arrays are shaped j.shape + points.shape, and each
    degree's values equal those of its own call bit for bit, as a bare
    point's equal its row's in an array.
    """
    points = np.asarray(points, dtype=float)
    # libm scalar calls per point keep r, theta, phi bit-identical however many points come
    r, theta, phi = np.array([
        (math.sqrt(x * x + y * y + z * z), math.atan2(math.hypot(x, y), z), math.atan2(y, x))
        for x, y, z in points.reshape(-1, 3).tolist()
    ]).T.reshape((3,) + points.shape[:-1])
    kr = w * r / c
    ye, ym = _vsh_grid(j, m, theta, phi)
    j = np.asarray(j, dtype=int)
    # 4 pi i^(j+3) and 4 pi i^j, exactly, from the four powers of i
    i_pow = 4 * math.pi * np.array(I_POWERS)
    shape = j.shape + (1,) * points.ndim
    phase_e = i_pow[(j + 3) % 4].reshape(shape)
    phase_m = i_pow[j % 4].reshape(shape)
    j = j.reshape(j.shape + (1,) * r.ndim)
    jj, jp = spherical_jn(j, kr), spherical_jn(j, kr, derivative=True)
    n_hat = points / r[..., None]
    radial = ((jj / kr) * sph_harm_y(j, m, theta, phi))[..., None]
    ve = phase_e * (radial * n_hat + (jj / kr + jp)[..., None] * ye)
    vm = phase_m * jj[..., None] * ym
    return ve, vm


def partial_sums(which, m, k_perp, k_z, points, j_max, c=1.0):
    """Truncated spherical sums of M or N at Cartesian points.

    `points` is one point (x, y, z) or an array of them, shaped (..., 3).
    Yields (j, alpha_E, alpha_M, sum of the terms of degree <= j) for
    j = max(1, |m|) .. j_max; the sum has the shape of `points`.  The
    coefficients do not depend on the point: one expansion_coefficients call
    and one wave-pair call serve every degree.  The sum runs in degree
    order.  A bare point's sums equal its row's sums inside an array bit for
    bit (README).
    """
    degrees = range(max(1, abs(m)), j_max + 1)
    if not degrees:
        return
    ves, vms = _spherical_wave_pair(np.array(degrees), m, omega(c, k_perp, k_z), points, c)
    alphas = expansion_coefficients(which, m, k_perp, k_z, degrees, c)
    total = np.zeros(np.shape(points), dtype=complex)
    for j, aE, aM, ve, vm in zip(degrees, *alphas, ves, vms):
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
    alphas = expansion_coefficients("N", m, k_perp, k_z, j_range, c)
    off = [expansion_coefficients("N", m, k_perp, k_z, j_range, c, mj) for mj in (m - 1, m + 1)]
    # scalar abs: numpy's array loop for complex abs can differ from it in the last bit
    coeff_max = max(abs(a) for a in np.ravel(alphas))
    sel_worst = max(abs(a) for a in np.ravel(off))
    for j, aE, aM in zip(j_range, *alphas):
        u, v = printed_uv(m, k_perp, k_z, j, c)
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
    drift = float(np.abs(phase_u[1:] * np.array(I_POWERS)[np.arange(1, len(phase_u)) % 4] - 1.0).max())
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
    L = dict(zip(("L+", "L-", "L3"), build_L_spherical(4)))
    resid = _su2_residual(*cartesian(L, "L"), 1j)
    results.append(
        RelationResult(
            "spherical: [L_x, L_y] = i hbar L_z (spherical basis, j <= 4)",
            resid,
            STOKES_TOL,
            "hbar = 1",
        )
    )
    return _sorted(results)
