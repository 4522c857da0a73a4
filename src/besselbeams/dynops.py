"""Dynamical observables as quadratic forms on a mode lattice.

Builders for energy, total number, linear momentum, orbital angular
momentum, helicity, per-node Stokes operators, the (+/-) and (R/L) ladder
basis maps, and the spherical-basis su(2) angular momentum.

Conventions
-----------
* Discretization: with a(K_j) -> b_j / sqrt(w_j) and int dk -> sum w_j,
  an integrated density  int dk f(k) a^dag a  becomes  sum_j f_j b_j^dag b_j;
  the node weights cancel.  Every integrated operator is therefore a
  weight-free sum over nodes of a per-node bilinear (the Pi / Lambda /
  Sigma families) times a grid factor.  `TERMS` lists these sums, one
  table for the observables, the grid-factor right-hand sides of the
  commutator table and the basis maps; `assemble` turns an entry into COO
  triplets and builds its operator in one construction.
* Vector components: a vector operator is stored through its e_- and e_+
  coefficients, V = V_plus e_- + V_minus e_+ + V_3 e_3 with
  e_+/- = e_1 +/- i e_2, so V_1 = V_plus + V_minus and
  V_2 = i (V_minus - V_plus).  This dual pairing is used identically for
  P, L and S.
* The symmetrized number operator contributes its zero-point c-number to
  the scalar part; scalars never enter commutators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

# commutator is unused here; perfbench/tracing.py wraps dynops.commutator by name.
from .lattice import (  # noqa: F401
    BasisMap,
    LatticeError,
    ModeLattice,
    QuadraticOperator,
    commutator,
)
from .modes import TE, TM


@dataclass
class ObservableSet:
    """Named collection of the integrated observables on one lattice."""

    lattice: ModeLattice
    energy: QuadraticOperator
    number: QuadraticOperator
    P_plus: QuadraticOperator
    P_minus: QuadraticOperator
    P_3: QuadraticOperator
    L_plus: QuadraticOperator
    L_minus: QuadraticOperator
    L_3: QuadraticOperator
    S_plus: QuadraticOperator
    S_minus: QuadraticOperator
    S_3: QuadraticOperator

    def cartesian(self, which):
        """(V_1, V_2, V_3) from the e_+/- coefficient pair of P, L or S."""
        plus = getattr(self, f"{which}_plus")
        minus = getattr(self, f"{which}_minus")
        v3 = getattr(self, f"{which}_3")
        return plus + minus, 1j * (minus - plus), v3

    def named(self):
        return {
            "energy": self.energy,
            "number": self.number,
            "P+": self.P_plus,
            "P-": self.P_minus,
            "P3": self.P_3,
            "L+": self.L_plus,
            "L-": self.L_minus,
            "L3": self.L_3,
            "S+": self.S_plus,
            "S-": self.S_minus,
            "S3": self.S_3,
        }


class Node(NamedTuple):
    """The numbers of one (k_perp, k_z) node that a node factor reads."""

    hbar: float
    c: float
    kp: float
    kz: float
    w: float


# Per-node bilinears: rows (row family, column family, m shift, coefficient in
# m), each  sum_m coefficient(m) b^dag_{row family, m + shift} b_{column family, m}
# over every m with both labels on the lattice.  EACH stands for every family
# on the lattice, the same on both sides; 1 = TM and 2 = TE.
EACH = None
# Pi_+ = i sum_m b^dag_{m-1} b_m,  Pi_3 = sum_m N_m
PI_PLUS = ((EACH, EACH, -1, 1j),)
PI_3 = ((EACH, EACH, 0, 1.0),)
# Lambda_+ = i sum_m (m - 1/2) b^dag_{m-1} b_m,  Lambda_3 = sum_m m N_m
LAMBDA_PLUS = ((EACH, EACH, -1, lambda m: 1j * (m - 0.5)),)
LAMBDA_3 = ((EACH, EACH, 0, lambda m: m),)
# Sigma_+ = (1/2) sum_m (b2^dag_m b1_{m-1} - b1^dag_m b2_{m-1}),
# Sigma_3 = i sum_m (b1^dag_m b2_m - b2^dag_m b1_m)
SIGMA_PLUS = ((TE, TM, 1, 0.5), (TM, TE, 1, -0.5))
SIGMA_3 = ((TM, TE, 0, 1j), (TE, TM, 0, -1j))
# Stokes sigma_0..sigma_3 on the (TM, TE) pair of one m:
# sigma_0 = N1 + N2, sigma_1 = b1^dag b2 + b2^dag b1,
# sigma_2 = i (b2^dag b1 - b1^dag b2), sigma_3 = N1 - N2
STOKES = (
    ((TM, TM, 0, 1.0), (TE, TE, 0, 1.0)),
    ((TM, TE, 0, 1.0), (TE, TM, 0, 1.0)),
    ((TE, TM, 0, 1j), (TM, TE, 0, -1j)),
    ((TM, TM, 0, 1.0), (TE, TE, 0, -1.0)),
)


def _pair_block(beta):
    """new_TM = n (b^(TM)_m + i beta b^(TE)_m),  new_TE = n (b^(TM)_m - i beta b^(TE)_m),
    n = 1/sqrt(1 + beta^2), with beta(node) read per node."""

    def nrm(n):
        return 1.0 / math.sqrt(1.0 + beta(n) ** 2)

    return (
        (((TM, TM, 0, 1.0), (TE, TM, 0, 1.0)), nrm),
        (((TM, TE, 0, 1j), (TE, TE, 0, -1j)), lambda n: beta(n) * nrm(n)),
    )


# Every lattice operator as a sum of (per-node bilinear, node factor) terms.
# A node factor is Python float arithmetic on one Node, so each coefficient
# is rounded the same way whatever the lattice size.
TERMS = {
    # energy = hbar sum w N_m,  number = sum N_m
    "energy": ((PI_3, lambda n: n.hbar * n.w),),
    "number": ((PI_3, lambda n: 1.0),),
    # P = hbar sum [k_perp Pi_+ e_- + k_perp Pi_- e_+ + k_z Pi_3 e_3]
    "P+": ((PI_PLUS, lambda n: n.hbar * n.kp),),
    "P3": ((PI_3, lambda n: n.hbar * n.kz),),
    # L = hbar sum [(k_z/k_perp) Lambda_+ e_- + (k_z/k_perp) Lambda_- e_+ + Lambda_3 e_3]
    "L+": ((LAMBDA_PLUS, lambda n: n.hbar * n.kz / n.kp),),
    "L3": ((LAMBDA_3, lambda n: n.hbar),),
    # S = hbar sum (c/w) [k_perp Sigma_+ e_- + k_perp Sigma_- e_+ + k_z Sigma_3 e_3]
    "S+": ((SIGMA_PLUS, lambda n: n.hbar * n.c * n.kp / n.w),),
    "S3": ((SIGMA_3, lambda n: n.hbar * n.c * n.kz / n.w),),
    # grid-factor right-hand sides of the commutator table in verify
    "[L+,L-]": ((LAMBDA_3, lambda n: 2.0 * n.hbar**2 * n.kz**2 / n.kp**2),),
    "[L+,P+]": ((((EACH, EACH, -2, 1.0),), lambda n: n.hbar**2 * n.kz),),
    "[S+,L3]": ((SIGMA_PLUS, lambda n: -(n.hbar**2) * n.c * n.kp / n.w),),
    # printed: -i hbar^2 sum (c k_z/w) sum_m (b2^dag_{m+1} b1_{m-1} - b1^dag_{m+1} b2_{m-1})
    "[S+,L-] printed": (
        (((TE, TM, 2, -1j), (TM, TE, 2, 1j)), lambda n: n.hbar**2 * n.c * n.kz / n.w),
    ),
    # Stokes sigma_1..3 summed over every (m, node); the pairs are disjoint
    "sigma1": ((STOKES[1], lambda n: 1.0),),
    "sigma2": ((STOKES[2], lambda n: 1.0),),
    "sigma3": ((STOKES[3], lambda n: 1.0),),
    # basis maps, one 2x2 block per (m, node) on the (TM, TE) pair
    "(+/-) map": _pair_block(lambda n: 1.0),
    "R/L map": _pair_block(lambda n: n.c * n.kz / n.w),
}


def _nodes(lat: ModeLattice):
    """Node of every (k_perp, k_z) pair, k_perp-major as in the index layout."""
    return [
        Node(lat.hbar, lat.c, kp, kz, lat.c * math.hypot(kp, kz))
        for kp, _ in lat.k_perp_nodes
        for kz, _ in lat.k_z_nodes
    ]


def _coeff(coeff, m):
    return coeff(m) if callable(coeff) else coeff


def _triplets(lat: ModeLattice, name):
    """COO (rows, cols, values) of TERMS[name] summed over every node of `lat`."""
    m_min, m_max = lat.m_range
    shape = (len(lat.k_perp_nodes), len(lat.k_z_nodes))
    nodes = _nodes(lat)
    ip, iz = np.indices(shape)
    rows, cols, vals = [], [], []
    for bilinear, factor in TERMS[name]:
        F = np.array([factor(n) for n in nodes]).reshape(shape)
        for row_fam, col_fam, shift, coeff in bilinear:
            m = np.arange(max(m_min, m_min - shift), min(m_max, m_max - shift) + 1)[:, None, None]
            v = _coeff(coeff, m) * F
            pairs = [(f, f) for f in lat.families] if row_fam is EACH else [(row_fam, col_fam)]
            for rf, cf in pairs:
                r = lat.index(rf, m + shift, ip, iz)
                rows.append(r.ravel())
                cols.append(lat.index(cf, m, ip, iz).ravel())
                vals.append(np.broadcast_to(v, r.shape).ravel())
    # + 0.0 turns the -0.0 parts of the complex products into +0.0
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals) + 0.0


def assemble(lat: ModeLattice, name, s=0.0) -> QuadraticOperator:
    """TERMS[name] on `lat`, built from its COO triplets in one construction."""
    rows, cols, vals = _triplets(lat, name)
    D = lat.dim
    return QuadraticOperator(lat, sp.coo_matrix((vals, (rows, cols)), shape=(D, D)), s)


def _zero_point(lat: ModeLattice, name):
    """Symmetrization c-number of a diagonal TERMS entry: (1/2) sum_m of its
    coefficients, added node by node and family by family."""
    ms = np.array(lat.m_values)
    s = 0.0
    for ((_, _, _, coeff),), factor in TERMS[name]:
        half = 0.5 * np.sum(np.broadcast_to(_coeff(coeff, ms), ms.shape))
        for n in _nodes(lat):
            for _ in lat.families:
                s += half * factor(n)
    return s


def _require_both_families(lat):
    if TM not in lat.families or TE not in lat.families:
        raise LatticeError("operator needs both TM and TE families on the lattice")


def build_momentum(lat: ModeLattice):
    """Integrated momentum components (P_plus, P_minus, P_3); P_3 is
    symmetrized (zero point in its scalar part)."""
    P_plus = assemble(lat, "P+")
    return P_plus, P_plus.dagger(), assemble(lat, "P3", _zero_point(lat, "P3"))


def build_energy_number(lat: ModeLattice, include_zero_point=True):
    """(energy, total number); the zero points go to the scalar parts iff
    `include_zero_point`."""
    if not include_zero_point:
        return assemble(lat, "energy"), assemble(lat, "number")
    hbar_w = _triplets(lat, "energy")[2]  # the diagonal in index order
    return assemble(lat, "energy", 0.5 * hbar_w.sum()), assemble(lat, "number", 0.5 * lat.dim)


def build_orbital(lat: ModeLattice):
    """Integrated OAM components (L_plus, L_minus, L_3); L_3 is symmetrized."""
    L_plus = assemble(lat, "L+")
    return L_plus, L_plus.dagger(), assemble(lat, "L3", _zero_point(lat, "L3"))


def build_helicity(lat: ModeLattice):
    """Integrated helicity components (S_plus, S_minus, S_3)."""
    _require_both_families(lat)
    S_plus = assemble(lat, "S+")
    return S_plus, S_plus.dagger(), assemble(lat, "S3")


def build_stokes(lat: ModeLattice, ip, iz, m):
    """Quantum Stokes operators (sigma_0..sigma_3) on the (TM, TE) pair
    at fixed (m, k_perp node, k_z node); no zero-point terms."""
    _require_both_families(lat)
    return tuple(
        QuadraticOperator.from_terms(
            lat, [(lat.index(r, m, ip, iz), lat.index(c, m, ip, iz), v) for r, c, _, v in rows]
        )
        for rows in STOKES
    )


def stokes_expectations(lat: ModeLattice, alpha):
    """<sigma_1>, <sigma_2>, <sigma_3> of the coherent state `alpha` at every
    (m, k_perp node, k_z node), as a (3, n_m, n_kp, n_kz) complex array.

    Each value is conj(a) . (sigma a) on the pair a = (a_TM, a_TE), summed
    the way the coefficient-matrix expectation conj(v) . (X v) sums it: the
    real products xr yr, xi yi, xr yi and xi yr in four separate sums.
    """
    _require_both_families(lat)
    m = np.array(lat.m_values)[:, None, None]
    ip = np.arange(len(lat.k_perp_nodes))[:, None]
    iz = np.arange(len(lat.k_z_nodes))
    v = alpha.vector(lat)
    a1, a2 = v[lat.index(TM, m, ip, iz)], v[lat.index(TE, m, ip, iz)]
    x = np.stack([a1, a2])
    out = []
    for y in (np.stack([a2, a1]), np.stack([-1j * a2, 1j * a1]), np.stack([a1, -a2])):
        re = (x.real * y.real).sum(0) + (x.imag * y.imag).sum(0)
        im = (x.real * y.imag).sum(0) - (x.imag * y.real).sum(0)
        out.append((re + 0.0) + 1j * (im + 0.0))
    return np.stack(out)


def build_observables(lat: ModeLattice, include_zero_point=True) -> ObservableSet:
    energy, number = build_energy_number(lat, include_zero_point)
    P_plus, P_minus, P_3 = build_momentum(lat)
    L_plus, L_minus, L_3 = build_orbital(lat)
    S_plus, S_minus, S_3 = build_helicity(lat)
    return ObservableSet(
        lat, energy, number, P_plus, P_minus, P_3, L_plus, L_minus, L_3, S_plus, S_minus, S_3
    )


def _pair_block_map(lat: ModeLattice, name) -> BasisMap:
    """BasisMap T of a pair-block TERMS entry (new index = row, old = column)."""
    _require_both_families(lat)
    rows, cols, vals = _triplets(lat, name)
    return BasisMap(lat, sp.csr_matrix((vals, (rows, cols)), shape=(lat.dim, lat.dim)))


def make_pm_map(lat: ModeLattice) -> BasisMap:
    """Unitary (+/-) map: b^(+/-)_m = (b^(TM)_m +/- i b^(TE)_m)/sqrt(2).

    The (+) combination occupies the TM slot and the (-) combination the
    TE slot at the same (m, k) index; this is the beta = 1 pair block.
    """
    return _pair_block_map(lat, "(+/-) map")


def make_rl_map(lat: ModeLattice) -> BasisMap:
    """Non-unitary circular (R/L) map.

    a^(R)_{m+1} = (b^(TM)_m + i beta b^(TE)_m)/sqrt(1 + beta^2),
    a^(L)_{m-1} = (b^(TM)_m - i beta b^(TE)_m)/sqrt(1 + beta^2),
    beta = c k_z / w per node.  The R mode built from azimuthal index m is
    stored in the TM slot at index m and the L mode in the TE slot; the
    +/-1 label shift is bookkeeping on the new-mode names, which is why a
    usable m_range must be at least 3 wide.
    """
    _require_both_families(lat)
    m_min, m_max = lat.m_range
    if m_max - m_min + 1 < 3:
        raise LatticeError("R/L map needs an m_range at least 3 wide")
    return _pair_block_map(lat, "R/L map")


# --------------------------------------------------------------------------
# Spherical-basis angular momentum
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SphericalLattice:
    """Discrete (family, omega, j, m) index set for spherical vector modes."""

    omega_nodes: tuple  # ((value, weight), ...)
    j_range: tuple      # (j_min >= 1, j_max)
    families: tuple = ("E", "M")
    hbar: float = 1.0

    def __post_init__(self):
        if self.j_range[0] < 1:
            raise LatticeError("spherical lattice needs j >= 1")
        object.__setattr__(self, "omega_nodes", tuple((float(v), float(w)) for v, w in self.omega_nodes))
        for v, w in self.omega_nodes:
            if not (math.isfinite(v) and v > 0 and math.isfinite(w) and w > 0):
                raise LatticeError("omega nodes need finite value > 0 and weight > 0")
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise LatticeError(
                f"spherical lattice hbar must be positive and finite, got {self.hbar}"
            )

    @property
    def dim(self):
        nj = sum(2 * j + 1 for j in range(self.j_range[0], self.j_range[1] + 1))
        return len(self.families) * len(self.omega_nodes) * nj

    def index(self, family, iw, j, m):
        if abs(m) > j or not (self.j_range[0] <= j <= self.j_range[1]):
            raise LatticeError("index outside spherical lattice")
        fi = self.families.index(family)
        nj = sum(2 * jj + 1 for jj in range(self.j_range[0], self.j_range[1] + 1))
        off_j = sum(2 * jj + 1 for jj in range(self.j_range[0], j))
        return (fi * len(self.omega_nodes) + iw) * nj + off_j + (m + j)


def build_L_spherical(s_lat: SphericalLattice):
    """(L_plus, L_minus, L_3) for the spherical vector basis.

    Per (family, omega, j) block the e_- coefficient carries
    (1/2) sqrt((j - m)(j + m + 1)) b^dag_{m+1} b_m, so that
    L_x = L_plus + L_minus and L_y = i (L_minus - L_plus) satisfy
    [L_x, L_y] = i hbar L_z.
    """
    hbar = s_lat.hbar
    # QuadraticOperator is generic over any object exposing .dim; reuse it
    # by duck-typing the spherical lattice.
    terms_p, terms_3 = [], []
    s3 = 0.0
    for fam in s_lat.families:
        for iw in range(len(s_lat.omega_nodes)):
            for j in range(s_lat.j_range[0], s_lat.j_range[1] + 1):
                for m in range(-j, j + 1):
                    terms_3.append((s_lat.index(fam, iw, j, m), s_lat.index(fam, iw, j, m), hbar * m))
                    s3 += 0.5 * hbar * m
                    if m + 1 <= j:
                        coeff = 0.5 * hbar * math.sqrt((j - m) * (j + m + 1))
                        terms_p.append(
                            (s_lat.index(fam, iw, j, m + 1), s_lat.index(fam, iw, j, m), coeff)
                        )
    L_plus = QuadraticOperator.from_terms(s_lat, terms_p)
    L_3 = QuadraticOperator.from_terms(s_lat, terms_3, s=s3)
    return L_plus, L_plus.dagger(), L_3
