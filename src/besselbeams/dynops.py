"""Dynamical observables as quadratic forms on a mode lattice.

Builders for energy, total number, linear momentum, orbital angular
momentum, helicity, per-node Stokes operators, the elementary Pi / Lambda
/ Sigma families, the (+/-) and (R/L) ladder basis maps, and the
spherical-basis su(2) angular momentum.

Conventions
-----------
* Discretization: with a(K_j) -> b_j / sqrt(w_j) and int dk -> sum w_j,
  an integrated density  int dk f(k) a^dag a  becomes  sum_j f_j b_j^dag b_j;
  the node weights cancel.  Elementary per-node operators (Pi, Lambda,
  Sigma) are therefore exposed in unit-normalized discrete form, and the
  integrated observables are weight-free sums of them times grid factors.
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

import numpy as np

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


def _node_iter(lat: ModeLattice):
    for ip, (kp, _) in enumerate(lat.k_perp_nodes):
        for iz, (kz, _) in enumerate(lat.k_z_nodes):
            yield ip, iz, kp, kz, lat.c * math.hypot(kp, kz)


def elementary_pi(lat: ModeLattice, family, ip, iz):
    """Per-node momentum ladder operators {+, -, 3} for one family.

    Pi_+ = i sum_m b^dag_{m-1} b_m,  Pi_- = Pi_+^dag,  Pi_3 = sum_m N_m
    (symmetrized: zero point in the scalar part of Pi_3).
    """
    m_min, m_max = lat.m_range
    plus = QuadraticOperator.from_terms(
        lat,
        [
            (lat.index(family, m - 1, ip, iz), lat.index(family, m, ip, iz), 1j)
            for m in range(m_min + 1, m_max + 1)
        ],
    )
    three = QuadraticOperator.from_terms(
        lat,
        [(lat.index(family, m, ip, iz), lat.index(family, m, ip, iz), 1.0) for m in lat.m_values],
        s=0.5 * len(list(lat.m_values)),
    )
    return {"+": plus, "-": plus.dagger(), "3": three}


def elementary_lambda(lat: ModeLattice, family, ip, iz):
    """Per-node OAM ladder operators {+, -, 3} for one family.

    Lambda_+ = i sum_m (m - 1/2) b^dag_{m-1} b_m,  Lambda_- = Lambda_+^dag,
    Lambda_3 = sum_m m N_m.
    """
    m_min, m_max = lat.m_range
    plus = QuadraticOperator.from_terms(
        lat,
        [
            (lat.index(family, m - 1, ip, iz), lat.index(family, m, ip, iz), 1j * (m - 0.5))
            for m in range(m_min + 1, m_max + 1)
        ],
    )
    three = QuadraticOperator.from_terms(
        lat,
        [(lat.index(family, m, ip, iz), lat.index(family, m, ip, iz), float(m)) for m in lat.m_values],
        s=0.5 * sum(lat.m_values),
    )
    return {"+": plus, "-": plus.dagger(), "3": three}


def _require_both_families(lat):
    if TM not in lat.families or TE not in lat.families:
        raise LatticeError("operator needs both TM and TE families on the lattice")


def elementary_sigma(lat: ModeLattice, ip, iz):
    """Per-node helicity ladder operators coupling the TM/TE families.

    Sigma_+ = (1/2) sum_m (b2^dag_m b1_{m-1} - b1^dag_m b2_{m-1}),
    Sigma_- = Sigma_+^dag,
    Sigma_3 = i sum_m (b1^dag_m b2_m - b2^dag_m b1_m),
    with 1 = TM and 2 = TE.
    """
    _require_both_families(lat)
    m_min, m_max = lat.m_range
    terms = []
    for m in range(m_min + 1, m_max + 1):
        terms.append((lat.index(TE, m, ip, iz), lat.index(TM, m - 1, ip, iz), 0.5))
        terms.append((lat.index(TM, m, ip, iz), lat.index(TE, m - 1, ip, iz), -0.5))
    plus = QuadraticOperator.from_terms(lat, terms)
    terms3 = []
    for m in lat.m_values:
        terms3.append((lat.index(TM, m, ip, iz), lat.index(TE, m, ip, iz), 1j))
        terms3.append((lat.index(TE, m, ip, iz), lat.index(TM, m, ip, iz), -1j))
    three = QuadraticOperator.from_terms(lat, terms3)
    return {"+": plus, "-": plus.dagger(), "3": three}


def build_momentum(lat: ModeLattice):
    """Integrated momentum components (P_plus, P_minus, P_3).

    P = hbar sum_i int dk [k_perp Pi_+ e_- + k_perp Pi_- e_+ + k_z Pi_3 e_3].
    """
    hbar = lat.hbar
    P_plus = QuadraticOperator(lat)
    P_3 = QuadraticOperator(lat)
    for ip, iz, kp, kz, _ in _node_iter(lat):
        for fam in lat.families:
            pi = elementary_pi(lat, fam, ip, iz)
            P_plus = P_plus + (hbar * kp) * pi["+"]
            P_3 = P_3 + (hbar * kz) * pi["3"]
    return P_plus, P_plus.dagger(), P_3


def build_energy_number(lat: ModeLattice, include_zero_point=True):
    """(energy, total number).

    energy = hbar sum_i,m int dk w(k) N_m; the zero point goes to the
    scalar part iff `include_zero_point`.
    """
    hbar = lat.hbar
    D = lat.dim
    diag_E = np.zeros(D)
    for idx in range(D):
        diag_E[idx] = hbar * lat.omega(idx)
    sE = 0.5 * diag_E.sum() if include_zero_point else 0.0
    energy = QuadraticOperator.from_terms(
        lat, [(i, i, diag_E[i]) for i in range(D)], s=sE
    )
    number = QuadraticOperator.from_terms(
        lat, [(i, i, 1.0) for i in range(D)], s=0.5 * D if include_zero_point else 0.0
    )
    return energy, number


def build_orbital(lat: ModeLattice):
    """Integrated OAM components (L_plus, L_minus, L_3).

    L = hbar sum_i int dk [(k_z/k_perp) Lambda_+ e_- + (k_z/k_perp) Lambda_- e_+
        + Lambda_3 e_3].
    """
    hbar = lat.hbar
    L_plus = QuadraticOperator(lat)
    L_3 = QuadraticOperator(lat)
    for ip, iz, kp, kz, _ in _node_iter(lat):
        for fam in lat.families:
            lam = elementary_lambda(lat, fam, ip, iz)
            L_plus = L_plus + (hbar * kz / kp) * lam["+"]
            L_3 = L_3 + hbar * lam["3"]
    return L_plus, L_plus.dagger(), L_3


def build_helicity(lat: ModeLattice):
    """Integrated helicity components (S_plus, S_minus, S_3).

    S = hbar int dk (c/w) [k_perp Sigma_+ e_- + k_perp Sigma_- e_+
        + k_z Sigma_3 e_3].
    """
    _require_both_families(lat)
    hbar, c = lat.hbar, lat.c
    S_plus = QuadraticOperator(lat)
    S_3 = QuadraticOperator(lat)
    for ip, iz, kp, kz, w in _node_iter(lat):
        sig = elementary_sigma(lat, ip, iz)
        S_plus = S_plus + (hbar * c * kp / w) * sig["+"]
        S_3 = S_3 + (hbar * c * kz / w) * sig["3"]
    return S_plus, S_plus.dagger(), S_3


def build_stokes(lat: ModeLattice, ip, iz, m):
    """Quantum Stokes operators (sigma_0..sigma_3) on the (TM, TE) pair
    at fixed (m, k_perp node, k_z node); no zero-point terms."""
    _require_both_families(lat)
    i1 = lat.index(TM, m, ip, iz)
    i2 = lat.index(TE, m, ip, iz)
    s0 = QuadraticOperator.from_terms(lat, [(i1, i1, 1.0), (i2, i2, 1.0)])
    s1 = QuadraticOperator.from_terms(lat, [(i1, i2, 1.0), (i2, i1, 1.0)])
    s2 = QuadraticOperator.from_terms(lat, [(i2, i1, 1j), (i1, i2, -1j)])
    s3 = QuadraticOperator.from_terms(lat, [(i1, i1, 1.0), (i2, i2, -1.0)])
    return s0, s1, s2, s3


def build_observables(lat: ModeLattice, include_zero_point=True) -> ObservableSet:
    energy, number = build_energy_number(lat, include_zero_point)
    P_plus, P_minus, P_3 = build_momentum(lat)
    L_plus, L_minus, L_3 = build_orbital(lat)
    S_plus, S_minus, S_3 = build_helicity(lat)
    return ObservableSet(
        lat, energy, number, P_plus, P_minus, P_3, L_plus, L_minus, L_3, S_plus, S_minus, S_3
    )


def _pair_block_map(lat: ModeLattice, beta) -> BasisMap:
    """BasisMap with one 2x2 block per (m, k-node) on the (TM, TE) pair.

    new_TM = n (b^(TM)_m + i beta b^(TE)_m),  new_TE = n (b^(TM)_m - i beta b^(TE)_m),
    n = 1/sqrt(1 + beta^2), where beta(kz, w) may vary by node.
    """
    _require_both_families(lat)
    D = lat.dim
    T = np.zeros((D, D), dtype=complex)
    for ip, iz, kp, kz, w in _node_iter(lat):
        b = beta(kz, w)
        nrm = 1.0 / math.sqrt(1.0 + b**2)
        for m in lat.m_values:
            i1 = lat.index(TM, m, ip, iz)
            i2 = lat.index(TE, m, ip, iz)
            T[i1, i1], T[i1, i2] = nrm, 1j * b * nrm
            T[i2, i1], T[i2, i2] = nrm, -1j * b * nrm
    return BasisMap(lat, T)


def make_pm_map(lat: ModeLattice) -> BasisMap:
    """Unitary (+/-) map: b^(+/-)_m = (b^(TM)_m +/- i b^(TE)_m)/sqrt(2).

    The (+) combination occupies the TM slot and the (-) combination the
    TE slot at the same (m, k) index; this is the beta = 1 pair block.
    """
    return _pair_block_map(lat, lambda kz, w: 1.0)


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
    return _pair_block_map(lat, lambda kz, w: lat.c * kz / w)


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
            if v <= 0 or w <= 0:
                raise LatticeError("omega nodes need value > 0 and weight > 0")

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
