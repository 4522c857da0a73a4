"""Dynamical observables as quadratic forms on a mode lattice.

Builders for energy, total number, linear momentum, orbital angular
momentum, helicity, per-node Stokes operators and the (+/-) and (R/L)
ladder basis maps, all on a `ModeLattice`, and the coefficient matrices
of the spherical-basis su(2) angular momentum.

Conventions
-----------
* Discretization: with a(K_j) -> b_j / sqrt(w_j) and int dk -> sum w_j,
  an integrated density  int dk f(k) a^dag a  becomes  sum_j f_j b_j^dag b_j;
  the node weights cancel, and a lattice node is a bare wavenumber.  Every
  integrated operator is therefore a weight-free sum over nodes of a
  per-node bilinear (Pi / Lambda / Sigma: rows of plain numbers, with an
  m-coefficient c0 + c1 m) times a node factor: a monomial
  q hbar^a c^b k_perp^d k_z^e w^f, stored as the numbers (q, (a, b, d, e, f))
  and evaluated by `node_factors` alone.  `TERMS` lists these sums, one
  table for the observables and the grid-factor right-hand sides of the
  commutator table; `assemble` turns an entry into a `QuadraticOperator`,
  one term array over (m, node) per bilinear row.  The Stokes operators
  have one builder, `build_stokes`, which also sums them over any set of
  (m, node) pairs.
* Basis maps: the (+/-) and (R/L) maps mix only the (TM, TE) pair of one
  (m, node), so each is a `BasisMap` of per-pair 2 x 2 blocks, built
  node by node from a `PAIR_BETA` monomial.
* Observables: `build_observables` maps the 11 names to operators: the
  `TERMS` observables and P-, L-, S-, the adjoints of P+, L+, S+.
* Vector components: a vector operator is stored through its e_- and e_+
  coefficients, V = V+ e_- + V- e_+ + V3 e_3 with e_+/- = e_1 +/- i e_2,
  so V_1 = V+ + V- and V_2 = i (V- - V+); `cartesian` forms
  (V_1, V_2, V_3).  This dual pairing is used identically for P, L and S.
* Families: every lattice carries TM and TE (`lattice.FAMILIES`), so the
  Sigma and Stokes bilinears and the pair-block maps exist on any lattice.
* Zero points: every observable is normal-ordered.  `zero_points` holds the
  c-numbers that symmetrizing energy, number, P3 and L3 adds; they never
  enter commutators, so only a printed expectation reads them.
* Spherical basis: L mixes only the m of one j multiplet, so
  `build_L_spherical` returns bare coefficient matrices on one (j, m)
  ladder; [b^dag X b, b^dag Y b] = b^dag [X, Y] b makes su(2) on them
  su(2) of the quadratic forms.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .lattice import FAMILIES, BasisMap, LatticeError, ModeLattice, QuadraticOperator, term_span
# Unused here: perfbench/tracing.py wraps dynops.commutator by name.
from .lattice import commutator  # noqa: F401
from .modes import TE, TM, omega


# Per-node bilinears: rows (row family, column family, m shift, c0, c1), each
#   sum_m (c0 + c1 m) b^dag_{row family, m + shift} b_{column family, m}
# over every m with both labels on the lattice; 1 = TM and 2 = TE.  A row is
# plain numbers, so rows can be compared, shifted and multiplied exactly.
# Pi_+ = i sum_m b^dag_{m-1} b_m,  Pi_3 = sum_m N_m
PI_PLUS = ((TM, TM, -1, 1j, 0), (TE, TE, -1, 1j, 0))
PI_3 = ((TM, TM, 0, 1.0, 0), (TE, TE, 0, 1.0, 0))
# Lambda_+ = i sum_m (m - 1/2) b^dag_{m-1} b_m,  Lambda_3 = sum_m m N_m
LAMBDA_PLUS = ((TM, TM, -1, -0.5j, 1j), (TE, TE, -1, -0.5j, 1j))
LAMBDA_3 = ((TM, TM, 0, 0, 1), (TE, TE, 0, 0, 1))
# Sigma_+ = (1/2) sum_m (b2^dag_m b1_{m-1} - b1^dag_m b2_{m-1}),
# Sigma_3 = i sum_m (b1^dag_m b2_m - b2^dag_m b1_m)
SIGMA_PLUS = ((TE, TM, 1, 0.5, 0), (TM, TE, 1, -0.5, 0))
SIGMA_3 = ((TM, TE, 0, 1j, 0), (TE, TM, 0, -1j, 0))
# Stokes sigma_0..sigma_3 on the (TM, TE) pair of one m:
# sigma_0 = N1 + N2, sigma_1 = b1^dag b2 + b2^dag b1,
# sigma_2 = i (b2^dag b1 - b1^dag b2), sigma_3 = N1 - N2
STOKES = (
    ((TM, TM, 0, 1.0, 0), (TE, TE, 0, 1.0, 0)),
    ((TM, TE, 0, 1.0, 0), (TE, TM, 0, 1.0, 0)),
    ((TE, TM, 0, 1j, 0), (TM, TE, 0, -1j, 0)),
    ((TM, TM, 0, 1.0, 0), (TE, TE, 0, -1.0, 0)),
)


# Every lattice operator as a sum of (per-node bilinear, node factor) terms,
# with entry (c0 + c1 m) * factor at (m, node).  A node factor is a monomial
# (q, (a, b, d, e, f)) = q hbar^a c^b k_perp^d k_z^e w^f, plain numbers like
# the rows beside it; `node_factors` evaluates it.
TERMS = {
    # energy = hbar sum w N_m,  number = sum N_m
    "energy": ((PI_3, (1.0, (1, 0, 0, 0, 1))),),
    "number": ((PI_3, (1.0, (0, 0, 0, 0, 0))),),
    # P = hbar sum [k_perp Pi_+ e_- + k_perp Pi_- e_+ + k_z Pi_3 e_3]
    "P+": ((PI_PLUS, (1.0, (1, 0, 1, 0, 0))),),
    "P3": ((PI_3, (1.0, (1, 0, 0, 1, 0))),),
    # L = hbar sum [(k_z/k_perp) Lambda_+ e_- + (k_z/k_perp) Lambda_- e_+ + Lambda_3 e_3]
    "L+": ((LAMBDA_PLUS, (1.0, (1, 0, -1, 1, 0))),),
    "L3": ((LAMBDA_3, (1.0, (1, 0, 0, 0, 0))),),
    # S = hbar sum (c/w) [k_perp Sigma_+ e_- + k_perp Sigma_- e_+ + k_z Sigma_3 e_3]
    "S+": ((SIGMA_PLUS, (1.0, (1, 1, 1, 0, -1))),),
    "S3": ((SIGMA_3, (1.0, (1, 1, 0, 1, -1))),),
    # grid-factor right-hand sides of the commutator table in verify
    "[L+,L-]": ((LAMBDA_3, (2.0, (2, 0, -2, 2, 0))),),
    "[L+,P+]": ((((TM, TM, -2, 1.0, 0), (TE, TE, -2, 1.0, 0)), (1.0, (2, 0, 0, 1, 0))),),
    "[S+,L3]": ((SIGMA_PLUS, (-1.0, (2, 1, 1, 0, -1))),),
    # printed: -i hbar^2 sum (c k_z/w) sum_m (b2^dag_{m+1} b1_{m-1} - b1^dag_{m+1} b2_{m-1})
    "[S+,L-] printed": ((((TE, TM, 2, -1j, 0), (TM, TE, 2, 1j, 0)), (1.0, (2, 1, 0, 1, -1))),),
}

# the beta monomials of the (+/-) and (R/L) pair blocks: 1 and c k_z / w
PAIR_BETA = {"pm": (1.0, (0, 0, 0, 0, 0)), "R/L": (1.0, (0, 1, 0, 1, -1))}


def node_factors(lat: ModeLattice, monomial):
    """q hbar^a c^b k_perp^d k_z^e w^f of `monomial` (q, (a, b, d, e, f)) at
    every node, in node order.  Python floats: q times the positive powers
    x**n in (hbar, c, k_perp, k_z, w) order, then divided by the negative
    ones in that order, so a factor rounds the same whatever the lattice
    size."""
    q, powers = monomial
    out = []
    for kp, kz in lat.nodes:
        # omega, the costliest factor, only where the monomial has a power of it
        node = (lat.hbar, lat.c, kp, kz, omega(lat.c, kp, kz) if powers[4] else None)
        v = q
        for x, n in zip(node, powers):
            if n > 0:
                v *= x**n
        for x, n in zip(node, powers):
            if n < 0:
                v /= x**-n
        out.append(v)
    return out


def assemble(lat: ModeLattice, name) -> QuadraticOperator:
    """TERMS[name] summed over every node of `lat`, one term array per bilinear row."""
    m = np.array(lat.m_values)[:, None]
    terms = {}
    for bilinear, factor in TERMS[name]:
        F = np.array(node_factors(lat, factor))
        for row_fam, col_fam, shift, c0, c1 in bilinear:
            v = np.zeros((len(m), len(F)), dtype=complex)
            span = term_span(shift, len(m))
            v[span] = (c0 + c1 * m[span]) * F
            # 0.0 + turns the -0.0 parts of the complex products into +0.0
            terms[row_fam, col_fam, shift] = terms.get((row_fam, col_fam, shift), 0.0) + v
    return QuadraticOperator(lat, terms)


def zero_points(lat: ModeLattice):
    """Zero points of energy, number, P3 and L3 by name (0 for the others);
    P3's and L3's are (1/2) sum_m of each TERMS row's coefficients, added
    node by node and row (family) by row."""
    energy = assemble(lat, "energy").terms
    hbar_w = np.concatenate([energy[f, f, 0].real.ravel() for f in FAMILIES])  # the diagonal in index order
    zero = {"energy": 0.5 * hbar_w.sum(), "number": 0.5 * lat.dim}
    ms = np.array(lat.m_values)
    for name in ("P3", "L3"):
        zero[name] = 0.0
        for bilinear, factor in TERMS[name]:
            halves = [0.5 * np.sum(c0 + c1 * ms) for *_, c0, c1 in bilinear]
            for f in node_factors(lat, factor):
                for half in halves:
                    zero[name] += half * f
    return zero


def build_stokes(lat: ModeLattice, node, m):
    """Quantum Stokes operators (sigma_0..sigma_3) on the (TM, TE) pair
    at fixed (m, node); no zero-point terms.

    node and m may be integer arrays that broadcast together, as in
    `ModeLattice.index`.  Each operator is then the sum of the per-pair
    operators over every broadcast (node, m): a label named twice counts
    twice, so the result equals the sum of the scalar calls.
    """
    lat.index(TM, m, node)  # refuses a label outside the lattice
    count = np.zeros(lat.shape[1:], dtype=complex)
    np.add.at(count, tuple(np.broadcast_arrays(np.subtract(m, lat.m_range[0]), node)), 1.0)
    # + 0.0 turns the -0.0 parts of the complex products into +0.0
    return tuple(QuadraticOperator(lat, {(r, c, 0): c0 * count + 0.0 for r, c, _, c0, _ in rows})
                 for rows in STOKES)


def stokes_expectations(lat: ModeLattice, alpha):
    """<sigma_1>, <sigma_2>, <sigma_3> of the coherent state `alpha` at every
    (m, node), as a (3, n_m, n_nodes) complex array.

    Each value is conj(a) . (sigma a) on the pair a = (a_TM, a_TE), summed
    the way the coefficient-matrix expectation conj(v) . (X v) sums it: the
    real products xr yr, xi yi, xr yi and xi yr in four separate sums.
    """
    x = np.reshape(alpha, lat.shape)  # x[i]: family FAMILIES[i]
    out = []
    for rows in STOKES[1:]:
        y = np.zeros_like(x)  # sigma_k a
        for row_fam, col_fam, _, c0, _ in rows:
            y[FAMILIES.index(row_fam)] += c0 * x[FAMILIES.index(col_fam)]
        re = (x.real * y.real).sum(0) + (x.imag * y.imag).sum(0)
        im = (x.real * y.imag).sum(0) - (x.imag * y.real).sum(0)
        out.append((re + 0.0) + 1j * (im + 0.0))
    return np.stack(out)


def build_observables(lat: ModeLattice):
    """The 11 normal-ordered integrated observables by name: energy, number,
    P+, P-, P3, L+, L-, L3, S+, S-, S3 in this order.  P-, L- and S- are the
    adjoints of P+, L+ and S+."""
    obs = {}
    for name in ("energy", "number", "P+", "P-", "P3", "L+", "L-", "L3", "S+", "S-", "S3"):
        if name.endswith("-"):
            obs[name] = obs[name[0] + "+"].dagger()
        else:
            obs[name] = assemble(lat, name)
    return obs


def cartesian(obs, which):
    """(V_1, V_2, V_3) of P, L or S (`which`) from the e_+/- coefficient pair
    in `obs`: a `build_observables` mapping, or any mapping of those three
    keys to operators or matrices."""
    plus, minus = obs[which + "+"], obs[which + "-"]
    return plus + minus, 1j * (minus - plus), obs[which + "3"]


def _pair_blocks(lat: ModeLattice, beta):
    """BasisMap blocks: at every (m, node), new_TM = n (b^(TM)_m + i beta b^(TE)_m)
    and new_TE = n (b^(TM)_m - i beta b^(TE)_m), n = 1/sqrt(1 + beta^2), where
    beta is a `PAIR_BETA` monomial, read per node by `node_factors`."""
    blocks = []
    for b in node_factors(lat, beta):
        n = 1.0 / math.sqrt(1.0 + b**2)
        blocks.append(((n, 1j * (b * n)), (n, -1j * (b * n))))
    shape = lat.shape[1:] + (2, 2)
    # + 0.0 turns the -0.0 real parts of the +/-i entries into +0.0
    return np.broadcast_to(np.reshape(blocks, shape[1:]), shape) + 0.0


def make_pm_map(lat: ModeLattice) -> BasisMap:
    """Unitary (+/-) map: b^(+/-)_m = (b^(TM)_m +/- i b^(TE)_m)/sqrt(2).

    The (+) combination occupies the TM slot and the (-) combination the
    TE slot at the same (m, k) index; this is the beta = 1 pair block.
    """
    return BasisMap(lat, _pair_blocks(lat, PAIR_BETA["pm"]))


def make_rl_map(lat: ModeLattice) -> BasisMap:
    """Non-unitary circular (R/L) map.

    a^(R)_{m+1} = (b^(TM)_m + i beta b^(TE)_m)/sqrt(1 + beta^2),
    a^(L)_{m-1} = (b^(TM)_m - i beta b^(TE)_m)/sqrt(1 + beta^2),
    beta = c k_z / w per node.  The R mode built from azimuthal index m is
    stored in the TM slot at index m and the L mode in the TE slot; the
    +/-1 label shift is bookkeeping on the new-mode names, which is why a
    usable m_range must be at least 3 wide.
    """
    m_min, m_max = lat.m_range
    if m_max - m_min + 1 < 3:
        raise LatticeError("R/L map needs an m_range at least 3 wide")
    return BasisMap(lat, _pair_blocks(lat, PAIR_BETA["R/L"]))


# --------------------------------------------------------------------------
# Spherical-basis angular momentum
# --------------------------------------------------------------------------


def build_L_spherical(j_max):
    """(L_plus, L_minus, L_3) coefficient matrices of the spherical-basis
    angular momentum on the (j, m) ladder j = 1..j_max, hbar = 1.

    (j, m) sits at index j^2 - 1 + (j + m): j-major, m ascending.  L_plus
    carries (1/2) sqrt((j - m)(j + m + 1)) at (m + 1, m), on the
    subdiagonal, so that the L_x, L_y that `cartesian` pairs from them
    satisfy [L_x, L_y] = i L_z; the entry at each multiplet top is zero and
    is dropped.
    """
    j = np.repeat(np.arange(1, j_max + 1), 2 * np.arange(1, j_max + 1) + 1)
    m = np.arange(j.size) - j * (j + 1) + 1
    up = 0.5 * np.sqrt((j - m) * (j + m + 1))
    L_plus = sp.diags(up[:-1], -1, format="csr", dtype=complex)
    return L_plus, L_plus.getH().tocsr(), sp.diags(m, format="csr", dtype=complex)
