"""Discretized mode lattice and number-conserving quadratic operator algebra.

The mode continuum (family, m, k_perp, k_z) is replaced by a finite list
of (k_perp, k_z) nodes.  Continuum ladder operators map onto unit-normalized
discrete ones via

    delta(k - k') -> delta_jk / w_j,   int dk -> sum_j w_j,
    a(K_j)        -> b_j / sqrt(w_j),

where w_j is the measure of node j.  The w_j cancel in every integrated
bilinear, so a lattice node is its wavenumber alone, and every bilinear
observable becomes an exact finite normal-ordered quadratic form
O = sum_jk X_jk b_j^dag b_k (`dynops.zero_points` holds the c-numbers), and
every commutator reduces to a matrix commutator of the coefficient matrices.
A truncated-Fock dense oracle provides an independent brute-force
realization for small lattices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .modes import TE, TM, omega

# Every lattice carries both mode families, TM before TE in the index layout.
FAMILIES = (TM, TE)

# |k| bounds of a node, as cli.UNITS_RANGE bounds hbar and c: k^2 stays in
# [1e-200, 1e200], so no node factor raises, and a product that over- or
# underflows reaches the verify suites' non-finite check
NODE_RANGE = (1e-100, 1e100)


class LatticeError(ValueError):
    """Invalid lattice construction or mismatched-lattice operation."""


@dataclass(frozen=True)
class ModeLattice:
    """Finite discretization of the Bessel-mode continuum.

    A node is one (k_perp, k_z) wavenumber pair; the module docstring says
    why no weight is stored.  Index layout is family-major (`FAMILIES`),
    then m, then node.
    """

    m_range: tuple          # (m_min, m_max), inclusive
    nodes: tuple            # ((k_perp, k_z), ...)
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        m_min, m_max = self.m_range
        if m_min > m_max:
            raise LatticeError("empty m_range")
        object.__setattr__(self, "nodes", tuple((float(kp), float(kz)) for kp, kz in self.nodes))
        if not self.nodes:
            raise LatticeError("empty node list: a lattice needs at least one (k_perp, k_z) node")
        lo, hi = NODE_RANGE
        if not all(lo <= abs(v) <= hi for node in self.nodes for v in node):
            raise LatticeError(f"lattice nodes need |k| in [{lo:g}, {hi:g}]")
        if any(kp <= 0 for kp, _ in self.nodes):
            raise LatticeError("lattice nodes need k_perp > 0")
        for name, v in (("c", self.c), ("hbar", self.hbar)):
            if not (math.isfinite(v) and v > 0):
                raise LatticeError(f"lattice {name} must be positive and finite, got {v}")
        # omega = c hypot(k_perp, k_z) divides throughout, so its smallest
        # value on the lattice must not underflow
        if min(omega(self.c, kp, kz) for kp, kz in self.nodes) == 0:
            raise LatticeError("omega = c hypot(k_perp, k_z) underflows to 0 at a lattice node")

    @property
    def m_values(self):
        return range(self.m_range[0], self.m_range[1] + 1)

    @property
    def dim(self):
        return len(FAMILIES) * (self.m_range[1] - self.m_range[0] + 1) * len(self.nodes)

    def index(self, family, m, node):
        """Flat single-particle index of (family, m, node).

        m and the node number may be integer arrays; they broadcast together.
        The layout is the C-order ravel of (family, m, node), so numpy both
        computes and bounds-checks it.  A label outside the lattice raises,
        naming the first offending value: unchecked, a node number would
        alias another (m, node) index.
        """
        m_min, m_max = self.m_range
        labels = (("m", m, m_min, m_max), ("node", node, 0, len(self.nodes) - 1))
        shape = (len(FAMILIES),) + tuple(hi - lo + 1 for *_, lo, hi in labels)
        try:
            return np.ravel_multi_index((FAMILIES.index(family), m - m_min, node), shape)
        except ValueError:
            for name, v, lo, hi in labels:
                bad = np.asarray((v < lo) | (v > hi))
                if bad.any():
                    raise LatticeError(
                        f"{name}={np.asarray(v)[bad].flat[0]} outside range ({lo}, {hi})"
                    ) from None
            raise

    def pairs(self):
        """Flat (TM, TE) indices of every (m, node), shaped (n_m, n_nodes, 2)."""
        m = np.array(self.m_values)[:, None]
        node = np.arange(len(self.nodes))
        return np.stack([self.index(f, m, node) for f in FAMILIES], axis=-1)


def build_lattice(m_range, k_perp, k_z, c=1.0, hbar=1.0):
    """The product grid: one node per (k_perp, k_z) pair, k_perp-major."""
    return ModeLattice(tuple(m_range), tuple(itertools.product(k_perp, k_z)), c, hbar)


class QuadraticOperator:
    """Normal-ordered O = sum_jk X_jk b_j^dag b_k on a fixed lattice.

    X is a sparse complex D x D coefficient matrix over unit-normalized
    discrete ladder operators.  X may be a matrix or COO triplets
    (vals, (rows, cols)), whose duplicates add up.
    Only exact zeros are dropped from X, so no coefficient is lost to its
    size in the chosen units.
    """

    def __init__(self, lattice: ModeLattice, X):
        self.lattice = lattice
        D = lattice.dim
        self.X = sp.csr_matrix(X, dtype=complex, shape=(D, D))
        self.X.eliminate_zeros()

    def dagger(self):
        return QuadraticOperator(self.lattice, self.X.getH())

    def _check(self, other):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeError("operators live on different lattices")

    def __add__(self, other):
        if not isinstance(other, QuadraticOperator):
            return NotImplemented
        self._check(other)
        return QuadraticOperator(self.lattice, self.X + other.X)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return QuadraticOperator(self.lattice, self.X * scalar)

    __rmul__ = __mul__

    def max_abs(self):
        """Max-abs over the coefficient entries."""
        return abs(self.X.data).max() if self.X.nnz else 0.0


def commutator(A: QuadraticOperator, B: QuadraticOperator) -> QuadraticOperator:
    """[A, B] via the quadratic-form identity [b*Xb, b*Yb] = b*(XY - YX)b."""
    A._check(B)
    return QuadraticOperator(A.lattice, (A.X @ B.X - B.X @ A.X).tocsr())


@dataclass(frozen=True, eq=False)
class BasisMap:
    """Invertible linear map b' = T b of the discrete ladder operators that
    mixes only the (TM, TE) pair of each (m, node).

    `blocks` holds one 2 x 2 block per pair, shaped like `pairs`, the
    read-only `lattice.pairs()`, plus a last axis of 2: rows are new ladders
    and columns old ones, both in `FAMILIES` order.  T, its inverse and its
    condition number all come from the blocks.  Maps compare by identity.
    """

    lattice: ModeLattice
    blocks: np.ndarray
    pairs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=complex)
        pairs = self.lattice.pairs()
        pairs.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "pairs", pairs)
        if blocks.shape != pairs.shape + (2,):
            raise LatticeError("BasisMap needs one 2 x 2 block per (TM, TE) pair")

    def _scatter(self, blocks):
        """Sparse D x D matrix with `blocks` placed on the (TM, TE) pairs."""
        rows = np.broadcast_to(self.pairs[..., :, None], blocks.shape)
        cols = np.broadcast_to(self.pairs[..., None, :], blocks.shape)
        D = self.lattice.dim
        return sp.csr_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(D, D))

    @cached_property
    def T(self):
        return self._scatter(self.blocks)

    @cached_property
    def inverse(self):
        """T^-1 (sparse), every block inverted in one batch."""
        try:
            inv = np.linalg.inv(self.blocks)
        except np.linalg.LinAlgError as exc:
            raise LatticeError("singular basis map") from exc
        if not np.all(np.isfinite(inv)):
            raise LatticeError("singular basis map")
        return self._scatter(inv)

    @property
    def condition_number(self):
        """max / min singular value of T: the singular values of T are
        those of all its blocks together (not the largest per-block ratio)."""
        sv = np.linalg.svd(self.blocks, compute_uv=False)
        return float(sv.max() / sv.min())

    @property
    def unitarity_residual(self):
        """max |T^dag T - I| over the entries."""
        R = (self.T.getH() @ self.T - sp.identity(self.lattice.dim, format="csr")).tocsr()
        return float(abs(R.data).max()) if R.nnz else 0.0


def apply_basis(A: QuadraticOperator, bm: BasisMap) -> QuadraticOperator:
    """Re-express A in the mapped basis: X' = (T^-1)^dag X T^-1, same abstract operator."""
    if A.lattice != bm.lattice:
        raise LatticeError("basis map lattice mismatch")
    Tinv = bm.inverse
    return QuadraticOperator(A.lattice, Tinv.getH() @ A.X @ Tinv)


def coherent_expectation(A: QuadraticOperator, alpha: np.ndarray) -> complex:
    """<alpha| A |alpha> = conj(alpha) . X . alpha, for a complex amplitude
    vector alpha of length lattice.dim in the flat index layout."""
    return complex(np.vdot(alpha, A.X @ alpha))


class FockOracle:
    """Truncated-Fock realization of the lattice ladder algebra.

    Modes are cut at occupation n_max; the state space has (n_max+1)^D
    dimensions, and state s holds occupation n_j(s) in base-(n_max+1)
    digit j of s, mode 0 the most significant (the order of the kron
    chain b_j = 1 x .. x a x .. x 1).  Every matrix is read off those
    digits and kept sparse.  Used only as an independent brute-force check;
    the truncation makes [b, b^dag] = 1 fail on states touching level
    n_max, so comparisons should be restricted with :meth:`occupancy_mask`.
    """

    def __init__(self, lattice: ModeLattice, n_max=3):
        D = lattice.dim
        dim = (n_max + 1) ** D
        if dim > 20000:
            raise LatticeError(f"Fock space dimension {dim} exceeds 20000")
        self.lattice = lattice
        self.n_max = n_max
        self.dim = dim
        # stride[j] = e_j, the index step of one photon in mode j; occ[j, s] = n_j(s)
        self._stride = (n_max + 1) ** np.arange(D - 1, -1, -1)
        self._occ = (np.arange(dim) // self._stride[:, None] % (n_max + 1)).astype(np.min_scalar_type(n_max))
        self._sqrt = np.sqrt(np.arange(n_max + 1))

    def realize(self, A: QuadraticOperator):
        """Sparse matrix of sum X_jk b_j^dag b_k on the truncated space.

        The term (r, c) takes state s to s - e_c + e_r with the entry
        X_rc sqrt(n_r + 1) sqrt(n_c), read off the digits of s.  That is the
        product of the two ladder entries, as b_r^dag b_c rounds it: on the
        diagonal, sqrt(n) sqrt(n) rather than n.  Off-diagonal terms never
        share an entry; diagonal ones add up per state in the order of A.X's
        COO triplets, from a complex zero.
        """
        coo = A.X.tocoo()
        moves = coo.row != coo.col
        r, c = coo.row[moves], coo.col[moves]
        n_r, n_c = self._occ[r], self._occ[c]
        # source states hold a photon in mode c and room for one more in mode r
        flat = np.flatnonzero((n_c > 0) & (n_r < self.n_max))
        t, src = np.divmod(flat, self.dim)
        vals = 0j + coo.data[moves][t] * (self._sqrt[n_r.ravel()[flat] + 1] * self._sqrt[n_c.ravel()[flat]])
        dest = src + (self._stride[r] - self._stride[c])[t]
        diag = np.zeros(self.dim, dtype=complex)
        for j, v in zip(coo.row[~moves], coo.data[~moves]):
            held = np.flatnonzero(self._occ[j])
            root = self._sqrt[self._occ[j, held]]
            diag[held] += v * (root * root)
        on = np.flatnonzero(diag)
        out = sp.csr_matrix((np.concatenate([vals, diag[on]]),
                             (np.concatenate([dest, on]), np.concatenate([src, on]))),
                            shape=(self.dim, self.dim), dtype=complex)
        out.eliminate_zeros()
        return out

    def occupancy_mask(self, limit):
        """Boolean mask of product states with every occupation <= limit."""
        return (self._occ <= limit).all(axis=0)
