"""Discretized mode lattice and number-conserving quadratic operator algebra.

The mode continuum (family, m, k_perp, k_z) is replaced by a finite grid
with quadrature weights.  Continuum ladder operators map onto
unit-normalized discrete ones via

    delta(k - k') -> delta_jk / w_j,   int dk -> sum_j w_j,
    a(K_j)        -> b_j / sqrt(w_j),

so every bilinear observable becomes an exact finite quadratic form
O = sum_jk X_jk b_j^dag b_k + s, and every commutator reduces to a matrix
commutator of the coefficient matrices.  A truncated-Fock dense oracle
provides an independent brute-force realization for small lattices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .modes import TE, TM

SPARSE_DROP = 1e-15


class LatticeError(ValueError):
    """Invalid lattice construction or mismatched-lattice operation."""


@dataclass(frozen=True)
class ModeLattice:
    """Finite discretization of the Bessel-mode continuum.

    Index layout is family-major, then m, then k_perp node, then k_z node.
    Node weights carry the 2D quadrature measure dk_perp dk_z.
    """

    m_range: tuple          # (m_min, m_max), inclusive
    k_perp_nodes: tuple     # ((value, weight), ...)
    k_z_nodes: tuple        # ((value, weight), ...)
    families: tuple = (TM, TE)
    c: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        m_min, m_max = self.m_range
        if m_min > m_max:
            raise LatticeError("empty m_range")
        object.__setattr__(self, "k_perp_nodes", tuple((float(v), float(w)) for v, w in self.k_perp_nodes))
        object.__setattr__(self, "k_z_nodes", tuple((float(v), float(w)) for v, w in self.k_z_nodes))
        object.__setattr__(self, "families", tuple(self.families))
        for v, w in self.k_perp_nodes + self.k_z_nodes:
            if not (math.isfinite(v) and math.isfinite(w)):
                raise LatticeError("lattice nodes need finite values and weights")
        for v, w in self.k_perp_nodes:
            if v <= 0 or w <= 0:
                raise LatticeError("k_perp nodes need value > 0 and weight > 0")
        for v, w in self.k_z_nodes:
            if v == 0 or w <= 0:
                raise LatticeError("k_z nodes need value != 0 and weight > 0")
        for f in self.families:
            if f not in (TM, TE):
                raise LatticeError(f"unknown family {f!r}")
        for name, v in (("c", self.c), ("hbar", self.hbar)):
            if not (math.isfinite(v) and v > 0):
                raise LatticeError(f"lattice {name} must be positive and finite, got {v}")

    @property
    def m_values(self):
        return range(self.m_range[0], self.m_range[1] + 1)

    @property
    def dim(self):
        return (
            len(self.families)
            * (self.m_range[1] - self.m_range[0] + 1)
            * len(self.k_perp_nodes)
            * len(self.k_z_nodes)
        )

    def index(self, family, m, ik_perp, ik_z):
        """Flat single-particle index of (family, m, k_perp node, k_z node).

        m and the node numbers may be integer arrays; they broadcast together.
        """
        fi = self.families.index(family)
        m_min, m_max = self.m_range
        if np.any((m < m_min) | (m > m_max)):
            raise LatticeError(f"m={m} outside range {self.m_range}")
        nm = m_max - m_min + 1
        nkp = len(self.k_perp_nodes)
        nkz = len(self.k_z_nodes)
        return ((fi * nm + (m - m_min)) * nkp + ik_perp) * nkz + ik_z

    def unpack(self, idx):
        nkz = len(self.k_z_nodes)
        nkp = len(self.k_perp_nodes)
        nm = self.m_range[1] - self.m_range[0] + 1
        idx, ik_z = divmod(idx, nkz)
        idx, ik_perp = divmod(idx, nkp)
        fi, mi = divmod(idx, nm)
        return self.families[fi], self.m_range[0] + mi, ik_perp, ik_z

    def weight(self, idx):
        _, _, ip, iz = self.unpack(idx)
        return self.k_perp_nodes[ip][1] * self.k_z_nodes[iz][1]

    def omega(self, idx):
        _, _, ip, iz = self.unpack(idx)
        return self.c * math.hypot(self.k_perp_nodes[ip][0], self.k_z_nodes[iz][0])


def build_lattice(m_range, k_perp_nodes, k_z_nodes, families=(TM, TE), c=1.0, hbar=1.0):
    return ModeLattice(tuple(m_range), tuple(k_perp_nodes), tuple(k_z_nodes),
                       tuple(families), c, hbar)


class QuadraticOperator:
    """O = sum_jk X_jk b_j^dag b_k + s on a fixed lattice.

    X is a sparse complex D x D coefficient matrix over unit-normalized
    discrete ladder operators, s the c-number (zero-point) part.
    """

    def __init__(self, lattice: ModeLattice, X=None, s=0.0):
        self.lattice = lattice
        D = lattice.dim
        if X is None:
            X = sp.csr_matrix((D, D), dtype=complex)
        else:
            X = sp.csr_matrix(X, dtype=complex, shape=(D, D))
            X.data[np.abs(X.data) < SPARSE_DROP] = 0.0
            X.eliminate_zeros()
        self.X = X
        self.s = complex(s)

    @classmethod
    def from_terms(cls, lattice, terms, s=0.0):
        """Build from an iterable of (row_idx, col_idx, coeff)."""
        rows, cols, vals = [], [], []
        for r, c, v in terms:
            rows.append(r)
            cols.append(c)
            vals.append(v)
        D = lattice.dim
        X = sp.coo_matrix((vals, (rows, cols)), shape=(D, D), dtype=complex)
        return cls(lattice, X.tocsr(), s)

    def dense(self):
        return self.X.toarray()

    @property
    def is_hermitian(self):
        if abs(self.s.imag) > 1e-14:
            return False
        diff = (self.X - self.X.getH()).tocoo()
        return (abs(diff.data).max() if diff.nnz else 0.0) <= 1e-14

    def dagger(self):
        return QuadraticOperator(self.lattice, self.X.getH(), np.conj(self.s))

    def _check(self, other):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeError("operators live on different lattices")

    def __add__(self, other):
        if isinstance(other, QuadraticOperator):
            self._check(other)
            return QuadraticOperator(self.lattice, self.X + other.X, self.s + other.s)
        return QuadraticOperator(self.lattice, self.X, self.s + other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return QuadraticOperator(self.lattice, self.X * scalar, self.s * scalar)

    __rmul__ = __mul__

    def max_abs(self):
        """Max-abs over coefficient entries and the scalar part."""
        m = abs(self.X.data).max() if self.X.nnz else 0.0
        return max(m, abs(self.s))

    def restrict(self, indices):
        """Projection P O P onto a subset of single-particle indices."""
        D = self.lattice.dim
        mask = np.zeros(D)
        mask[list(indices)] = 1.0
        P = sp.diags(mask)
        return QuadraticOperator(self.lattice, P @ self.X @ P, self.s)

    def dump(self):
        """Deterministic plain-text dump: 'row col re im' triplets plus scalar."""
        coo = self.X.tocoo()
        order = np.lexsort((coo.col, coo.row))
        lines = [
            f"{coo.row[i]} {coo.col[i]} {coo.data[i].real:.17g} {coo.data[i].imag:.17g}"
            for i in order
        ]
        lines.append(f"scalar {self.s.real:.17g} {self.s.imag:.17g}")
        return "\n".join(lines)


def commutator(A: QuadraticOperator, B: QuadraticOperator) -> QuadraticOperator:
    """[A, B] via the quadratic-form identity [b*Xb, b*Yb] = b*(XY - YX)b."""
    A._check(B)
    return QuadraticOperator(A.lattice, (A.X @ B.X - B.X @ A.X).tocsr(), 0.0)


@dataclass(frozen=True)
class BasisMap:
    """Invertible linear map b' = T b of the discrete ladder operators.

    T is stored sparse.  Its sparsity pattern splits the indices into
    connected components, so T is block diagonal up to a permutation; the
    inverse and the condition number are computed block by block (a dense
    T is a single D x D block).
    """

    lattice: ModeLattice
    T: sp.csr_matrix

    def __post_init__(self):
        T = sp.csr_matrix(self.T, dtype=complex)
        object.__setattr__(self, "T", T)
        D = self.lattice.dim
        if T.shape != (D, D):
            raise LatticeError("BasisMap dimension mismatch")

    @cached_property
    def _blocks(self):
        """[(indices, blocks)] per block size: indices (n, s) holds the
        ascending indices of each component, blocks (n, s, s) its entries."""
        coo = self.T.tocoo()
        # label every index with the smallest index of its component: take
        # the minimum over each stored entry's row and column, then jump
        # to the label's own label, until nothing changes
        root = np.arange(self.lattice.dim)
        while True:
            new = root.copy()
            np.minimum.at(new, coo.row, root[coo.col])
            np.minimum.at(new, coo.col, root[coo.row])
            new = new[new]
            if np.array_equal(new, root):
                break
            root = new
        _, label = np.unique(root, return_inverse=True)
        sizes = np.bincount(label)
        order = np.argsort(label, kind="stable")
        start = np.cumsum(sizes) - sizes
        out = []
        for s in np.unique(sizes):
            idx = order[start[sizes == s][:, None] + np.arange(s)]
            entries = self.T[np.repeat(idx, s, axis=1), np.tile(idx, (1, s))]
            out.append((idx, entries.toarray().reshape(-1, s, s)))
        return out

    @cached_property
    def inverse(self):
        """T^-1 (sparse), inverted one batch of equal-size blocks at a time."""
        rows, cols, vals = [], [], []
        for idx, blocks in self._blocks:
            try:
                inv = np.linalg.inv(blocks)
            except np.linalg.LinAlgError as exc:
                raise LatticeError("singular basis map") from exc
            if not np.all(np.isfinite(inv)):
                raise LatticeError("singular basis map")
            rows.append(np.broadcast_to(idx[:, :, None], inv.shape).ravel())
            cols.append(np.broadcast_to(idx[:, None, :], inv.shape).ravel())
            vals.append(inv.ravel())
        D = self.lattice.dim
        return sp.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(D, D)
        )

    @property
    def condition_number(self):
        """max / min singular value of T: the singular values of T are
        those of all its blocks together (not the largest per-block ratio)."""
        sv = np.concatenate([np.linalg.svd(b, compute_uv=False).ravel() for _, b in self._blocks])
        return float(sv.max() / sv.min())

    @property
    def unitarity_residual(self):
        """max |T^dag T - I| over the entries."""
        R = (self.T.getH() @ self.T - sp.identity(self.lattice.dim, format="csr")).tocsr()
        return float(abs(R.data).max()) if R.nnz else 0.0

    @property
    def is_unitary(self):
        return self.unitarity_residual <= 1e-12


def apply_basis(A: QuadraticOperator, bm: BasisMap) -> QuadraticOperator:
    """Re-express A in the mapped basis: X' = (T^-1)^dag X T^-1, same abstract operator."""
    if A.lattice != bm.lattice:
        raise LatticeError("basis map lattice mismatch")
    Tinv = bm.inverse
    return QuadraticOperator(A.lattice, Tinv.getH() @ A.X @ Tinv, A.s)


class CoherentAmplitude(dict):
    """Map lattice index -> complex amplitude; missing indices are vacuum."""

    def vector(self, lattice):
        v = np.zeros(lattice.dim, dtype=complex)
        for idx, a in self.items():
            v[idx] = a
        return v


def coherent_expectation(A: QuadraticOperator, alpha: CoherentAmplitude) -> complex:
    """<alpha| A |alpha> = conj(alpha) . X . alpha + s."""
    v = alpha.vector(A.lattice)
    return complex(np.vdot(v, A.X @ v) + A.s)


class FockOracle:
    """Truncated-Fock realization of the lattice ladder algebra.

    Modes are cut at occupation n_max; the state space has (n_max+1)^D
    dimensions.  Ladder matrices are kept sparse (each is a kron chain of
    diagonals).  Used only as an independent brute-force check; the
    truncation makes [b, b^dag] = 1 fail on states touching level n_max,
    so comparisons should be restricted with :meth:`occupancy_mask`.
    """

    def __init__(self, lattice: ModeLattice, n_max=3):
        D = lattice.dim
        dim = (n_max + 1) ** D
        if dim > 20000:
            raise LatticeError(f"Fock space dimension {dim} exceeds 20000")
        self.lattice = lattice
        self.n_max = n_max
        self.dim = dim
        a1 = sp.diags(np.sqrt(np.arange(1, n_max + 1)), offsets=1)
        eye = sp.identity(n_max + 1, format="csr")
        self.b = []
        for j in range(D):
            M = None
            for i in range(D):
                o = a1 if i == j else eye
                M = o if M is None else sp.kron(M, o, format="csr")
            self.b.append(M.tocsr())
        self.bdag = [M.conj().T.tocsr() for M in self.b]

    def realize(self, A: QuadraticOperator):
        """Sparse matrix of sum X_jk b_j^dag b_k + s on the truncated space."""
        out = A.s * sp.identity(self.dim, format="csr", dtype=complex)
        coo = A.X.tocoo()
        for r, c, v in zip(coo.row, coo.col, coo.data):
            out = out + v * (self.bdag[r] @ self.b[c])
        return out.tocsr()

    def occupancy_mask(self, limit):
        """Boolean mask of product states with every occupation <= limit."""
        idx = np.arange(self.dim)
        ok = np.ones(self.dim, dtype=bool)
        for _ in range(self.lattice.dim):
            idx, n = divmod(idx, self.n_max + 1)
            ok &= n <= limit
        return ok

    def coherent_vector(self, alpha: CoherentAmplitude):
        """Normalized truncated coherent product state."""
        n = np.arange(self.n_max + 1)
        fact = np.array([math.factorial(k) for k in n], dtype=float)
        v = None
        amps = alpha.vector(self.lattice)
        for a in amps:
            comp = a**n / np.sqrt(fact)
            comp = comp / np.linalg.norm(comp)
            v = comp if v is None else np.kron(v, comp)
        return v

    def expectation(self, A: QuadraticOperator, alpha: CoherentAmplitude):
        v = self.coherent_vector(alpha)
        return complex(np.vdot(v, self.realize(A) @ v))
