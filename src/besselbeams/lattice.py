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
A Fock oracle realizes each operator as dense matrices on the photon-number
sectors, an independent brute-force check for small lattices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    why no weight is stored.  The flat index layout is `shape`.
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
    def shape(self):
        """(family, m, node) extents, whose C-order ravel is the flat index: family-major
        (`FAMILIES`), then m, then node."""
        return len(FAMILIES), self.m_range[1] - self.m_range[0] + 1, len(self.nodes)

    @property
    def dim(self):
        return math.prod(self.shape)

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
        try:
            return np.ravel_multi_index((FAMILIES.index(family), m - m_min, node), self.shape)
        except ValueError:
            for name, v, lo, hi in labels:
                bad = np.asarray((v < lo) | (v > hi))
                if bad.any():
                    raise LatticeError(
                        f"{name}={np.asarray(v)[bad].flat[0]} outside range ({lo}, {hi})"
                    ) from None
            raise


def build_lattice(m_range, k_perp, k_z, c=1.0, hbar=1.0):
    """The product grid: one node per (k_perp, k_z) pair, k_perp-major."""
    return ModeLattice(tuple(m_range), tuple(itertools.product(k_perp, k_z)), c, hbar)


def term_span(shift, n_m):
    """Columns m (0..n_m-1) of a term with this m shift whose row m + shift is on the lattice."""
    return slice(max(0, -shift), n_m - max(0, shift))


def _products(A, B):
    """a * b for the complex arrays paired in A and B, flattened in turn, as scipy.sparse's
    kernels form it: (ar br - ai bi) + i (ar bi + ai br) in separate real operations,
    which numpy never fuses (its complex multiply may, by SIMD level)."""
    a, b = np.concatenate(A, axis=None), np.concatenate(B, axis=None)
    p = np.empty(a.shape, dtype=complex)
    np.subtract(a.real * b.real, a.imag * b.imag, out=p.real)
    np.add(a.real * b.imag, a.imag * b.real, out=p.imag)
    return p


class QuadraticOperator:
    """Normal-ordered O = sum_jk X_jk b_j^dag b_k on a fixed lattice.

    Lattice operators are node-local and shift m by a fixed amount per family
    pair, so X is held as `terms`: {(row family, column family, m shift):
    complex array over (m, node)}, whose entry at column m is the coefficient
    of b^dag_{row family, m + shift} b_{column family, m}, and 0 where m + shift
    leaves the lattice.  `X` is a CSR view of the terms, built on first read.
    """

    def __init__(self, lattice: ModeLattice, terms):
        self.lattice = lattice
        self.terms = terms

    @cached_property
    def X(self):
        """The D x D coefficient matrix in canonical CSR, exact zeros eliminated."""
        lat = self.lattice
        empty = (np.zeros(0, dtype=complex), np.zeros(0, dtype=int), np.zeros(0, dtype=int))
        vals, rows, cols = (np.concatenate(x, axis=None) for x in zip(empty, *_entries(self)))
        X = sp.csr_matrix((vals, (rows, cols)), shape=(lat.dim, lat.dim))
        X.eliminate_zeros()
        return X

    def dagger(self):
        # column m of (c, r, -s) is row m of (r, c, s): a roll by s (by slices, cheaper than
        # np.roll), which brings the zeros past the lattice edge round to the other end
        return QuadraticOperator(self.lattice, {(c, r, -s): np.concatenate((v[-s:], v[:-s])).conj()
                                                for (r, c, s), v in self.terms.items()})

    def _check(self, other):
        if self.lattice is not other.lattice and self.lattice != other.lattice:
            raise LatticeError("operators live on different lattices")

    def __add__(self, other):
        if not isinstance(other, QuadraticOperator):
            return NotImplemented
        self._check(other)
        A, B = self.terms, other.terms  # a term that one side lacks reads 0 there
        return QuadraticOperator(self.lattice, {k: A.get(k, 0.0) + B.get(k, 0.0) for k in {**A, **B}})

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return QuadraticOperator(self.lattice, {k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        """The operator whose coefficient matrix is X_self X_other (not the operator
        product): (r, f, s1) times (f, c, s2) gives (r, c, s1 + s2) with V[m] =
        A[m + s2] B[m].  Each entry sums its `_products` from a complex zero in the
        order of CSR's matmul, intermediate index ascending: family, then m."""
        self._check(other)
        _, n_m, n_nodes = self.lattice.shape
        sums, A, B, out = [], [], [], {}
        for (f, c, s2), b in sorted(other.terms.items(), key=lambda t: (FAMILIES.index(t[0][0]), t[0][2])):
            for (r, _, s1), a in (t for t in self.terms.items() if t[0][1] == f):
                # the columns m whose rows m + s2 and m + s1 + s2 stay on the lattice
                lo, hi = max(0, -s2, -s1 - s2), n_m - max(0, s2, s1 + s2)
                if lo < hi:
                    sums.append(((r, c, s1 + s2), lo, hi))
                    A.append(a[lo + s2:hi + s2])
                    B.append(b[lo:hi])
        # one batch of products: each pair's hi - lo rows (of n_nodes), in turn
        p = _products(A, B).reshape(-1, n_nodes) if sums else None
        for key, lo, hi in sums:
            out.setdefault(key, np.zeros((n_m, n_nodes), dtype=complex))[lo:hi] += p[:hi - lo]
            p = p[hi - lo:]
        return QuadraticOperator(self.lattice, out)

    def max_abs(self, margin=0):
        """Max-abs over the coefficient entries whose row and column m both
        lie at least `margin` inside the m window (0 for no entry)."""
        n = self.lattice.shape[1]
        block = [v[max(margin, margin - s):n - max(margin, margin + s)] for (*_, s), v in self.terms.items()]
        return np.abs(np.concatenate(block, axis=None)).max(initial=0.0) if block else 0.0


def _entries(A: QuadraticOperator):
    """(values, flat rows, flat columns) of each term of A, over the columns m whose row
    m + shift is on the lattice, each shaped (m, node)."""
    index = np.arange(A.lattice.dim).reshape(A.lattice.shape)
    for (r, c, s), v in A.terms.items():
        span = term_span(s, index.shape[1])
        yield v[span], index[FAMILIES.index(r), span.start + s:span.stop + s], index[FAMILIES.index(c), span]


def commutator(A: QuadraticOperator, B: QuadraticOperator) -> QuadraticOperator:
    """[A, B] via the quadratic-form identity [b*Xb, b*Yb] = b*(XY - YX)b."""
    return A @ B - B @ A


@dataclass(frozen=True, eq=False)
class BasisMap:
    """Invertible linear map b' = T b of the discrete ladder operators that
    mixes only the (TM, TE) pair of each (m, node).

    `blocks` holds one 2 x 2 block per pair, shaped (n_m, n_nodes, 2, 2):
    rows are new ladders and columns old ones, both in `FAMILIES` order.
    T, T^-1 (operators of shift-0 family-mixing terms) and the condition
    number all come from the blocks.  Maps compare by identity.
    """

    lattice: ModeLattice
    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", np.asarray(self.blocks, dtype=complex))
        if self.blocks.shape != self.lattice.shape[1:] + (2, 2):
            raise LatticeError("BasisMap needs one 2 x 2 block per (TM, TE) pair")

    def _operator(self, blocks):
        pairs = itertools.product(enumerate(FAMILIES), repeat=2)
        return QuadraticOperator(self.lattice, {(f, g, 0): blocks[..., i, j] for (i, f), (j, g) in pairs})

    @cached_property
    def T(self):
        return self._operator(self.blocks)

    @cached_property
    def inverse(self):
        """T^-1, every block inverted in one batch."""
        try:
            inv = np.linalg.inv(self.blocks)
        except np.linalg.LinAlgError as exc:
            raise LatticeError("singular basis map") from exc
        if not np.all(np.isfinite(inv)):
            raise LatticeError("singular basis map")
        return self._operator(inv)

    @property
    def condition_number(self):
        """max / min singular value of T, over all its blocks together (not the
        largest per-block ratio).  A block's pair s1 >= s2 solves s1^2 + s2^2 =
        |B|_F^2, s1 s2 = |det B| in closed form (the inner root, of (s1^2 - s2^2)^2,
        clipped at 0 against rounding): LAPACK's SVD of many 2 x 2 blocks costs more."""
        b = self.blocks
        frob2 = (np.abs(b) ** 2).sum(axis=(-2, -1))
        det = np.abs(b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0])
        s1 = np.sqrt(0.5 * (frob2 + np.sqrt(np.maximum((frob2 - 2.0 * det) * (frob2 + 2.0 * det), 0.0))))
        return float(s1.max() / (det / s1).min())

    @property
    def unitarity_residual(self):
        """max |T^dag T - I| over the entries."""
        identity = self._operator(np.broadcast_to(np.eye(2), self.blocks.shape))
        return float((self.T.dagger() @ self.T - identity).max_abs())


def apply_basis(A: QuadraticOperator, bm: BasisMap) -> QuadraticOperator:
    """Re-express A in the mapped basis: X' = (T^-1)^dag X T^-1, same abstract operator."""
    if A.lattice != bm.lattice:
        raise LatticeError("basis map lattice mismatch")
    return bm.inverse.dagger() @ A @ bm.inverse


def coherent_expectation(A: QuadraticOperator, alpha: np.ndarray) -> complex:
    """<alpha| A |alpha> = conj(alpha) . X . alpha, for a complex amplitude
    vector alpha of length lattice.dim in the flat index layout.  Each row of
    X . alpha sums its products X_jk alpha_k as CSR's matvec does: from a
    complex zero, column index ascending (column family, then m)."""
    x = np.reshape(alpha, A.lattice.shape)
    y = np.zeros(x.shape, dtype=complex)
    for (r, c, s), v in sorted(A.terms.items(), key=lambda t: (FAMILIES.index(t[0][1]), -t[0][2])):
        span = term_span(s, x.shape[1])
        p = _products([v[span]], [x[FAMILIES.index(c), span]])
        y[FAMILIES.index(r), span.start + s:span.stop + s] += p.reshape(-1, x.shape[2])
    return complex(np.vdot(alpha, y.ravel()))


class FockOracle:
    """The lattice ladder algebra on photon-number sectors, a brute-force check: each b^dag X b
    conserves the photon number, so it acts on each N-photon sector alone, exactly.  `sectors[N]`,
    N = 1..n_max, lists the sector's occupations in descending lexicographic order (e_0, e_1, ..)."""

    def __init__(self, lattice: ModeLattice, n_max=3):
        D, self.n_max = lattice.dim, n_max
        if math.comb(D + n_max, n_max) - 1 > 20000:
            raise LatticeError(f"the 1..{n_max}-photon sectors of {D} modes hold more than 20000 states")
        self._sqrt, self.sectors, self._moves = np.sqrt(np.arange(n_max + 1)), {}, {}
        for N in range(1, n_max + 1):
            modes = itertools.combinations_with_replacement(range(D), N)
            occ = self.sectors[N] = np.array([np.bincount(m, minlength=D) for m in modes])
            rank = {n: i for i, n in enumerate(map(tuple, occ.tolist()))}
            # each move of a photon from an occupied mode c of state s to another mode r: its flat
            # entry (s - e_c + e_r, s), r, c, and the occupations n_r + 1, n_c its factors read
            s, c, r = np.nonzero((occ[:, :, None] > 0) & ~np.eye(D, dtype=bool))
            moved = occ[s] - (np.arange(D) == c[:, None]) + (np.arange(D) == r[:, None])
            t = np.array([rank[n] for n in map(tuple, moved.tolist())], dtype=int)
            self._moves[N] = t * len(occ) + s, r, c, occ[s, r] + 1, occ[s, c]

    def realize(self, A: QuadraticOperator):
        """{N: the dense matrix of sum X_jk b_j^dag b_k on sector N}.  A term X_rc, r != c, takes n
        to n - e_c + e_r with X_rc sqrt(n_r + 1) sqrt(n_c), as b_r^dag b_c rounds it; X_jj adds
        X_jj n_j.  Each entry sums its terms from a complex zero, mode ascending (cumsum is sequential)."""
        X, out = coefficient_matrix(A), {}
        for N, (entry, r, c, up, down) in self._moves.items():
            occ = self.sectors[N]
            M = out[N] = np.zeros((len(occ), len(occ)), dtype=complex)
            M.reshape(-1)[entry] += X[r, c] * (self._sqrt[up] * self._sqrt[down])
            M.reshape(-1)[::len(occ) + 1] += np.cumsum(np.diagonal(X) * occ, axis=1)[:, -1]
        return out


def coefficient_matrix(A: QuadraticOperator):
    """A's D x D coefficient matrix, read off its terms."""
    X = np.zeros((A.lattice.dim,) * 2, dtype=complex)
    for v, rows, cols in _entries(A):
        X[rows, cols] = v
    return X
