"""scipy.sparse arithmetic on lattice operators: the reference that the term
arithmetic of `besselbeams.lattice` must equal bit for bit.

Each function takes the CSR views (`QuadraticOperator.X`) of its operands
and computes what an operator held as one D x D CSR matrix computed: a
product is CSR's matmul, a sum CSR's binop, an expectation CSR's matvec.
Results keep the structure scipy leaves (a product's columns need not be
sorted), with exact zeros eliminated; `same` compares them in canonical
order.  `operator` goes the other way, from a matrix to terms.
"""

import numpy as np
import scipy.sparse as sp

from besselbeams.lattice import FAMILIES, QuadraticOperator


def operator(lat, X):
    """The lattice operator of a D x D matrix or of COO triplets (vals, (rows, cols)),
    duplicates adding up; every entry must be node-local."""
    X = sp.coo_matrix(X, shape=(lat.dim, lat.dim), dtype=complex).tocsr().tocoo()  # duplicates summed
    (fr, mr, nr), (fc, mc, nc) = np.unravel_index(X.row, lat.shape), np.unravel_index(X.col, lat.shape)
    assert np.array_equal(nr, nc), "an entry couples two lattice nodes"
    terms = {}
    for f, g, s, m, node, v in zip(fr.tolist(), fc.tolist(), (mr - mc).tolist(), mc, nc, X.data):
        terms.setdefault((FAMILIES[f], FAMILIES[g], s), np.zeros(lat.shape[1:], dtype=complex))[m, node] += v
    return QuadraticOperator(lat, terms)


def pairs(lat):
    """Flat (TM, TE) indices of every (m, node), shaped (n_m, n_nodes, 2), from `index`."""
    m = np.array(lat.m_values)[:, None]
    node = np.arange(len(lat.nodes))
    return np.stack([lat.index(f, m, node) for f in FAMILIES], axis=-1)


def held(X):
    """X as the operator held it: CSR, complex, exact zeros eliminated."""
    X = sp.csr_matrix(X, dtype=complex)
    X.eliminate_zeros()
    return X


def commutator(X, Y):
    return held(X @ Y - Y @ X)


def minus(X, Y):
    """X - Y as operators formed it, X + (-1.0) Y."""
    return held(X + Y * -1.0)


def scale(X, x):
    return held(X * x)


def apply_basis(X, lat, blocks):
    """(T^-1)^dag X T^-1 with T^-1 scattered onto the (TM, TE) pairs, every
    block inverted in one batch."""
    inv = np.linalg.inv(blocks)
    flat = pairs(lat)
    rows = np.broadcast_to(flat[..., :, None], inv.shape)
    cols = np.broadcast_to(flat[..., None, :], inv.shape)
    Tinv = sp.csr_matrix((inv.ravel(), (rows.ravel(), cols.ravel())), shape=(lat.dim, lat.dim))
    return held(Tinv.getH() @ X @ Tinv)


def expectation(X, alpha):
    """conj(alpha) . X . alpha, with X . alpha CSR's matvec."""
    return complex(np.vdot(alpha, X @ alpha))


def same(X, Y):
    """Equal structure and equal bits, signed zeros included, in canonical order."""
    X, Y = (sp.csr_matrix(M, copy=True) for M in (X, Y))
    for M in (X, Y):
        M.sort_indices()
    return (X.shape == Y.shape and X.dtype == Y.dtype == complex
            and np.array_equal(X.indptr, Y.indptr) and np.array_equal(X.indices, Y.indices)
            and np.array_equal(X.data.view(np.int64), Y.data.view(np.int64)))

