"""Fock-space matrices as kron chains of single-mode ones: the reference that
lattice.FockOracle, which builds each photon-number sector from the
occupations of its states, is checked against.  Every mode is cut at
occupation n_max; state s holds n_j(s) in base-(n_max + 1) digit j of s,
mode 0 the most significant, so the states of at most n_max photons are
exact."""

import numpy as np
import scipy.sparse as sp


def kron_chains(n_modes, single):
    """[1 x .. x single x .. x 1, single at factor j, for each mode j] as CSR
    matrices, mode 0 the leftmost factor."""
    eye = sp.identity(single.shape[0], format="csr")
    chains = []
    for j in range(n_modes):
        M = single if j == 0 else eye
        for i in range(1, n_modes):
            M = sp.kron(M, single if i == j else eye, format="csr")
        chains.append(M.tocsr())
    return chains


def kron_ladders(n_modes, n_max):
    """[b_0, .., b_(n_modes - 1)] with a = sum_n sqrt(n) |n-1><n| cut at n_max."""
    return kron_chains(n_modes, sp.diags(np.sqrt(np.arange(1, n_max + 1)), offsets=1))


def kron_realize(A, n_max):
    """sum X_rc b_r^dag b_c over A's coefficient entries in CSR order, each term
    the sparse product of two ladder chains, but b_j^dag b_j the number chain
    1 x .. x diag(0, 1, .., n_max) x .. x 1 (the product would round n as
    sqrt(n) sqrt(n)); the sum is CSR's, each entry from a complex zero."""
    ladders = kron_ladders(A.lattice.dim, n_max)
    numbers = kron_chains(A.lattice.dim, sp.diags(np.arange(n_max + 1.0)))
    coo, out = A.X.tocoo(), sp.csr_matrix(ladders[0].shape, dtype=complex)
    for r, c, v in zip(coo.row, coo.col, coo.data):
        out = out + v * (numbers[r] if r == c else ladders[r].T.tocsr() @ ladders[c])
    return out


def kron_index(occupations, n_max):
    """The kron-chain state index of each row of occupations (n_0, .., n_(D-1))."""
    occupations = np.asarray(occupations)
    return occupations @ (n_max + 1) ** np.arange(occupations.shape[-1] - 1, -1, -1)
