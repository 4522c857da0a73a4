"""Truncated-Fock ladder matrices as kron chains: the reference that
lattice.FockOracle, which reads its matrices off occupation digits, is
checked against."""

import numpy as np
import scipy.sparse as sp


def kron_ladders(n_modes, n_max):
    """[b_0, .., b_(n_modes - 1)] as CSR matrices: b_j = 1 x .. x a x .. x 1
    with a = sum_n sqrt(n) |n-1><n| cut at n_max, mode 0 the leftmost factor."""
    a1 = sp.diags(np.sqrt(np.arange(1, n_max + 1)), offsets=1)
    eye = sp.identity(n_max + 1, format="csr")
    ladders = []
    for j in range(n_modes):
        M = a1 if j == 0 else eye
        for i in range(1, n_modes):
            M = sp.kron(M, a1 if i == j else eye, format="csr")
        ladders.append(M.tocsr())
    return ladders


def kept_states(n_modes, n_max, limit):
    """Indices of the product states with every occupation <= limit, ascending,
    mode 0 the most significant base-(n_max + 1) digit."""
    digits = np.arange((n_max + 1) ** n_modes) // (n_max + 1) ** np.arange(n_modes - 1, -1, -1)[:, None]
    return np.flatnonzero((digits % (n_max + 1) <= limit).all(axis=0))
