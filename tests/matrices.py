"""The tests' numpy oracles work on 2x2 ndarrays; srk's matrices are
row-major 4-tuples (a, b, c, d).  These two functions convert between them."""

import numpy as np


def arr(q):
    """A matrix as a 2x2 float ndarray."""
    return np.array(q, dtype=float).reshape(2, 2)


def quad(m):
    """A 2x2 ndarray as a matrix."""
    (a, b), (c, d) = np.asarray(m, dtype=float).tolist()
    return (a, b, c, d)
