"""The tests' numpy oracles work on 2x2 ndarrays; srk's matrices are
row-major 4-tuples (a, b, c, d).  `arr` and `quad` convert between them,
and `random_hyperbolic` draws a test matrix."""

import math

import numpy as np

from srk.psl2r import make_translation, minv, mmul


def arr(q):
    """A matrix as a 2x2 float ndarray."""
    return np.array(q, dtype=float).reshape(2, 2)


def quad(m):
    """A 2x2 ndarray as a matrix."""
    (a, b), (c, d) = np.asarray(m, dtype=float).tolist()
    return (a, b, c, d)


def random_hyperbolic(rng, scale=2.0):
    """A hyperbolic matrix: a translation conjugated by a random matrix."""
    g = rng.normal(size=(2, 2), scale=scale)
    while abs(np.linalg.det(g)) < 0.2:
        g = rng.normal(size=(2, 2), scale=scale)
    g /= math.sqrt(abs(np.linalg.det(g)))
    q = quad(g)
    m = mmul(q, make_translation(rng.uniform(0.5, 2.5)), minv(q))
    return m if np.linalg.det(g) > 0 else minv(m)
