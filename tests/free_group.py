"""Words in a free group, for tests of mapping-class moves.

A word is a list of (name, +-1) letters, read left to right as the
search's curve words are.  The moves are automorphisms given by the words
that the generators map to.  `reduce`, `inverse` and `substitute` are
srk's own (`srk.words`); conjugacy is decided here.
"""

from srk.words import inverse, reduce, substitute  # noqa: F401


def cyclic_core(word):
    """(w, c) with `word` = w c w^-1 reduced and c cyclically reduced."""
    word, n = reduce(word), 0
    while len(word) > 2 * n + 1 and word[n] == (word[-1 - n][0],
                                                -word[-1 - n][1]):
        n += 1
    return word[:n], word[n:len(word) - n]


def conjugators(u, v):
    """Every w with w^-1 u w = v that a cyclic permutation of u's core
    gives; empty when u and v are not conjugate."""
    (x, a), (y, b) = cyclic_core(u), cyclic_core(v)
    return [reduce(x + a[:s] + inverse(y)) for s in range(max(len(a), 1))
            if a[s:] + a[:s] == b]
