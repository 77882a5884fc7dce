"""Words in a free group: the one home of their algebra.

A word is a list of (name, +-1) letters, read left to right: the word of
a product P Q is word(P) + word(Q).  A letter may come as a tuple or as a
JSON list [name, exp]; the functions here return tuples.  A map of the
group is given by the words that the generators map to.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

Letter = Tuple[str, int]
Word = List[Letter]


def reduce(word: Sequence) -> Word:
    """`word` with each letter next to its inverse cancelled."""
    out: Word = []
    for name, exp in word:
        if out and out[-1][1] == -exp and out[-1][0] == name:
            out.pop()
        else:
            out.append((name, exp))
    return out


def inverse(word: Sequence) -> Word:
    return [(name, -exp) for name, exp in reversed(word)]


def substitute(word: Sequence, images: Dict[str, Sequence]) -> Word:
    """The reduced image of `word` under the map sending each name to a
    word."""
    pairs = {name: (w, inverse(w)) for name, w in images.items()}
    return reduce([letter for name, exp in word
                   for letter in pairs[name][exp < 0]])
