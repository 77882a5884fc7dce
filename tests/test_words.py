"""`srk.words`, the free-group algebra of the search's words: free
reduction, inversion and substitution, over random words in the four
generators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from srk.words import inverse, reduce, substitute

GENERATORS = ("A1", "B1", "A2", "B2")

letters = st.tuples(st.sampled_from(GENERATORS), st.sampled_from((1, -1)))
words = st.lists(letters, max_size=24)
# a map of the free group: each generator goes to some word
maps = st.fixed_dictionaries({name: words for name in GENERATORS})


def _is_reduced(word):
    return all(u != (v[0], -v[1]) for u, v in zip(word, word[1:]))


def test_reduce_cancels_adjacent_inverse_pairs():
    word = [("A1", 1), ("B1", 1), ("B1", -1), ("A1", -1), ("A2", -1)]
    assert reduce(word) == [("A2", -1)]
    assert reduce([("A1", 1), ("A1", 1)]) == [("A1", 1), ("A1", 1)]


def test_reduce_reads_json_letters():
    # a certificate's curve holds letters as JSON lists [name, exp]
    word = [["B1", -1], ["A1", 1], ["A1", -1], ["B1", 1], ["A2", 1]]
    assert reduce(word) == [("A2", 1)]
    assert reduce([["A1", 1], ("A1", -1)]) == []


@settings(max_examples=300, deadline=None)
@given(words)
def test_reduce_is_idempotent(word):
    once = reduce(word)
    assert _is_reduced(once)
    assert reduce(once) == once


@settings(max_examples=300, deadline=None)
@given(words)
def test_inverse_is_an_involution(word):
    assert inverse(inverse(word)) == word
    assert reduce(word + inverse(word)) == []
    assert reduce(inverse(word) + word) == []


@settings(max_examples=200, deadline=None)
@given(words, words, maps)
def test_substitute_is_a_homomorphism(u, v, images):
    assert substitute(u + v, images) == reduce(substitute(u, images)
                                               + substitute(v, images))
    assert substitute(inverse(u), images) == inverse(substitute(u, images))


@settings(max_examples=200, deadline=None)
@given(words)
def test_identity_map_reduces(word):
    identity = {name: [(name, 1)] for name in GENERATORS}
    assert substitute(word, identity) == reduce(word)
