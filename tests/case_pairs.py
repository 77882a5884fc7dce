"""The ordered pairs of pants case names that glue to a genus-2
representation, each once, in the one order the tests sample them in."""

HEX = ("EuPlus1", "EuMinus1")
TRI = ("Eu0PlusTriangle", "Eu0MinusTriangle")
SELFHEX = ("Eu0PlusSelfHex", "Eu0MinusSelfHex")
UPPER = ("Eu0UpperFlat(+1)", "Eu0UpperFlat(-1)")
LOWER = ("Eu0LowerFlat(+1)", "Eu0LowerFlat(-1)")
DIAG = "Eu0DiagonalFlat"


def _all_pairs():
    pairs = [(e1, e2) for e1 in HEX + TRI for e2 in HEX + TRI]
    for e1 in SELFHEX:
        for e2 in HEX + SELFHEX:
            pairs.append((e1, e2))
            if e2 in HEX:
                pairs.append((e2, e1))
    for u in UPPER:
        for lo in LOWER:
            pairs += [(u, lo), (lo, u)]
    for f in UPPER + LOWER + (DIAG,):
        for h in HEX:
            pairs += [(f, h), (h, f)]
    return list(dict.fromkeys(pairs))


ALL_PAIRS = _all_pairs()
assert len(ALL_PAIRS) == 56
