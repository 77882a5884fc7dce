"""One sha256 per search record: of the certificate JSON, the rounds and the
replay report, over two of the benchmark's seeded corpora.  The golden file
`data/search_sha256.json` pins them, so that a change that claims the same
search outputs is checked record by record.  Write it again with

    PYTHONPATH=src python tests/search_digests.py

only when a change means to alter what the search answers."""

import hashlib
import json
from pathlib import Path

from bench_corpus import corpus

from srk import genus2, search

GOLDEN = Path(__file__).parent / "data" / "search_sha256.json"
CORPORA = {"search_corpus(101, 400)": lambda: corpus.search_corpus(101, 400),
           "corner_corpus(101, 400)": lambda: corpus.corner_corpus(101, 400)}


def digest(text: str) -> str:
    """sha256 of what the search answers on the record `text`: the
    certificate JSON, rounds and replay report, or the refusal."""
    try:
        out = search.search_nonhyperbolic(genus2.GluedRep.from_json(text))
    except search.OutOfScopeError as exc:
        blob = f"out of scope: {exc}"
    else:
        blob = json.dumps([out.certificate.to_json(), out.rounds,
                           search.replay_certificate(out.certificate)])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict:
    return {name: [digest(rec["text"]) for rec in make()]
            for name, make in CORPORA.items()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
