"""One sha256 per `srk classify` report: of the exit code, stdout and stderr
of the command on each record of the benchmark's classify corpus, ten
records per case pair, wide twists included.  The golden file
`data/classify_sha256.json` pins them, so that a change that claims the same
classify output is checked record by record.  Write it again with

    PYTHONPATH=src python tests/classify_digests.py

only when a change means to alter what classify reports."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from bench_corpus import corpus

from srk import cli

GOLDEN = Path(__file__).parent / "data" / "classify_sha256.json"
CORPORA = {"classify_corpus(101, 560)":
           lambda: corpus.classify_corpus(101, 560)}


def digest(text: str, path: Path) -> str:
    """sha256 of what `srk classify` answers on the record `text`, written
    to `path`: the exit code, stdout and stderr."""
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["classify", str(path)])
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "record.json"
        return {name: [digest(rec["text"], path) for rec in make()]
                for name, make in CORPORA.items()}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1) + "\n")
