"""The benchmark's seeded corpora, `bench/corpus.py`, loaded by path: bench
is no package.  The tests search, replay and classify its records."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
_SPEC = importlib.util.spec_from_file_location("corpus", _PATH)
corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(corpus)
