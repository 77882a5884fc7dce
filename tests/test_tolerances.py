"""The tolerance policy: every rounding band lives in srk/tolerances.py."""

import ast
from pathlib import Path

import pytest

from srk import tolerances

SRC = Path(tolerances.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "tolerances.py")


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    names = {p.stem for p in MODULES}
    assert {"psl2r", "hyptrig", "pants", "genus2", "torus", "search",
            "inequalities", "cli"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_small_float_literal_outside_tolerances(path):
    small = [(node.lineno, node.value) for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant)
             and type(node.value) is float and 0.0 < abs(node.value) < 1e-3]
    assert small == [], (f"{path.name}: name these bands in "
                         f"srk/tolerances.py: {small}")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_replay_takes_a_tol(path):
    # a band is a module constant, not a per-call knob; the certificate
    # replay keeps its trace tolerance, which bench/ops.py passes
    takers = [node.name for node in ast.walk(_tree(path))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(arg.arg == "tol" for arg in
                      node.args.args + node.args.kwonlyargs)]
    expect = (["replay_certificate", "_replay"] if path.name == "search.py"
              else [])
    assert sorted(takers) == sorted(expect)


def test_tolerances_is_constants_only():
    path = SRC / "tolerances.py"
    tree = _tree(path)
    lines = path.read_text().splitlines()
    body = tree.body[1:]                # after the module docstring
    assert body and all(isinstance(node, ast.Assign) for node in body)
    for node in body:
        name = node.targets[0].id
        value = getattr(tolerances, name)
        assert name.isupper() and type(value) is float and value > 0.0
        # one comment line right above each constant says what it bounds
        assert lines[node.lineno - 2].startswith("# "), name


def test_merged_bands_keep_their_values():
    assert tolerances.TRACE_BAND == 1e-9
    assert tolerances.REPLAY_TOL == 1e-6
    assert tolerances.RELATOR_TOL == 1e-9


def test_every_band_has_a_reader():
    # a band whose last reader is deleted goes with it
    bands = {node.targets[0].id
             for node in _tree(SRC / "tolerances.py").body[1:]}
    read = set()
    for path in MODULES:
        tree = _tree(path)
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "tolerances"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        read |= imported & used
    assert sorted(bands - read) == []


def test_only_psl2r_reads_the_trace_band():
    # every verdict on a trace against 2 is psl2r.nonhyperbolic or
    # psl2r.side_of_two, so the band has one reader to change
    importers = [path.name for path in MODULES
                 if any(isinstance(node, ast.ImportFrom)
                        and node.module == "tolerances"
                        and "TRACE_BAND" in (a.name for a in node.names)
                        for node in ast.walk(_tree(path)))]
    assert importers == ["psl2r.py"]
    def reads(tree):
        return [node for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "TRACE_BAND"]

    tree = _tree(SRC / "psl2r.py")
    readers = [fn for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and reads(fn)]
    assert [fn.name for fn in readers] == ["nonhyperbolic", "side_of_two"]
    assert len(reads(tree)) == sum(len(reads(fn)) for fn in readers)
