"""Surface guard: every top-level function and class of `gbl` has a reader.

A name is read when a `Name` or `Attribute` node of `src/gbl` loads it
outside its own definition, when a `perfbench` module names it as a whole
word, or when LIBRARY_ONLY lists it with the test that reads it.  A name
with none of these is dead code: give it a command that reads it, or move it
into the tests that use it.  Each file is parsed once.
"""
import ast
import re
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# library names no command reads, each with the test that reads it (file::class::function)
LIBRARY_ONLY = {
    "make_point": "test_grassmann.py::TestMakePoint::test_scaling_invariance",
    "distance": "test_grassmann.py::TestDistance::test_triangle_inequality_sampled",
    "hessian_v": "test_grassmann.py::TestHessian::test_geodesic_second_difference",
    "geodesic_velocity": "test_grassmann.py::TestHessian::test_geodesic_second_difference",
    "ellipticity_check": "test_graphs.py::TestEllipticity::test_universal_window_for_slope_three",
    "to_ball": "test_grassmann.py::TestChartSampler::test_ball_coordinates_round_trip",
}


def _loads(node) -> set:
    """The identifiers that Name and Attribute nodes under `node` load."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out.add(sub.attr)
    return out


def _surface():
    """(defined, readers): the top-level functions and classes as (module, name), and for each
    top-level statement of `src/gbl` the (module, name) it defines, if any, with the names it loads."""
    defined, readers = [], []
    for path in sorted((ROOT / "src" / "gbl").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            key = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                key = (path.stem, node.name)
                defined.append(key)
            readers.append((key, _loads(node)))
    return defined, readers


DEFINED, READERS = _surface()
PERFBENCH = "\n".join(p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py")))


def read_in_src(key) -> bool:
    return any(key[1] in loads for owner, loads in READERS if owner != key)


def named_in_perfbench(name: str) -> bool:
    return re.search(rf"\b{re.escape(name)}\b", PERFBENCH) is not None


@pytest.mark.parametrize("key", DEFINED, ids=lambda key: ".".join(key))
def test_every_name_has_a_reader(key):
    name = key[1]
    assert read_in_src(key) or named_in_perfbench(name) or name in LIBRARY_ONLY, (
        f"gbl.{'.'.join(key)} has no reader in src/gbl or perfbench and is not in LIBRARY_ONLY")


@lru_cache(maxsize=None)
def _test_module(path: str) -> ast.Module:
    return ast.parse((ROOT / "tests" / path).read_text(encoding="utf-8"))


def _test_loads(test_id: str) -> set:
    """The names the test `file::class::function` loads; empty when it does not exist."""
    path, cls, func = test_id.split("::")
    for node in _test_module(path).body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == func:
                    return _loads(item)
    return set()


@pytest.mark.parametrize("name", LIBRARY_ONLY)
def test_library_only_names_are_read_by_their_test_alone(name):
    # an entry that src or perfbench comes to read, or whose test stops reading it, is stale
    keys = [key for key in DEFINED if key[1] == name]
    assert keys, f"{name} is not a top-level name of gbl"
    assert not any(read_in_src(key) for key in keys) and not named_in_perfbench(name), (
        f"{name} now has a reader in src/gbl or perfbench: drop it from LIBRARY_ONLY")
    assert name in _test_loads(LIBRARY_ONLY[name]), f"{LIBRARY_ONLY[name]} does not read {name}"
