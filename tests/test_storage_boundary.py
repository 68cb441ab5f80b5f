"""The popularity model's storage is one module's business.

Only popularity.py may name the model's sampled carries, its edge masses,
its block table or the method that fills a block (or the names of the
block lists, fill method and per-rank arrays the model once kept), or
build a memoryview: every other module reads popularity through p(k),
suffix(k) and the model's two searches, tail_inverse and
threshold_indices, so the storage can change behind them without
touching a solver.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "d2d_cachescale"
FORBIDDEN = {"carries", "_edges", "_suffix_blocks", "_p_blocks", "_fill_block", "_BLOCK_MASK",
             "memoryview", "suffix_mass", "pmf", "_suffix", "_blocks", "_fill"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "popularity.py")


def storage_names(source: str) -> list[tuple[int, str]]:
    """(line, identifier) of every name, attribute, argument or import alias
    in `source` that is one of FORBIDDEN; strings and comments are not names."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "arg", "name", "asname"):
            value = getattr(node, field, None)
            if isinstance(value, str) and value in FORBIDDEN:
                found.append((getattr(node, "lineno", 0), value))
    return found


def test_every_module_but_popularity_is_checked():
    names = {p.name for p in MODULES}
    assert {"placement.py", "exact.py", "delivery.py", "cli.py"} <= names
    assert "popularity.py" not in names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_no_popularity_storage(path):
    assert storage_names(path.read_text()) == []


def test_guard_sees_each_kind_of_read():
    source = ("from x import pmf\n"
              "def f(pop, suffix_mass):\n"
              "    return memoryview(pop.pmf), g(pmf=1)\n"
              "def g(pop, k):\n"
              "    return pop._blocks[k >> 12] or pop._fill(k >> 12), pop._suffix[k]\n"
              "def h(pop, b):\n"
              "    return pop._suffix_blocks[b], pop._p_blocks[b] or pop._fill_block(b)\n"
              "def i(pop, b):\n"
              "    return pop._edges[b], pop.carries\n")
    assert sorted(name for _, name in storage_names(source)) == [
        "_blocks", "_edges", "_fill", "_fill_block", "_p_blocks", "_suffix", "_suffix_blocks",
        "carries", "memoryview", "pmf", "pmf", "pmf", "suffix_mass"]
