"""The popularity model's storage is one module's business.

Only popularity.py may name the model's arrays or build a memoryview:
every other module reads popularity through p(k), suffix(k), tail_mass,
tail_inverse and the model's searches, so the storage can change behind
them without touching a solver.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "d2d_cachescale"
FORBIDDEN = {"suffix_mass", "pmf", "memoryview"}
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
              "    return memoryview(pop.pmf), g(pmf=1)\n")
    assert sorted(name for _, name in storage_names(source)) == [
        "memoryview", "pmf", "pmf", "pmf", "suffix_mass"]
