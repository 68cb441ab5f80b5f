"""No public name under src/ is reached only by tests.

Every public top-level function or class of the package is read somewhere
in src/ outside its own definition, bound in the package root, or traced
by the benchmark (an entry of perfbench/tracer.py's TARGETS). A name that
meets none of these serves only tests: it belongs in tests/reference.py,
or nowhere. The files are read with `ast`, never imported.
"""

import ast
from collections import Counter
from pathlib import Path

from test_benchmark_contract import _targets

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "d2d_cachescale"


def package_sources() -> dict[str, str]:
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def reads(node: ast.AST) -> Counter:
    """How often `node` reads each identifier, as a loaded name or an attribute."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def unreached(sources: dict[str, str], targets) -> list[str]:
    """`module.name` of each public top-level def or class in `sources` (file
    name -> text, `__init__.py` the package root) that no code reads outside
    its own definition, the root does not bind and `targets` does not name."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    total = sum((reads(tree) for tree in trees.values()), Counter())
    root = {alias.asname or alias.name for node in trees["__init__.py"].body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    found = []
    for file, tree in sorted(trees.items()):
        module = file.removesuffix(".py")
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if total[node.name] > reads(node)[node.name]:
                continue
            if node.name in root or f"{module}.{node.name}" in targets:
                continue
            found.append(f"{module}.{node.name}")
    return found


def test_every_public_name_is_reached():
    assert unreached(package_sources(), set(_targets())) == []


def test_guard_catches_a_planted_uncalled_function():
    """A recursive call reads the name only inside its own definition; a
    root binding, a traced target or a leading underscore each admit it."""
    planted = "\n\ndef planted(x):\n    return planted(x - 1) if x else 0\n"
    sources = package_sources()
    sources["popularity.py"] += planted
    assert unreached(sources, set(_targets())) == ["popularity.planted"]
    assert unreached(sources, {"popularity.planted"}) == []
    sources["__init__.py"] += "from .popularity import planted\n"
    assert unreached(sources, set()) == []
    sources = package_sources()
    sources["popularity.py"] += planted.replace("planted", "_planted")
    assert unreached(sources, set()) == []
