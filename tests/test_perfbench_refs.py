"""Every name the benchmark reads from the package exists.

perfbench/*.py is parsed, not imported or run: a deletion from src/ that
the benchmark still reads fails here, in the unit suite, and not only when
the benchmark itself runs.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "perfbench").glob("*.py"))


def _chain(node):
    """(root name, attr, attr, ...) of a pure Name.attr.attr expression, or None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    return (node.id, *reversed(attrs)) if isinstance(node, ast.Name) else None


def _constant_strings(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List)):
        return [s for elt in node.elts for s in _constant_strings(elt)]
    return []


def references(path):
    """(dotted reference, line) for each package name this file reads: every
    imported package module or name (line 0), every attribute chain rooted
    at one, and every name passed to tracer.patch, as a literal or a loop
    over literals."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    roots = {}  # local name -> dotted package path
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "localzeta":
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    out = [(name, 0) for name in roots.values()]

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            loops = {**loops, node.target.id: _constant_strings(node.iter)}
        chain = _chain(node) if isinstance(node, ast.Attribute) else None
        if chain and chain[0] in roots:
            out.append((".".join((roots[chain[0]], *chain[1:])), node.lineno))
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "patch"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in roots
        ):
            name = node.args[1]
            attrs = _constant_strings(name) or loops.get(getattr(name, "id", None), [])
            assert attrs, f"{path.name}:{node.lineno}: patch target is not a literal"
            out.extend((f"{roots[node.args[0].id]}.{a}", node.lineno) for a in attrs)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return out


def resolve(dotted):
    """Import the longest module prefix of dotted and getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(dotted)


def test_the_parser_sees_the_benchmark_references():
    found = {ref for path in SOURCES for ref, _ in references(path)}
    # A literal patch target, one patched in a loop, and a plain read.
    assert {
        "localzeta.exact.series_of",
        "localzeta.arch.z_inf_quadrature",
        "localzeta.kernels.mat_mul_mod",
    } <= found
    assert len(found) >= 50


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_package_name_the_benchmark_reads_exists(path):
    missing = []
    for ref, line in references(path):
        try:
            resolve(ref)
        except (AttributeError, ImportError):
            missing.append(f"{path.name}:{line}: {ref}")
    assert not missing, missing
