"""Every name the benchmark under ``perfbench/`` reads from permpat exists.

``perfbench/layers.py`` reports a metric as absent, not as an error, when a
name it needs is gone, so trimming the public surface could blind the
benchmark without failing a test.  This test reads the benchmark's source
with ``ast`` and resolves each name it takes from the package: ``from
permpat import X`` names, ``permpat.X`` attribute chains, names read by
``getattr(permpat.X, "Y", ...)`` and the names listed in its ``need([...])``
checks.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

import permpat
import permpat.cli
from permpat.patterns import Diagram

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def dotted(node):
    """``"permpat.cli.main"`` for the attribute chain ``permpat.cli.main``,
    None for a chain rooted anywhere else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "permpat":
        return ".".join(["permpat", *reversed(parts)])
    return None


def benchmark_names():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "permpat":
                names.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Attribute) and dotted(node):
                names.add(dotted(node))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "need":
                names.update(f"permpat.{c.value}" for c in node.args[0].elts)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr"
                  and dotted(node.args[0]) and isinstance(node.args[1], ast.Constant)):
                names.add(f"{dotted(node.args[0])}.{node.args[1].value}")
    return names


def resolves(name):
    obj = permpat
    for part in name.split(".")[1:]:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_benchmark_reads_only_names_that_exist():
    names = benchmark_names()
    # One name from each kind of use, so a scan that finds nothing fails.
    assert {"permpat.parse_pattern_list", "permpat.cli.main", "permpat.census",
            "permpat.patterns.Diagram"} <= names
    assert [name for name in sorted(names) if not resolves(name)] == []


@pytest.mark.parametrize("host", [(), (1,), (2, 1), (3, 1, 4, 2), (5, 2, 6, 4, 1, 3), (2, 4, 1, 3, 5)])
def test_diagram_prefix_counts_points(host):
    # The benchmark's probe patterns.prefix_us times this table; no search
    # reads it, so it is checked against a count of the points here.
    n = len(host)
    table = Diagram(host).prefix()
    assert table == [[sum(1 for x, y in enumerate(host, 1) if x <= i and y <= j) for j in range(n + 1)]
                     for i in range(n + 1)]
