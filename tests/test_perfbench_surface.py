"""The package names the benchmark probes call must keep resolving.

``perfbench/`` changes only together with the benchmark, so a rename in the
package has to fail here before it breaks a benchmark run.
"""

import ast
import importlib
from pathlib import Path

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def _package_attributes(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, attribute) of every ``alias.name`` in the tree whose alias is a
    ``sobolev_lab`` module imported by ``from sobolev_lab import ...``."""
    modules = {a.asname or a.name: f"sobolev_lab.{a.name}" for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "sobolev_lab"
               for a in node.names}
    return {(modules[node.value.id], node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}


def test_every_package_name_the_probes_use_resolves():
    used = _package_attributes(ast.parse(PROBES.read_text()))
    assert {m for m, _ in used} >= {"sobolev_lab.mc", "sobolev_lab.multinode", "sobolev_lab.ode",
                                    "sobolev_lab.relu1"}
    missing = sorted(f"{m}.{name}" for m, name in used if not hasattr(importlib.import_module(m), name))
    assert missing == []
