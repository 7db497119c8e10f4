"""The package names the benchmark probes call, the result attributes its
tracer counts through, and the command lines and criteria of its workloads
must keep resolving.

``perfbench/`` changes only together with the benchmark, so a rename in the
package has to fail here before it breaks a benchmark run.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from sobolev_lab import cli, criteria, mc

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PROBES = PERFBENCH / "probes.py"


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


def test_every_tracer_counter_reads_a_real_result():
    # the traced pass counts work through each counted function's result: the
    # .shape and .size of a block of normals, and McEstimate.n of an estimate
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    cfg = mc.McConfig(n_samples=64, seed=0, dim=3)
    w, wstar = np.array([0.6, 0.8, 0.1]), np.array([1.0, 0.0, 0.0])
    W, Wstar = np.stack([w, -w]), np.eye(3)[:2]
    calls = {
        "mc.block_normals": (lambda: mc.block_normals(0, 0, 8, 3), (8, 24)),
        "mc.mc_loss_and_grad": (lambda: mc.mc_loss_and_grad("relu", "l2", w, wstar, cfg), 64),
        "mc.mc_multinode_grad": (lambda: mc.mc_multinode_grad(W, Wstar, "l2", cfg), 64),
    }
    assert set(tracer.COUNTERS) == set(calls)
    for name, count in tracer.COUNTERS.items():
        call, expected = calls[name]
        assert count(call()) == expected, name


def test_every_workload_command_line_resolves(tmp_path, monkeypatch):
    # nothing runs: each step and warm-up parses and resolves as the CLI would
    # resolve it, and each criterion a step expects is one summarize measures
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    for workload in workloads.workloads(2).values():
        for argv in (*(step.argv for step in workload.steps), workload.warmup):
            args = cli.build_parser().parse_args([*argv, "--seed", "1", "--out-dir", str(tmp_path)])
            cli._resolve(args, args.defaults, args.rules)
        for step in workload.steps:
            unknown = sorted(set(step.expect) - (set(criteria.CRITERIA) & set(cli.SOURCES)))
            assert unknown == [], (workload.name, step.argv)
