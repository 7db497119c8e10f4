"""Benchmark of the sobolev-lab CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {mc-oracle,flows,pointwise,all} \
        --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is installed
or built.  ``--trace 0`` repeats the workload untraced for about ``S``
seconds and prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
makes one untraced and one traced pass, runs the layer probes and prints the
per-layer metrics; the spans go to ``.perfbench_runs/<workload>/spans.csv``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads, so --threads is the only parallelism.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)
os.environ.pop("SOBOLEV_LAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from speed import Speedometer, sample  # noqa: E402
from workloads import Workload, workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 7

SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from sobolev_lab import cli
rc = cli.main(sys.argv[3:] + ["--out-dir", sys.argv[2]])
t1 = time.perf_counter()
print("setup_s", t1 - t0 if rc == 0 else -1.0)
"""


def import_cli():
    """Import the CLI from the checkout's src/, or exit without a result."""
    if not (SRC / "sobolev_lab" / "cli.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'sobolev_lab'}")
    sys.path.insert(0, str(SRC))
    from sobolev_lab import cli

    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: sobolev_lab imported from {cli.__file__}, not from {SRC}")
    return cli


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
            caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "seed": seed,
        "nproc": nproc(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "slowdown": statistics.median(sample() for _ in range(9)),
    }


# --------------------------------------------------------------------------
# one pass over a workload


@dataclass
class Pass:
    wall_s: float
    step_s: list[float]
    ref_s: list[float]  # per step, then summarize: seconds at reference speed (speed.py)
    failures: list[str]
    digests: dict[str, str]
    csv_rows: int
    csv_bytes: int


def run_pass(cli, wl: Workload, seed: int, out_dir: Path, tracer=None, argv_edit=None,
             ref: dict[str, str] | None = None, sample_speed: bool = False) -> Pass:
    """Run every step of ``wl`` then ``summarize``; check outputs afterwards.

    With ``sample_speed`` a ``Speedometer`` gives every step its time in
    reference seconds (``Pass.ref_s``); without it ``ref_s`` holds plain seconds.

    A step fails on a non-zero exit code, on a criterion status other than
    the recorded one, on its own check, or when a CSV body differs from the
    digest in ``ref`` (an earlier pass of the same run).
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    steps = wl.steps
    argvs = [list(s.argv) + ["--seed", str(seed), "--out-dir", str(out_dir)] for s in steps]
    if argv_edit:
        argvs = [argv_edit(a) for a in argvs]
    rcs, step_s, ref_s, printed = [], [], [], []
    with Speedometer(sample_speed) as speed:
        for i, argv in enumerate(argvs):
            if tracer is not None:
                tracer.invocation = i + 1
            buf = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(buf):
                try:
                    rcs.append(cli.main(argv))
                except SystemExit as exc:  # argparse rejected the arguments
                    rcs.append(exc.code if isinstance(exc.code, int) else 1)
            t1 = perf_counter()
            step_s.append(t1 - t0)
            ref_s.append((t1 - t0) / speed.slowdown(t0, t1))
            printed.append(buf.getvalue().split())
        if tracer is not None:
            tracer.invocation = len(steps) + 1
        t0 = perf_counter()
        report = cli.summarize(out_dir)
        t1 = perf_counter()
        ref_s.append((t1 - t0) / speed.slowdown(t0, t1))
    segments = step_s + [t1 - t0]

    failures, digests, rows, size = [], {}, 0, 0
    for step, rc, files in zip(steps, rcs, printed):
        problems = [] if rc == 0 else [f"exit code {rc}"]
        for crit, allowed in step.expect.items():
            status = report["criteria"].get(crit, {}).get("status")
            if status not in allowed:
                problems.append(f"{crit} is {status}, expected {'/'.join(sorted(allowed))}")
        if rc == 0 and step.check is not None:
            msg = step.check(out_dir)
            if msg:
                problems.append(msg)
        for f in files:
            if f.endswith(".csv"):
                body = Path(f).read_bytes()
                name = Path(f).name
                digests[name] = hashlib.sha256(body).hexdigest()
                if ref is not None and ref.get(name) != digests[name]:
                    problems.append(f"{name} body differs from the first pass")
                rows += body.count(b"\n") - 1
                size += len(body)
        if problems:
            failures.append(f"{step.argv[0]}: " + "; ".join(problems))
    return Pass(sum(segments), step_s, ref_s, failures, digests, rows, size)


# --------------------------------------------------------------------------
# untraced run: end-to-end metrics


def measure_setup(wl: Workload, run_dir: Path) -> float:
    """Seconds a fresh interpreter takes to import the CLI and make one warm-up call.

    Not scaled by the speedometer: import time is disk- and cache-bound and
    does not move with the calibration kernels.
    """
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(run_dir / "setup"), *wl.warmup],
        capture_output=True, text=True, timeout=120, env=os.environ.copy(),
    )
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    if proc.returncode != 0 or not last[0].startswith("setup_s "):
        sys.exit(f"perfbench: set-up child failed: {proc.stderr.strip()[-500:]}")
    value = float(last[0].split()[1])
    if value < 0:
        sys.exit("perfbench: set-up warm-up call failed")
    return value


def untraced(cli, wl: Workload, seed: int, seconds: float, run_dir: Path):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([*wl.warmup, "--out-dir", str(run_dir / "warmup")]) != 0:
            sys.exit("perfbench: warm-up call failed")

    # set-up samples are taken before the first passes, so that their median
    # sees the same drift of machine speed as the passes do
    setups: list[float] = []
    passes: list[Pass] = []
    t0 = perf_counter()
    while True:
        if len(setups) < SETUP_REPEATS:
            setups.append(measure_setup(wl, run_dir))
        passes.append(run_pass(cli, wl, seed, run_dir / "out", ref=passes[0].digests if passes else None,
                               sample_speed=True))
        typical = statistics.median(p.wall_s for p in passes)
        if perf_counter() - t0 + typical / 2 > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        setups.append(measure_setup(wl, run_dir))
    setup_s = statistics.median(setups)
    failures = [f for p in passes for f in p.failures]
    attempted = len(passes) * len(wl.steps)
    failed = len(failures)
    # each segment's median over the passes, in reference seconds, summed
    wall = sum(statistics.median(seg) for seg in zip(*(p.ref_s for p in passes)))
    metrics = {
        "wall_s": wall,
        "work_per_s": wl.work / wall,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_ref_s": [sum(p.ref_s) for p in passes],
        "segment_s": [p.step_s + [p.wall_s - sum(p.step_s)] for p in passes],
        "segment_ref_s": [p.ref_s for p in passes],
        "setup_samples_s": setups,
        "work_per_pass": wl.work,
        "work_unit": wl.work_unit,
        "ops_failed_frac": failed / attempted,
        "digests": passes[0].digests,
    }
    return metrics, attempted, failed, failures, info


# --------------------------------------------------------------------------
# traced run: per-layer metrics


def traced(cli, wl: Workload, seed: int, run_dir: Path):
    import probes
    from tracer import Tracer, module_snapshot, self_times, span_cost_s, write_spans

    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main([*wl.warmup, "--out-dir", str(run_dir / "warmup")]) != 0:
            sys.exit("perfbench: warm-up call failed")
    out_dir = run_dir / "out"
    base = run_pass(cli, wl, seed, out_dir)

    snapshot = module_snapshot()
    tracer = Tracer()
    tracer.install()
    patched = tracer.patched
    try:
        tp = run_pass(cli, wl, seed, out_dir, tracer=tracer, ref=base.digests)
    finally:
        tracer.restore()
    # untraced passes on both sides of the traced one, so drift and warm-up cancel in the overhead
    after = run_pass(cli, wl, seed, out_dir, ref=base.digests)
    untraced_wall = (base.wall_s + after.wall_s) / 2
    failures = base.failures + tp.failures + after.failures
    attempted = 3 * len(wl.steps)

    speedup = 0.0
    if any("--threads" in s.argv for s in wl.steps):
        def one_thread(argv):
            i = argv.index("--threads")
            return argv[:i + 1] + ["1"] + argv[i + 2:]
        single = run_pass(cli, wl, seed, out_dir, argv_edit=one_thread, ref=base.digests)
        failures += single.failures
        attempted += len(wl.steps)
        speedup = sum(single.step_s) / ((sum(base.step_s) + sum(after.step_s)) / 2)

    probe_values = probes.run_probes(seed)
    if module_snapshot() != snapshot:
        sys.exit("perfbench: a patched attribute of sobolev_lab was not restored")

    spans = tracer.spans
    selfs = self_times(spans)
    write_spans(run_dir / "spans.csv", spans, selfs)
    metrics = layer_metrics(spans, selfs, tp, untraced_wall, speedup)
    metrics.update(probe_values)
    metrics["trace.span_cost_s"] = len(spans) * span_cost_s()
    info = {"patched_bindings": patched, "digests": base.digests,
            "traced_wall_s": tp.wall_s, "untraced_wall_s": [base.wall_s, after.wall_s]}
    return metrics, attempted, len(failures), failures, info


def layer_metrics(spans, selfs, tp: Pass, untraced_wall: float, speedup: float) -> dict[str, float]:
    by: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by.setdefault(s[3], []).append(s)
        if s[1] is not None:
            children.setdefault(s[1], []).append(s)

    def calls(*names):
        return float(sum(len(by.get(n, ())) for n in names))

    def self_s(*names):
        return sum(selfs[s[0]] for n in names for s in by.get(n, ())) / 1e9

    def incl_s(*names):
        return sum(s[5] - s[4] for n in names for s in by.get(n, ())) / 1e9

    def field_evals(name):
        """Field-evaluation spans made directly by the spans called ``name``."""
        return [c for s in by.get(name, ()) for c in children.get(s[0], ())
                if c[3] == "ode.field" or c[3].endswith(".eval")]

    m: dict[str, float] = {}
    blocks = [s[6] for s in by.get("mc.block_normals", ())]
    rows_drawn = sum(r for r, _ in blocks)
    estimated = sum(s[6] for n in ("mc.mc_loss_and_grad", "mc.mc_multinode_grad") for s in by.get(n, ()))
    m["mc.block_normals.calls"] = calls("mc.block_normals")
    m["mc.block_normals.self_s"] = self_s("mc.block_normals")
    m["mc.normals_drawn"] = float(sum(n for _, n in blocks))
    m["mc.estimate.calls"] = calls("mc.mc_loss_and_grad", "mc.mc_multinode_grad")
    m["mc.estimate.self_s"] = self_s("mc.mc_loss_and_grad", "mc.mc_multinode_grad")
    m["mc.convergence_study.s"] = incl_s("mc.convergence_study")
    m["mc.samples_estimated"] = float(estimated)
    m["mc.draw_reuse"] = estimated / rows_drawn if rows_drawn else 0.0
    m["mc.threads_speedup"] = speedup

    fields = field_evals("ode.rk4_integrate")
    m["ode.rk4_integrate.calls"] = calls("ode.rk4_integrate")
    m["ode.rk4_integrate.self_s"] = self_s("ode.rk4_integrate")
    m["ode.field_evals"] = float(len(fields))
    m["ode.rk4_steps"] = float(len(fields) // 4)
    m["ode.field.self_s"] = sum(s[5] - s[4] for s in fields) / 1e9

    m["multinode.times_to_threshold.s"] = incl_s("multinode.times_to_threshold")
    m["multinode.times_to_threshold.field_evals"] = float(len(field_evals("multinode.times_to_threshold")))
    m["multinode.diagonal_decay.s"] = incl_s("multinode.diagonal_decay")
    m["multinode.reduced_flow_field.evals"] = calls("multinode.reduced_flow_field.eval")

    m["relusq.h2_flow_field.evals"] = calls("relusq.h2_flow_field.eval")
    m["relusq.h2_flow_field.self_s"] = self_s("relusq.h2_flow_field.eval")
    for name in ("relusq.h2_gradients", "relu1.hessians", "relu1.gd_compare", "relu1.flow_rhs",
                 "eigs.symmetric_eigs", "eigs.real_eigs", "geometry.pair_geometry",
                 "geometry.angle_between", "multinode.toeplitz_field", "multinode.multinode_gradients"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("sgd.sgd_run", "linear.variance_study", "chebdiff.cheb_diff_matrix"):
        m[f"{name}.s"] = incl_s(name)

    for sub in ("landscape", "gd-compare", "flow", "relusq", "multinode", "toeplitz", "sgd",
                "verify-gradients", "linear", "chebyshev"):
        m[f"cli.{sub}.s"] = incl_s("cli.cmd_" + sub.replace("-", "_"))
    m["cli.summarize.s"] = incl_s("cli.summarize")
    m["cli.csv_rows"] = float(tp.csv_rows)
    m["cli.csv_bytes"] = float(tp.csv_bytes)

    m["trace.wall_s"] = tp.wall_s
    m["trace.overhead_s"] = tp.wall_s - untraced_wall
    m["trace.self_coverage"] = sum(selfs.values()) / 1e9 / tp.wall_s
    m["trace.spans"] = float(len(spans))
    return m


# --------------------------------------------------------------------------


def declared(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    cli = import_cli()
    wl = workloads(nproc())[args.workload]
    run_dir = RUNS / wl.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = environment(args.seed)
    print("env", json.dumps(env, sort_keys=True))

    if args.trace:
        metrics, attempted, failed, failures, info = traced(cli, wl, args.seed, run_dir)
    else:
        metrics, attempted, failed, failures, info = untraced(cli, wl, args.seed, args.seconds, run_dir)

    units = declared(args.trace)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: metric names differ from BENCHMARK.json: "
                 f"extra {sorted(set(metrics) - set(units))}, missing {sorted(set(units) - set(metrics))}")
    print("digests", json.dumps(info["digests"], sort_keys=True))
    for f in failures:
        print("FAILED", f)
    if not args.trace:
        print(f"{wl.name}: {info['passes']} passes, ops_failed_frac = {info['ops_failed_frac']:g} "
              f"({failed}/{attempted})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    (run_dir / "result.json").write_text(json.dumps(
        {"workload": wl.name, "trace": args.trace, "env": env, "metrics": metrics, "info": info,
         "failures": failures}, indent=2, sort_keys=True) + "\n")
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads(nproc()):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    names = list(workloads(1))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
