"""Span tracing of the package's public functions, installed from outside.

``Tracer.install`` replaces every public function of each layer module with
a wrapper that records one span per call, and rebinds the same wrapper in
every package module that imported the name (``ode.rk4_integrate`` is also
bound in ``multinode`` and ``cli``).  ``Tracer.restore`` puts every original
back.  Nothing under ``src/`` is edited.

A span is ``(id, parent, invocation, name, start_ns, end_ns, count)``.  The
parent is the innermost open span of the calling thread; a worker thread
started inside a span (the MC thread pool) takes the main thread's innermost
open span as its root parent.  ``count`` carries a work count taken from the
call's result where one is defined (rows and normals of a block, samples of
an estimate).

Field closures returned by ``reduced_flow_field`` and ``h2_flow_field`` are
wrapped as ``<layer>.<factory>.eval`` spans; any other field handed to
``rk4_integrate`` (the lambda over ``relu1.flow_rhs``) is wrapped as an
``ode.field`` span, so every field evaluation of the integrator is a direct
child span of its ``rk4_integrate`` span.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter_ns

PACKAGE = "sobolev_lab"
LAYERS = ("mc", "ode", "multinode", "relu1", "relusq", "eigs", "geometry",
          "sgd", "linear", "chebdiff", "cli")
FIELD_FACTORIES = {"multinode.reduced_flow_field", "relusq.h2_flow_field"}


def _block_count(result):
    return (int(result.shape[0]), int(result.size))


def _estimate_count(result):
    return int(result.n)


COUNTERS = {
    "mc.block_normals": _block_count,
    "mc.mc_loss_and_grad": _estimate_count,
    "mc.mc_multinode_grad": _estimate_count,
}


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.invocation = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int | None] = [None]
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = [self._main_stack[-1]]
        return st

    def _span(self, name: str, fn, count=None):
        spans = self.spans
        ids = self._ids
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            n = None
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, self.invocation, name, t0, t1, n))

        wrapper.__traced__ = name
        return wrapper

    def _factory(self, name: str, fn):
        eval_name = name + ".eval"

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return self._span(eval_name, fn(*args, **kwargs))

        return self._span(name, factory)

    def _integrator(self, name: str, fn):
        span = self._span

        @functools.wraps(fn)
        def integrate(field, *args, **kwargs):
            if not hasattr(field, "__traced__"):
                field = span("ode.field", field)
            return fn(field, *args, **kwargs)

        return self._span(name, integrate)

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in sorted(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if name in FIELD_FACTORIES:
                    wrapped[id(fn)] = self._factory(name, fn)
                elif name == "ode.rk4_integrate":
                    wrapped[id(fn)] = self._integrator(name, fn)
                else:
                    wrapped[id(fn)] = self._span(name, fn, COUNTERS.get(name))
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                w = wrapped.get(id(val))
                if w is not None and inspect.isfunction(val):
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, w)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @property
    def patched(self) -> int:
        return len(self._patches)


def _noop():
    return None


def span_cost_s() -> float:
    """Median extra time one traced call costs over an untraced one (s)."""
    traced = Tracer()._span("noop", _noop)
    calls = 20000
    samples = []
    for _ in range(7):
        t0 = perf_counter_ns()
        for _ in range(calls):
            _noop()
        t1 = perf_counter_ns()
        for _ in range(calls):
            traced()
        t2 = perf_counter_ns()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    samples.sort()
    return samples[3] / 1e9


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def module_snapshot() -> dict[tuple[str, str], int]:
    """Identity of every attribute of every package module, to prove a restore."""
    return {(m.__name__, a): id(v) for m in _package_modules() for a, v in vars(m).items()}


def self_times(spans: list[tuple]) -> dict[int, int]:
    """Span id -> duration minus the union of its child spans' intervals (ns).

    Children of one parent may overlap when they run on worker threads, so
    the covered part is the union of their intervals, clipped to the parent.
    """
    children = defaultdict(list)
    for sid, parent, _, _, t0, t1, _ in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    out = {}
    for sid, _, _, _, t0, t1, _ in spans:
        covered = 0
        cur_a = cur_b = None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, t0), min(b, t1)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[sid] = (t1 - t0) - covered
    return out


def write_spans(path, spans: list[tuple], selfs: dict[int, int]) -> None:
    with open(path, "w") as fh:
        fh.write("id,parent,invocation,name,start_ns,end_ns,self_ns,count\n")
        for sid, parent, inv, name, t0, t1, count in spans:
            c = "" if count is None else (count if isinstance(count, int) else "/".join(map(str, count)))
            fh.write(f"{sid},{'' if parent is None else parent},{inv},{name},{t0},{t1},{selfs[sid]},{c}\n")
