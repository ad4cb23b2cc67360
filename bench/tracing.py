"""Span recorder wrapped around drivencavity's functions from outside the package.

``Tracer.install`` rebinds every public function defined in the measured
modules, in every module namespace that holds it (``solve_steady`` is bound
in ``dynamics``, ``figures``, ``cli`` and ``spectrum``), so calls between
modules are recorded too.  Two more boundaries are wrapped: ``cli._map_ordered``,
the sweep fan-out, which gives each grid point a span and an id and carries
the parent span into worker threads; and ``scipy.integrate.solve_ivp``, whose
result holds the right-hand-side evaluation count.

Spans are kept in memory (name, start, end, parent, thread, point id,
attributes) and written out by ``dump`` when the run ends.

Metrics (``Tracer.metrics``).  ``<layer>.ms`` is the time inside a layer's
spans per row of the traced rounds (ms/point), ``.self_ms`` the same less
the time its child spans cover; ``.calls`` and the other counts are per row
(1/point).  ``dynamics.steady_state.<case>.ms.p50``/``.p_hi``/``.n`` are per
call: the median, the highest percentile with ten calls beyond it (the
maximum below twenty calls), and the call count, for the cases n1_g10
(dense SVD), n1_g1 (sparse LU), n2 and n3; the steady state that
``probe_response_numeric`` starts from is in none of them.  What each
should move:

  model.build_liouvillian.*, model.build_hamiltonian.ms,
  dynamics.observables.ms, operators.embed.calls,
  operators.fock_populations.ms, cli.workers.busy_frac
      -> points_per_s on grid-2atom
  dynamics.steady_state.n1_g10.*  -> points_per_s on steady-1atom
  dynamics.steady_state.n3.*      -> points_per_s on escalate-large
  dynamics.steady_state.n1_g1.*, .n2.*
      -> nothing under a dense-path change (the bypass cases)
  dynamics.solve_steady.*, dynamics.steady_state.calls_per_solve
      -> ok_frac and points_per_s on escalate-large
  dynamics.evolve.ms, spectrum.probe_response_numeric.ms,
  integrate.nfev, perturbative.perturbative_state.ms
      -> points_per_s on steady-1atom (its time-domain part)
  cli.load_config.ms, cli.run_config.self_ms, cli.run_figure.self_ms,
  cli.write_csv.ms, cli.write_json.ms, cli.write.bytes
      -> points_per_s on grid-2atom and steady-1atom

``cli.workers.busy_frac`` is the time in point spans over fan-out wall time
times workers; ``trace.overhead_frac`` is the traced over the untraced wall
time of the same rounds, minus one.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import math
import os
import sys
import threading
import time
import types
from collections import defaultdict
from pathlib import Path

MEASURED = ("operators", "model", "dynamics", "perturbative", "spectrum",
            "cli", "figures")
CASES = ("n1_g10", "n1_g1", "n2", "n3")
FAIL_CLASSES = ("TruncationEscalationError", "SteadyStateError",
                "DegenerateSteadyStateError")
POINT = "point"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "thread", "point",
                 "attrs")

    def __init__(self, sid, name, parent, point):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.point = point
        self.attrs = {}
        self.start = time.perf_counter()
        self.end = None

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.label = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------ spans ---

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent=None, point=None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if point is None and parent is not None:
            point = parent.point
        with self._lock:
            span = Span(next(self._ids), name, parent, point)
            self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def point(self, pid: str, parent=None):
        """One grid point, in whatever thread computes it."""
        span = self._open(POINT, parent=parent, point=f"{self.label}:{pid}")
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, on_call=None, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if on_call is not None:
                on_call(span, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                span.attrs["message"] = str(exc)
                raise
            finally:
                tracer._close(span)
            if on_return is not None:
                on_return(span, args, result)
            return result

        return wrapper

    def _wrap_fanout(self, fn):
        """cli._map_ordered(fn, items, n_workers): one point span per item."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(point_fn, items, n_workers):
            span = tracer._open("cli._map_ordered")
            span.attrs["workers"] = (n_workers if n_workers > 1 and len(items) > 1
                                     else 1)

            def traced(pair):
                idx, item = pair
                with tracer.point(str(idx), parent=span):
                    return point_fn(item)

            try:
                return fn(traced, list(enumerate(items)), n_workers)
            finally:
                tracer._close(span)

        return wrapper

    # ---------------------------------------------------------- install ---

    def install(self) -> None:
        """Rebind the measured functions in every drivencavity namespace."""
        import scipy.integrate

        cli = importlib.import_module("drivencavity.cli")
        wrappers = {}
        for short in MEASURED:
            mod = importlib.import_module(f"drivencavity.{short}")
            for attr, value in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__):
                    name = f"{short}.{attr}"
                    hooks = _HOOKS.get(name, (None, None))
                    wrappers[value] = self._wrap(name, value, *hooks)
        wrappers[cli._map_ordered] = self._wrap_fanout(cli._map_ordered)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "drivencavity" or n.startswith("drivencavity.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        self._patches.append((scipy.integrate, "solve_ivp",
                              scipy.integrate.solve_ivp))
        scipy.integrate.solve_ivp = self._wrap(
            "integrate.solve_ivp", scipy.integrate.solve_ivp,
            on_return=lambda span, args, res: span.attrs.update(nfev=int(res.nfev)))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # ---------------------------------------------------------- results ---

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent.id if s.parent is not None else None,
                    "thread": s.thread, "point": s.point, "attrs": s.attrs}) + "\n")

    def failures(self) -> list[dict]:
        """Failed solve_steady calls with exception class and message."""
        return [{"point": s.point, "error": s.attrs["error"],
                 "message": s.attrs["message"]}
                for s in self.spans
                if s.name == "dynamics.solve_steady" and "error" in s.attrs]

    def metrics(self, n_points: int, overhead_frac: float) -> dict:
        """Per-layer metrics; `n_points` is the rows of the traced rounds."""
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                children[s.parent.id].append(s)
        m = {}

        def put(name, value, unit):
            m[name] = {"value": float(value), "unit": unit}

        def put_ms(layer):
            put(f"{layer}.ms", sum(s.ms for s in by_name[layer]) / n_points,
                "ms/point")

        def put_self_ms(layer):
            put(f"{layer}.self_ms",
                sum(s.ms - _coverage_ms(s, children[s.id])
                    for s in by_name[layer]) / n_points, "ms/point")

        def put_count(name, count):
            put(name, count / n_points, "1/point")

        put_ms("model.build_liouvillian")
        put_count("model.build_liouvillian.calls",
                  len(by_name["model.build_liouvillian"]))
        put_ms("model.build_hamiltonian")

        steady = by_name["dynamics.steady_state"]
        for case in CASES:
            durations = sorted(s.ms for s in steady
                               if s.attrs.get("case") == case)
            p50, p_hi = _percentiles(durations)
            put(f"dynamics.steady_state.{case}.ms.p50", p50, "ms")
            put(f"dynamics.steady_state.{case}.ms.p_hi", p_hi, "ms")
            put(f"dynamics.steady_state.{case}.n", len(durations), "count")
        put_count("dynamics.steady_state.calls", len(steady))

        solves = by_name["dynamics.solve_steady"]
        put("dynamics.steady_state.calls_per_solve",
            len(steady) / len(solves) if solves else 0.0, "1")
        put_ms("dynamics.solve_steady")
        put_self_ms("dynamics.solve_steady")
        put_count("dynamics.solve_steady.escalations", sum(
            max(0, sum(c.name == "dynamics.steady_state"
                       for c in children[s.id]) - 1)
            for s in solves))
        errors = [s.attrs["error"] for s in solves if "error" in s.attrs]
        put_count("dynamics.solve_steady.failed", len(errors))
        for cls in FAIL_CLASSES:
            put_count(f"dynamics.solve_steady.failed.{cls}", errors.count(cls))
        put_count("dynamics.solve_steady.failed.other",
                  sum(e not in FAIL_CLASSES for e in errors))

        put_ms("dynamics.observables")
        put_count("operators.embed.calls", len(by_name["operators.embed"]))
        put_ms("operators.fock_populations")

        put_ms("dynamics.evolve")
        put_ms("spectrum.probe_response_numeric")
        put_count("integrate.nfev", sum(s.attrs.get("nfev", 0)
                                        for s in by_name["integrate.solve_ivp"]))
        put_ms("perturbative.perturbative_state")

        put_ms("cli.load_config")
        put_self_ms("cli.run_config")
        put_self_ms("cli.run_figure")
        put_ms("cli.write_csv")
        put_ms("cli.write_json")
        writes = by_name["cli.write_csv"] + by_name["cli.write_json"]
        put("cli.write.bytes",
            sum(s.attrs.get("bytes", 0) for s in writes) / n_points,
            "bytes/point")

        fanouts = by_name["cli._map_ordered"]
        capacity = sum(s.ms * s.attrs["workers"] for s in fanouts)
        busy = sum(p.ms for s in fanouts for p in children[s.id])
        put("cli.workers.busy_frac", busy / capacity if capacity else 0.0, "1")
        put("trace.overhead_frac", overhead_frac, "1")
        return m


def _coverage_ms(span: Span, kids: list) -> float:
    """Part of span's interval covered by the union of its children."""
    intervals = sorted((max(k.start, span.start), min(k.end, span.end))
                       for k in kids)
    covered, cur_start, cur_end = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered * 1e3


def _percentiles(sorted_ms: list) -> tuple[float, float]:
    """Median, and the highest of p99.9/p99/p90/p50 with ten samples beyond it.

    With fewer than twenty samples no percentile qualifies and the maximum
    is reported instead.  Nearest-rank definition.
    """
    n = len(sorted_ms)
    if n == 0:
        return 0.0, 0.0

    def rank(p):
        return sorted_ms[max(0, math.ceil(p / 100 * n) - 1)]

    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return rank(50), rank(p)
    return rank(50), sorted_ms[-1]


# --------------------------------------------------------------- hooks ---

def _solve_steady_call(span, args, kwargs):
    params = args[0] if args else kwargs["params"]
    span.attrs["n_atoms"] = params.n_atoms
    span.attrs["g0"] = params.g0


def _steady_state_call(span, args, kwargs):
    """Classify the solve by the enclosing solve_steady's system."""
    parent = span.parent
    while parent is not None and parent.name != "dynamics.solve_steady":
        parent = parent.parent
    if parent is None or _inside(parent, "spectrum.probe_response_numeric"):
        span.attrs["case"] = "other"
        return
    n, g0 = parent.attrs["n_atoms"], parent.attrs["g0"]
    span.attrs["case"] = f"n{n}" if n > 1 else f"n1_g{g0:g}"


def _inside(span, name: str) -> bool:
    while span is not None and span.name != name:
        span = span.parent
    return span is not None


def _record_bytes(span, args, result):
    span.attrs["bytes"] = os.path.getsize(args[1])


_HOOKS = {
    "dynamics.solve_steady": (_solve_steady_call, None),
    "dynamics.steady_state": (_steady_state_call, None),
    "cli.write_csv": (None, _record_bytes),
    "cli.write_json": (None, _record_bytes),
}
