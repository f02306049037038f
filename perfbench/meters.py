"""Measurement hooks the benchmark installs around the program's public calls.

Everything here lives outside ``src/``: spans are ``perf_counter`` pairs
wrapped around public functions by temporarily replacing them, and are
removed again when the measured operation ends.  Two levels exist:

* the *meters* (:class:`EngineMeter`, :class:`SubmitMeter`) are on in every
  run.  They cost one clock pair per ``BrickDLEngine.run`` call or per
  served request and feed the end-to-end metrics;
* the *layer hooks* (:func:`layer_hooks`) are on only in the traced run.
  They time the rewriter, the compiler, the memory system's per-task
  batch, the functional kernels and each subgraph scope (through a
  ``Device`` observer), and they give the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import defaultdict
from typing import Callable, Iterator

from repro.core import engine as core_engine
from repro.profiling import DeviceObserver


class Spans:
    """Host seconds per span name (thread-safe)."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()

    def add(self, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)


@contextlib.contextmanager
def patched(owner, name: str, make: Callable) -> Iterator[None]:
    """Replace ``owner.name`` by ``make(original)`` for the block."""
    original = getattr(owner, name)
    setattr(owner, name, make(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def timed(spans: Spans, name: str) -> Callable:
    """A wrapper factory for :func:`patched` that times every call."""
    def make(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.add(name, time.perf_counter() - t0)
        return wrapper
    return make


class ScopeTimer(DeviceObserver):
    """Host time per plan subgraph, keyed by the scope's strategy."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self._open: dict[tuple[int, int | None], float] = {}

    def on_scope_begin(self, device, subgraph_index, strategy) -> None:
        self._open[(id(device), subgraph_index)] = time.perf_counter()

    def on_scope_end(self, device, subgraph_index, strategy) -> None:
        t0 = self._open.pop((id(device), subgraph_index), None)
        if t0 is not None:
            self.spans.add(f"core.run_s.{strategy}", time.perf_counter() - t0)


class EngineMeter:
    """Times every ``BrickDLEngine.run`` call and keeps its ``RunMetrics``.

    With an ``observer`` it also attaches that observer to the device the
    caller passed in, which is how the traced run reaches devices the
    serving layer creates internally.
    """

    def __init__(self, observer: DeviceObserver | None = None) -> None:
        self.observer = observer
        self.runs: list[tuple[float, object, object]] = []  # (host s, metrics, spec)
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def installed(self) -> Iterator["EngineMeter"]:
        def make(run):
            def wrapper(engine, *args, **kwargs):
                device = kwargs.get("device")
                if self.observer is not None and device is not None:
                    device.attach(self.observer)
                t0 = time.perf_counter()
                result = run(engine, *args, **kwargs)
                seconds = time.perf_counter() - t0
                spec = device.spec if device is not None else engine.spec
                with self._lock:
                    self.runs.append((seconds, result.metrics, spec))
                return result
            return wrapper
        with patched(core_engine.BrickDLEngine, "run", make):
            yield self

    @property
    def host_s(self) -> float:
        return sum(r[0] for r in self.runs)

    @property
    def tasks(self) -> int:
        return sum(r[1].num_tasks for r in self.runs)


class SubmitMeter:
    """Per-request host latency and response of ``InferenceServer.submit``.

    ``loop_s`` is the response's own latency on the server's event-loop
    clock: virtual time under the scenario loop, wall time otherwise;
    ``queued_s`` and ``service_s`` split it at the batcher's pick-up.
    """

    def __init__(self) -> None:
        self.host_s: list[float] = []
        self.loop_s: list[float] = []
        self.queued_s: list[float] = []
        self.service_s: list[float] = []
        self.degraded = 0

    @contextlib.contextmanager
    def installed(self) -> Iterator["SubmitMeter"]:
        from repro.serve.server import InferenceServer

        def make(submit):
            async def wrapper(server, *args, **kwargs):
                t0 = time.perf_counter()
                response = await submit(server, *args, **kwargs)
                self.host_s.append(time.perf_counter() - t0)
                self.loop_s.append(response.latency_s)
                if response.batched_s is not None:
                    self.queued_s.append(response.batched_s - response.admitted_s)
                    self.service_s.append(response.completed_s - response.batched_s)
                if response.degraded or response.timed_out:
                    self.degraded += 1
                return response
            return wrapper
        with patched(InferenceServer, "submit", make):
            yield self


@contextlib.contextmanager
def layer_hooks(spans: Spans) -> Iterator[list[int]]:
    """Traced-run spans around the rewriter, compiler, memory system and
    functional kernels.  Yields a one-element list that accumulates the
    number of rewrite rules fired."""
    from repro.baselines import tiled
    from repro.core import memoized, padded, wavefront
    from repro.gpusim.memory import MemorySystem
    from repro.rewrite import RuleRunner

    fired = [0]

    def count_rules(run):
        def wrapper(runner, *args, **kwargs):
            t0 = time.perf_counter()
            report = run(runner, *args, **kwargs)
            spans.add("rewrite.run_s", time.perf_counter() - t0)
            fired[0] += len(report.steps)
            return report
        return wrapper

    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(RuleRunner, "run", count_rules))
        stack.enter_context(patched(core_engine.BrickDLEngine, "compile",
                                    timed(spans, "compile_with_rewrite_s")))
        stack.enter_context(patched(MemorySystem, "process_batch",
                                    timed(spans, "gpusim.process_batch_s")))
        for module in (padded, memoized, wavefront):
            stack.enter_context(patched(module, "apply_node_local",
                                        timed(spans, "kernels.apply_s")))
        stack.enter_context(patched(tiled, "apply_node_full",
                                    timed(spans, "kernels.apply_s")))
        yield fired


def self_times_ms(entries: list[dict], names: tuple[str, ...]) -> dict[str, float]:
    """Total self time (ms) of the spans with each name: a span's duration
    minus the part of it its child spans cover."""
    spans = [e for e in entries if e.get("type") == "span" and e.get("end_s") is not None]
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent_id"] is not None:
            children[s["parent_id"]].append((s["start_s"], s["end_s"]))
    totals = {name: 0.0 for name in names}
    for s in spans:
        if s["name"] not in totals:
            continue
        lo, hi = s["start_s"], s["end_s"]
        covered, cursor = 0.0, lo
        for a, b in sorted(children.get(s["span_id"], ())):
            a, b = max(a, cursor), min(b, hi)
            if b > a:
                covered += b - a
                cursor = b
        totals[s["name"]] += (hi - lo - covered) * 1e3
    return totals
