"""The three benchmark workloads: ``zoo_full``, ``scenario_diurnal`` and
``serve_functional``.

Each workload function takes ``(seed, seconds, traced)`` and returns an
:class:`Outcome`: the metrics to print, the operations attempted and failed,
and the output checks that failed.  Untraced, it runs its operation once
and keeps starting another while the next one is expected to end inside
``seconds``.  Traced, each operation is a pair: one
untraced copy (the overhead baseline) and one copy under every layer hook;
the per-layer metrics come from the traced copy.  NOTES.md defines every
metric on every workload.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from meters import EngineMeter, ScopeTimer, Spans, SubmitMeter, layer_hooks, self_times_ms
from repro.analysis import analyze_effects, check_manifest_bracket
from repro.baselines.cudnn import CudnnBaseline
from repro.bench.harness import adapt_sectors
from repro.core.engine import BrickDLEngine
from repro.core.reference import ReferenceExecutor
from repro.gpusim.device import Device
from repro.metrics import manifest_from_result
from repro.metrics.attribute import attribute_run
from repro.models import zoo
from repro.obs import Tracer
from repro.serve import InferenceServer, ServeConfig
from repro.serve.scenarios import SCENARIOS, run_scenario

SETUP_REPEATS = 3
ZOO_MODELS = ("resnet50", "vgg16", "mobilenet_v1")
SCENARIO = "diurnal"
FINGERPRINT_REQUESTS = 40  # the short replay run twice to check determinism
SERVE_MODELS = ("resnet50", "mobilenet_v1")
SERVE_REQUESTS = 160       # per session: p90 has 16 samples beyond it
SERVE_IN_FLIGHT = 8
SERVE_CHECKS_PER_MODEL = 8
# The tolerance the model tests hold merged execution to against the
# reference interpreter.
ATOL, RTOL = 2e-3, 1e-2
OBS_SPANS = ("queued", "batch", "execute")

# Metric names and units: BENCHMARK.json at the root of the checkout.
SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


@dataclass
class Outcome:
    """What one workload run measured and how its checks went."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    bad_checks: list[str] = field(default_factory=list)

    def op(self, what: str, count: int = 1, failed: int = 0) -> None:
        """Record ``count`` operations of which ``failed`` failed."""
        self.attempted += count
        self.failed += failed
        if failed:
            print(f"perfbench: {failed} failed: {what}", file=sys.stderr)

    def check(self, ok: bool, what: str) -> None:
        """Record one output check (an operation that may fail too)."""
        self.op(what, failed=0 if ok else 1)
        if not ok:
            self.bad_checks.append(what)

    def crashed(self, what: str) -> None:
        traceback.print_exc(file=sys.stderr)
        self.check(False, f"{what} raised")


def quantile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def timed_setup(setup):
    """Run ``setup`` SETUP_REPEATS times; (median seconds, last result)."""
    seconds, state = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup()
        seconds.append(time.perf_counter() - t0)
    return statistics.median(seconds), state


def repeat(op, seconds: float) -> list:
    """Run ``op`` once, then again while the next run is expected to end
    inside ``seconds``.  Returns the op results."""
    results, start = [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(op())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def resident_sim(graphs, batch: int) -> tuple[float, float]:
    """Simulated BrickDL ms summed over ``graphs`` at ``batch``, and the
    geometric-mean speedup over the cuDNN baseline."""
    sims, ratios = [], []
    for graph in graphs:
        engine = BrickDLEngine(graph).for_batch(batch)
        plan = engine.compile()
        brickdl = engine.run(None, functional=False, plan=plan,
                             device=Device(adapt_sectors(engine.spec, plan)))
        cudnn = CudnnBaseline(engine.graph).run(None, functional=False)
        sims.append(brickdl.total_time)
        ratios.append(cudnn.total_time / brickdl.total_time)
    return sum(sims) * 1e3, geomean(ratios)


def run_totals(meter: EngineMeter) -> dict[str, float]:
    """gpusim counters and the simulated-time attribution of every engine
    run the meter saw."""
    out = dict.fromkeys(("gpusim.dram_txns", "gpusim.l2_txns", "gpusim.atomics",
                         "gpusim.dram_ms", "gpusim.compute_ms",
                         "gpusim.atomic_ms", "gpusim.idle_ms"), 0)
    for _, metrics, spec in meter.runs:
        out["gpusim.dram_txns"] += metrics.memory.dram_txns
        out["gpusim.l2_txns"] += metrics.memory.l2_txns
        out["gpusim.atomics"] += metrics.atomics.total
        for name, seconds in attribute_run(metrics, spec).components.items():
            out[f"gpusim.{name}_ms"] += seconds * 1e3
    out["gpusim.tasks"] = meter.tasks
    out["serve.engine_runs"] = len(meter.runs)
    out["core.run_s"] = meter.host_s
    return out


def layer_metrics(spans: Spans, fired: int, meter: EngineMeter) -> dict[str, float]:
    """Per-layer metrics every workload shares; zero where a layer is idle."""
    out = dict.fromkeys(PER_LAYER, 0)
    for name, seconds in spans.seconds.items():
        if name in out:
            out[name] = seconds
    out["rewrite.rules_fired"] = fired
    out["core.compile_s"] = (spans.seconds.get("compile_with_rewrite_s", 0.0)
                             - spans.seconds.get("rewrite.run_s", 0.0))
    out.update(run_totals(meter))
    return out


@contextlib.contextmanager
def traced_layers(spans: Spans, meter: EngineMeter):
    with layer_hooks(spans) as fired, meter.installed():
        yield fired


# ---------------------------------------------------------------------------
# zoo_full: full-scale models in profile mode (the paper's Fig. 7 object)
# ---------------------------------------------------------------------------


def _zoo_warmup() -> None:
    graph = zoo.build("resnet50", reduced=True)
    engine = BrickDLEngine(graph)
    plan = engine.compile(optimize=True)
    analyze_effects(plan, engine.spec, engine.config)
    engine.run(None, functional=False, plan=plan,
               device=Device(adapt_sectors(engine.spec, plan)))
    CudnnBaseline(graph).run(None, functional=False)


@dataclass
class ZooPass:
    meter: EngineMeter
    host_s: float = 0.0
    sims: dict[str, tuple[float, float]] = field(default_factory=dict)  # (brickdl, cudnn) s
    dram: list[int] = field(default_factory=lambda: [0, 0])             # (measured, ub)


def _zoo_pass(models, out: Outcome, spans: Spans, meter: EngineMeter) -> ZooPass:
    """One pass: per model build -> compile(optimize) -> effects -> run ->
    cuDNN baseline (timed), then its output checks (untimed)."""
    zp = ZooPass(meter)
    for name in models:
        try:
            t0 = time.perf_counter()
            with spans.span("models.build_s"):
                graph = zoo.build(name)
            engine = BrickDLEngine(graph)
            plan = engine.compile(optimize=True)
            with spans.span("analysis.effects_s"):
                effects = analyze_effects(plan, engine.spec, engine.config)
            device = Device(adapt_sectors(engine.spec, plan))
            result = engine.run(None, functional=False, device=device, plan=plan)
            with spans.span("baselines.cudnn_s"):
                cudnn = CudnnBaseline(graph).run(None, functional=False)
            zp.host_s += time.perf_counter() - t0
        except Exception:
            out.crashed(f"zoo_full {name}")
            continue
        out.op(name)
        out.check(effects.proven, f"{name}: effect report not proven")
        manifest = manifest_from_result(name, result, device.spec)
        out.check(check_manifest_bracket(effects, manifest).ok,
                  f"{name}: measured DRAM traffic outside the static bracket")
        zp.sims[name] = (result.metrics.total_time, cudnn.metrics.total_time)
        zp.dram[0] += result.metrics.memory.dram_txns
        zp.dram[1] += effects.dram_ub
    return zp


def zoo_full(seed: int, seconds: float, traced: bool) -> Outcome:
    """Profile mode reads no input data and the models are fixed, so the
    seed changes nothing here."""
    out = Outcome()
    setup_s, _ = timed_setup(_zoo_warmup)

    def op():
        with EngineMeter().installed() as meter:
            plain = _zoo_pass(ZOO_MODELS, out, Spans(), meter)
        if not traced:
            return plain, None, None
        spans = Spans()
        meter = EngineMeter(ScopeTimer(spans))
        with traced_layers(spans, meter) as fired:
            hooked = _zoo_pass(ZOO_MODELS, out, spans, meter)
        return plain, hooked, layer_metrics(spans, fired[0], meter)

    results = repeat(op, seconds)
    passes = [p for r in results for p in r[:2] if p is not None]
    out.check(all(p.sims == passes[0].sims for p in passes),
              "zoo_full: simulated times differ between passes")
    plain = [r[0] for r in results]
    sims = passes[0].sims
    if traced:
        hooked, layers = results[-1][1], results[-1][2]
        layers["analysis.dram_bracket_slack"] = (
            (hooked.dram[1] - hooked.dram[0]) / hooked.dram[0])
        layers["baselines.cudnn_sim_ms"] = sum(c for _, c in sims.values()) * 1e3
        layers["trace_overhead_frac"] = hooked.host_s / results[-1][0].host_s - 1
        out.metrics = layers
        return out
    out.metrics = {
        "setup_s": setup_s,
        "host_s": statistics.median(p.host_s for p in plain),
        "sim_tasks_per_s": (sum(p.meter.tasks for p in plain)
                            / sum(p.meter.host_s for p in plain)),
        # The unit a user of the zoo sweep waits for is the whole pass.
        "lat_p50_ms": quantile([p.host_s for p in plain], 50) * 1e3,
        "lat_p90_ms": quantile([p.host_s for p in plain], 90) * 1e3,
        "sim_time_ms": sum(b for b, _ in sims.values()) * 1e3,
        "sim_speedup_vs_cudnn": geomean([c / b for b, c in sims.values()]),
    }
    return out


# ---------------------------------------------------------------------------
# scenario_diurnal: the serve fleet on the virtual-time loop, profile mode
# ---------------------------------------------------------------------------


def _scenario_warmup() -> list:
    scenario = SCENARIOS[SCENARIO]
    graphs = [zoo.build(name, reduced=True) for name in scenario.models]
    for graph in graphs:
        engine = BrickDLEngine(graph).for_batch(scenario.max_batch)
        plan = engine.compile()
        engine.run(None, functional=False, plan=plan,
                   device=Device(adapt_sectors(engine.spec, plan)))
    return graphs


@dataclass
class Replay:
    host_s: float
    report: object
    meter: EngineMeter
    submit: SubmitMeter
    entries: list = field(default_factory=list)


def _replay(seed: int, out: Outcome, meter: EngineMeter, traced: bool) -> Replay:
    """One seeded replay of the scenario, with its output checks."""
    submit = SubmitMeter()
    with contextlib.ExitStack() as stack:
        trace_path = None
        if traced:
            tmp = stack.enter_context(tempfile.TemporaryDirectory(prefix=".perfbench-", dir="."))
            trace_path = Path(tmp) / "trace.jsonl"
        with submit.installed():
            t0 = time.perf_counter()
            report = run_scenario(SCENARIO, seed=seed, trace_path=trace_path)
            host_s = time.perf_counter() - t0
        entries = []
        if trace_path is not None:
            with trace_path.open() as fh:
                entries = [json.loads(line) for line in fh]
    out.op(f"{SCENARIO}: requests shed, failed or degraded", count=report.requests,
           failed=report.requests - report.completed + submit.degraded)
    violations = report.check()
    out.check(not violations, f"{SCENARIO} objectives violated: {violations}")
    return Replay(host_s, report, meter, submit, entries)


def scenario_diurnal(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    setup_s, graphs = timed_setup(_scenario_warmup)

    def op():
        with EngineMeter().installed() as meter:
            plain = _replay(seed, out, meter, traced=False)
        if not traced:
            return plain, None, None
        spans = Spans()
        meter = EngineMeter(ScopeTimer(spans))
        with traced_layers(spans, meter) as fired:
            hooked = _replay(seed, out, meter, traced=True)
        return plain, hooked, layer_metrics(spans, fired[0], meter)

    results = repeat(op, seconds)
    plain = [r[0] for r in results]
    short = [run_scenario(SCENARIO, seed=seed, requests=FINGERPRINT_REQUESTS).fingerprint
             for _ in range(2)]
    out.check(len({r.report.fingerprint for r in plain}) == 1 and short[0] == short[1],
              f"{SCENARIO}: replays of seed {seed} gave different fingerprints")
    if traced:
        first, hooked, layers = results[-1]
        out.check(hooked.submit.loop_s == first.submit.loop_s
                  and hooked.report.stats["sim_time_s"] == first.report.stats["sim_time_s"],
                  f"{SCENARIO}: tracing changed virtual-time results")
        layers.update(serve_layers(None, hooked.report.stats, hooked.meter,
                                   hooked.submit, virtual=True))
        layers["serve.vt_attainment"] = (
            hooked.report.stats["classes"]["interactive"]["attainment"])
        layers.update(obs_layers(hooked.entries))
        layers["trace_overhead_frac"] = hooked.host_s / first.host_s - 1
        out.metrics = layers
        return out
    sim_ms, speedup = resident_sim(graphs, SCENARIOS[SCENARIO].max_batch)
    out.metrics = {
        "setup_s": setup_s,
        "host_s": statistics.median(r.host_s for r in plain),
        "sim_tasks_per_s": (sum(r.meter.tasks for r in plain)
                            / sum(r.meter.host_s for r in plain)),
        # The unit a user of a replay waits for is the whole replay.
        "lat_p50_ms": quantile([r.host_s for r in plain], 50) * 1e3,
        "lat_p90_ms": quantile([r.host_s for r in plain], 90) * 1e3,
        "sim_time_ms": sim_ms,
        "sim_speedup_vs_cudnn": speedup,
    }
    return out


def serve_layers(before: dict | None, after: dict, meter: EngineMeter,
                 submit: SubmitMeter, virtual: bool) -> dict[str, float]:
    """serve.* per-layer metrics of the requests served between two
    ``stats()`` snapshots (``before`` None: since the server started);
    ``virtual`` when the server ran on the virtual-time loop."""
    def grew(*path):
        now, then = after, before
        for key in path:
            now, then = now[key], then[key] if then is not None else None
        return now - (then or 0)

    batches = grew("batches", "count")
    hits, misses = grew("plan_cache", "hits"), grew("plan_cache", "misses")
    batched = grew("requests", "completed") - grew("requests", "degraded")
    layers = {
        "serve.execute_s": meter.host_s,
        "serve.batches": batches,
        "serve.mean_batch": batched / batches if batches else 0.0,
        "serve.preemptions": grew("batches", "preemptions"),
        "serve.plancache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.plancache_lookups": hits + misses,
        "serve.queued_ms": statistics.fmean(submit.queued_s) * 1e3,
        "serve.service_ms": statistics.fmean(submit.service_s) * 1e3,
        # The plan cache's own compile clock over the server's life: wall
        # time (set-up included) when serving for real, virtual time --
        # where compiles take none -- under the scenario loop.
        "serve.compile_s": after["stages"]["compile_total_s"],
    }
    if virtual:
        layers["serve.vt_p50_ms"] = quantile(submit.loop_s, 50) * 1e3
        layers["serve.vt_p95_ms"] = quantile(submit.loop_s, 95) * 1e3
    return layers


def obs_layers(entries: list[dict]) -> dict[str, float]:
    return {f"obs.{name}_self_ms": ms
            for name, ms in self_times_ms(entries, OBS_SPANS).items()}


# ---------------------------------------------------------------------------
# serve_functional: wall-clock serving, worker threads, NumPy kernels
# ---------------------------------------------------------------------------

SERVE_CONFIG = ServeConfig(devices=2, max_batch=8, functional=True, execution="thread")


def _serve_requests(seed: int, graphs) -> list[tuple[str, np.ndarray]]:
    """An even model mix in seeded order, each with a seeded input."""
    rng = np.random.default_rng(seed)
    names = [graphs[i % len(graphs)].name for i in range(SERVE_REQUESTS)]
    order = rng.permutation(len(names))
    shapes = {g.name: g.input_nodes[0].spec.shape for g in graphs}
    return [(names[i], rng.standard_normal(shapes[names[i]], dtype=np.float32))
            for i in order]


async def _start_server(requests, tracer=None) -> InferenceServer:
    """Build the resident models, start a server and compile each one's
    batch-1 plan with a first request."""
    graphs = [zoo.build(name, reduced=True) for name in SERVE_MODELS]
    server = InferenceServer(graphs, config=SERVE_CONFIG, tracer=tracer)
    await server.start()
    for graph in graphs:
        x = next(x for name, x in requests if name == graph.name)
        await server.submit(x, model=graph.name)
    return server


@dataclass
class Session:
    host_s: float
    responses: list
    meter: EngineMeter
    submit: SubmitMeter
    before: dict
    stats: dict
    entries: list = field(default_factory=list)


async def _session(server: InferenceServer, requests, meter: EngineMeter) -> Session:
    """Closed loop: SERVE_IN_FLIGHT clients, each sends its next request
    when the previous one returns."""
    responses: list = [None] * len(requests)
    pending = iter(range(len(requests)))
    submit = SubmitMeter()

    async def client() -> None:
        for i in pending:
            model, x = requests[i]
            try:
                responses[i] = await server.submit(x, model=model)
            except Exception as exc:  # counted as a failed request
                responses[i] = exc

    before = server.stats()
    with submit.installed():
        t0 = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(SERVE_IN_FLIGHT)))
        host_s = time.perf_counter() - t0
    return Session(host_s, responses, meter, submit, before, server.stats())


def _check_session(session: Session, requests, graphs, out: Outcome) -> tuple[int, int]:
    """Failed requests, then sampled responses against the reference
    interpreter (tolerance) and a single-shot engine run (bitwise).
    Returns (checked, bitwise equal)."""
    bad = sum(1 for r in session.responses
              if isinstance(r, Exception) or r.degraded or r.timed_out)
    out.op("serve_functional: requests failed or degraded",
           count=len(requests), failed=bad)
    checked = equal = 0
    for graph in graphs:
        engine = BrickDLEngine(graph)
        plan = engine.compile()
        reference = ReferenceExecutor(graph)
        mine = [i for i, (name, _) in enumerate(requests)
                if name == graph.name and not isinstance(session.responses[i], Exception)]
        stride = max(len(mine) // SERVE_CHECKS_PER_MODEL, 1)
        for i in mine[::stride][:SERVE_CHECKS_PER_MODEL]:
            x = requests[i][1]
            served = session.responses[i].outputs
            single = engine.run(x, functional=True, plan=plan).outputs
            want = reference.run(x)
            out.check(all(np.allclose(served[k], want[k], atol=ATOL, rtol=RTOL) for k in want),
                      f"{graph.name}: request {i} differs from the reference interpreter")
            checked += 1
            equal += all(np.array_equal(served[k], single[k]) for k in single)
    return checked, equal


def serve_functional(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    probe = [zoo.build(name, reduced=True) for name in SERVE_MODELS]
    requests = _serve_requests(seed, probe)

    async def main():
        setups, server = [], None
        for _ in range(SETUP_REPEATS):
            if server is not None:
                await server.close()
            t0 = time.perf_counter()
            server = await _start_server(requests)
            setups.append(time.perf_counter() - t0)
        graphs = list(server.graphs.values())
        try:
            async def op():
                with EngineMeter().installed() as meter:
                    plain = await _session(server, requests, meter)
                if not traced:
                    return plain, None, None
                spans = Spans()
                meter = EngineMeter(ScopeTimer(spans))
                tracer = Tracer()
                traced_server = await _start_server(requests, tracer=tracer)
                try:
                    start = len(tracer.entries)
                    with traced_layers(spans, meter) as fired:
                        hooked = await _session(traced_server, requests, meter)
                    hooked.entries = tracer.entries[start:]
                finally:
                    await traced_server.close()
                return plain, hooked, layer_metrics(spans, fired[0], meter)

            # The loop of repeat(), awaiting each operation.
            results, start = [], time.perf_counter()
            while True:
                t0 = time.perf_counter()
                results.append(await op())
                now = time.perf_counter()
                if now - start + (now - t0) > seconds:
                    break
        finally:
            await server.close()
        return statistics.median(setups), graphs, results

    setup_s, graphs, results = asyncio.run(main())
    plain = [r[0] for r in results]
    if traced:
        first, hooked, layers = results[-1]
        checked, equal = _check_session(hooked, requests, graphs, out)
        layers.update(serve_layers(hooked.before, hooked.stats, hooked.meter,
                                   hooked.submit, virtual=False))
        layers.update(obs_layers(hooked.entries))
        layers["serve.responses_checked"] = checked
        layers["serve.bitexact_frac"] = equal / checked if checked else 0.0
        layers["trace_overhead_frac"] = hooked.host_s / first.host_s - 1
        out.metrics = layers
        return out
    for session in plain:
        _check_session(session, requests, graphs, out)
    sim_ms, speedup = resident_sim(probe, 1)
    latencies = [t for s in plain for t in s.submit.host_s]
    out.metrics = {
        "setup_s": setup_s,
        "host_s": statistics.median(s.host_s for s in plain),
        "sim_tasks_per_s": (sum(s.meter.tasks for s in plain)
                            / sum(s.meter.host_s for s in plain)),
        "lat_p50_ms": quantile(latencies, 50) * 1e3,
        "lat_p90_ms": quantile(latencies, 90) * 1e3,
        "sim_time_ms": sim_ms,
        "sim_speedup_vs_cudnn": speedup,
    }
    return out


WORKLOADS = {
    "zoo_full": zoo_full,
    "scenario_diurnal": scenario_diurnal,
    "serve_functional": serve_functional,
}
