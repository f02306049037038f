"""Merged execution with recursive memoized bricks (section 3.2.2).

Every (node, brick) in the subgraph is computed **exactly once** and cached
in a bricked memo tensor.  Dependencies are resolved top-down: a virtual
thread block working on an exit brick backtracks through the layers,
computing whatever dependent bricks are still missing -- Fig. 2(d)'s
recursive ``compConv2D``.

Concurrency is simulated with a deterministic round-robin scheduler over
``num_sms`` virtual workers.  Each brick carries the paper's three-state tag:

* ``0`` not started -- a worker CASes it to 1 and owns it (compulsory atomic),
* ``1`` in progress -- another worker observing this records a *conflict*
  atomic and either moves on to a different state-0 dependency or stalls,
* ``2`` complete -- with a release CAS (the second compulsory atomic).

A brick's computation occupies its worker for a number of scheduler turns
proportional to the modeled kernel time, so overlapping workers genuinely
collide on shared halo bricks: the conflict counts of Figs. 8/10/11 are an
emergent property of the schedule, not an input.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.geometry import SubgraphGeometry
from repro.core.handles import BrickedHandle
from repro.errors import ExecutionError
from repro.graph.regions import Region
from repro.graph.traversal import SubgraphView
from repro.gpusim.device import Device
from repro.gpusim.trace import Buffer, Task, brick_token, buffer_token
from repro.kernels import apply_node_local, pad_value_for

__all__ = ["MemoizedBrickExecutor", "HALO_NEIGHBORHOOD_BRICKS"]

_NOT_STARTED, _IN_PROGRESS, _COMPLETE = 0, 1, 2

# A brick's concurrent dependency set: itself plus its halo neighbors -- the
# ~27 bricks of a 3x3x3 spatial neighborhood (fewer in 2-D, but 27 is the
# paper's 3-D working regime and a safe upper bound).  The coalescing window
# spans one such neighborhood per concurrently resident worker.
HALO_NEIGHBORHOOD_BRICKS = 27


@dataclass
class _Frame:
    """One owned brick on a worker's recursion stack."""

    nid: int
    gpos: tuple[int, ...]
    batch: int
    deps: list[tuple[int, tuple[int, ...]]] | None = None
    blocked: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)


class MemoizedBrickExecutor:
    """Executes one merged subgraph with the memoized-bricks strategy."""

    def __init__(
        self,
        subgraph: SubgraphView,
        brick_shape: tuple[int, ...],
        device: Device,
        entries: dict[int, BrickedHandle],
        weight_buffers: dict[int, Buffer],
        functional: bool = True,
    ) -> None:
        self.subgraph = subgraph
        self.brick_shape = tuple(brick_shape)
        self.device = device
        self.entries = entries
        self.weight_buffers = weight_buffers
        self.functional = functional
        self.graph = subgraph.graph
        self.members = set(subgraph.node_ids)
        self.geom = SubgraphGeometry(subgraph)
        for eid in subgraph.entry_ids:
            if eid not in entries:
                raise ExecutionError(f"memoized executor missing entry handle for node {eid}")

        # Memo storage: a bricked tensor per member node.
        self.memo: dict[int, BrickedHandle] = {}
        self.states: dict[int, bytearray] = {}
        for nid in subgraph.node_ids:
            node = self.graph.node(nid)
            grid_bricks = math.prod(-(-e // b) for e, b in zip(node.spec.spatial, self.brick_shape))
            nbytes = node.spec.batch * grid_bricks * node.spec.channels * math.prod(self.brick_shape) * node.spec.itemsize
            buf = self.device.allocate(f"{node.name}/memo", nbytes, transient=True)
            self.memo[nid] = BrickedHandle.create(node.spec, self.brick_shape, buf, self.functional)
            self.states[nid] = bytearray(node.spec.batch * grid_bricks)
        # Per-brick geometry memo tables (see repro.core.geometry): the
        # scheduler resolves each (node, grid position) several times -- the
        # dependency scan, the sync stamping, and the task emission -- and
        # every batch sample repeats the same geometry, so these tables turn
        # the per-brick region algebra into dict hits.
        self._tmpl: dict[tuple[int, tuple[int, ...]], tuple] = {}
        self._dep_cache: dict[tuple[int, tuple[int, ...]],
                              list[tuple[int, tuple[int, ...]]]] = {}
        self._flat_geom = {nid: (h.grid.grid_shape, h.grid.num_bricks)
                           for nid, h in self.memo.items()}

        # Scheduler time quantum: set adaptively from the first task so a
        # brick computation spans a handful of rounds regardless of scale
        # (one round = one action per virtual worker).
        self._quantum: float | None = None
        self.total_conflicts = 0
        self.total_compulsory = 0
        self.total_visits = 0
        # Memoization effectiveness: completed-tag observations (a consumer
        # found its dependency already computed -- the "reuse" the strategy
        # exists for) and protocol-coalesced brick re-reads (certified L2
        # hits).  Both feed the metrics registry at the end of the run.
        self.total_reuses = 0
        self.coalesced_reads = 0
        # Consumer-coalescing brick LRU: the 3-state protocol synchronizes a
        # brick's consumers around its completion and the 108 workers run
        # truly concurrently, so re-reads within the *concurrent* working
        # window hit L2.  A strictly serialized replay of the worker streams
        # would charge them as capacity misses, so the executor tracks brick
        # recency itself, with an effective capacity of ``coalesce_factor``
        # concurrent L2 windows (see DESIGN.md, "consumer coalescing").
        # Window size: the fleet's concurrent dependency sets (one ~27-brick
        # halo neighborhood per worker), floored by a multiple of the L2's
        # own brick capacity.
        max_brick_bytes = max(h.brick_nbytes for h in self.memo.values())
        l2_bricks = device.spec.l2_bytes // max(1, max_brick_bytes)
        # Deeper merged regions interleave more layers' bricks through the
        # same concurrent window, diluting per-layer residency: the window
        # shrinks with the square root of the merge depth.
        depth = max(1, subgraph.depth)
        wave = int(HALO_NEIGHBORHOOD_BRICKS * device.spec.num_sms * min(1.0, 3.0 / depth))
        self._recent_capacity = max(8 * l2_bricks, wave, 64)
        self._recent: "OrderedDict[tuple[int, int], None]" = OrderedDict()
        self._round = 0
        self._busy_rounds = 0
        self._durations: list[float] = []

    # -- public ----------------------------------------------------------------
    def run(self) -> dict[int, BrickedHandle]:
        goals = self._sink_goals()
        num_workers = self.device.spec.num_sms
        # Clustered assignment: each worker owns a contiguous chunk of exit
        # bricks (the paper's clustered thread blocks).
        chunks: list[list[tuple[int, tuple[int, ...], int]]] = [[] for _ in range(num_workers)]
        per = -(-len(goals) // num_workers) if goals else 1
        for i, g in enumerate(goals):
            chunks[min(i // per, num_workers - 1)].append(g)

        workers = [_WorkerState(index=i, queue=list(reversed(chunk)))
                   for i, chunk in enumerate(chunks)]
        self._workers = workers
        active = [w for w in workers if w.queue]

        while active:
            self._round += 1
            if any(w.busy for w in active):
                self._busy_rounds += 1
            still = []
            for w in active:
                self._step(w)
                if w.queue or w.stack or w.busy:
                    still.append(w)
            active = still
        # Scheduler-level atomic conflicts and memo-table visits feed the
        # device's counters (compulsory atomics ride on the tasks).
        self.device.atomics.conflict += self.total_conflicts
        self.device.add_overhead(self.total_visits * self.device.spec.memo_visit_s / max(1, self.device.spec.num_sms))
        # Dependency-stall overhead: the simulated wall clock (rounds x
        # quantum) exceeds the ideal independent-task makespan when workers
        # stall on in-progress bricks -- the recursion serialization that
        # grows with merge depth (the paper's "Other" time: recursion,
        # synchronization, stalls).
        if self._quantum is not None and self._workers:
            # Stall turns are discounted: an SM whose resident block spins on
            # a tag runs its other resident thread blocks meanwhile (A100 SMs
            # hold many blocks), so only ~1/4 of stall time surfaces as lost
            # wall-clock.
            wall = max(w.busy_turns + w.stall_turns / 4.0 for w in self._workers) * self._quantum
            ideal = sum(self._durations) / max(1, self.device.spec.num_sms)
            if wall > ideal:
                self.device.add_overhead(wall - ideal)
        reg = self.device.metrics_registry
        reg.inc("memo_cas_retries", self.total_conflicts)
        reg.inc("memo_compulsory_cas", self.total_compulsory)
        reg.inc("memo_table_visits", self.total_visits)
        reg.inc("memo_bricks_computed", len(self._durations))
        reg.inc("memo_bricks_reused", self.total_reuses)
        reg.inc("memo_coalesced_reads", self.coalesced_reads)
        self.device.synchronize()  # reduction across bricks at subgraph end
        return {eid: self.memo[eid] for eid in self.subgraph.exit_ids}

    # -- scheduling ---------------------------------------------------------
    def _step(self, w: "_WorkerState") -> None:
        if w.busy > 0:
            w.busy -= 1
            w.busy_turns += 1
            if w.busy == 0:
                nid, gpos, batch = w.computing
                self._set_state(nid, gpos, batch, _COMPLETE)
                w.stack.pop()
            return

        if not w.stack:
            while w.queue:
                nid, gpos, batch = w.queue.pop()
                state = self._get_state(nid, gpos, batch)
                self.total_visits += 1
                if state == _NOT_STARTED:
                    self._acquire(w, nid, gpos, batch)
                    return
                if state == _IN_PROGRESS:
                    # Our exit brick is being produced by another worker;
                    # spin on it (conflict CAS) until it completes.
                    self.total_conflicts += self._spins_per_turn()
                    w.stall_turns += 1
                    w.queue.append((nid, gpos, batch))
                    return
                # _COMPLETE: someone already made it; take the next goal.
                self.total_reuses += 1
            return

        frame = w.stack[-1]
        if frame.deps is None:
            frame.deps = self._dependencies(frame.nid, frame.gpos, frame.batch)

        # Scan pending dependencies; prefer state-0 work (descend), remember
        # in-progress blocks for later, and only stall when nothing else is
        # runnable.  Unscanned deps are retained for the next turn.
        pending = frame.blocked + frame.deps
        keep: list[tuple[int, tuple[int, ...]]] = []
        for idx, dep in enumerate(pending):
            dnid, dgpos = dep
            state = self._get_state(dnid, dgpos, frame.batch)
            self.total_visits += 1
            if state == _COMPLETE:
                self.total_reuses += 1
                continue
            if state == _IN_PROGRESS:
                self.total_conflicts += self._spins_per_turn()
                keep.append(dep)
                continue
            # state 0: descend into this dependency this turn; everything not
            # yet scanned stays pending.
            frame.blocked = keep + pending[idx + 1:]
            frame.deps = []
            self._acquire(w, dnid, dgpos, frame.batch)
            return
        frame.blocked = keep
        frame.deps = []
        if keep:
            w.stall_turns += 1
            return  # stall this turn; owners are progressing elsewhere
        # All dependencies complete: compute this brick.
        self._start_compute(w, frame)

    def _spins_per_turn(self) -> int:
        """Conflict CAS issued while stalled for one scheduler turn.

        A stalled thread block re-issues its CAS at the hardware spin
        interval; one scheduler turn spans one time quantum.
        """
        if self._quantum is None:
            return 1
        return max(1, round(self._quantum / self.device.spec.spin_interval_s))

    def _acquire(self, w: "_WorkerState", nid: int, gpos: tuple[int, ...], batch: int) -> None:
        self._set_state(nid, gpos, batch, _IN_PROGRESS)
        self.total_compulsory += 2  # acquire now, release at completion
        w.stack.append(_Frame(nid=nid, gpos=gpos, batch=batch))

    def _brick_geom(self, nid: int, gpos: tuple[int, ...]) -> tuple:
        """(region, needs, offsets, flops) for one brick, memoized.

        Pure geometry -- identical for every batch sample and every
        resolution of the same (node, grid position) pair."""
        key = (nid, gpos)
        tmpl = self._tmpl.get(key)
        if tmpl is None:
            node = self.graph.node(nid)
            region = self.memo[nid].grid.brick_region(gpos, clipped=True)
            needs, offsets = self.geom.needs(nid, region)
            flops = self.geom.flops(nid, node.spec.channels * region.size)
            tmpl = (region, needs, offsets, flops)
            self._tmpl[key] = tmpl
        return tmpl

    def _start_compute(self, w: "_WorkerState", frame: _Frame) -> None:
        node = self.graph.node(frame.nid)
        handle = self.memo[frame.nid]
        # One need region and offset tuple per input: inputs may have
        # differing halos, so each patch is aligned by its own
        # receptive-field offsets.
        region, needs, offsets, flops = self._brick_geom(frame.nid, frame.gpos)

        task = Task(label=f"memo/{node.name}/{frame.gpos}", node_id=frame.nid,
                    strategy="memoized", worker=w.index,
                    brick=frame.gpos, batch_index=frame.batch)
        for input_index, pred in enumerate(node.inputs):
            source = self.memo.get(pred) or self.entries.get(pred)
            if source is None:
                raise ExecutionError(f"no source handle for predecessor {pred}")
            self._read_bricks(task, source, frame.batch, needs[input_index])
        wb = self.weight_buffers.get(frame.nid)
        if wb is not None and wb.nbytes:
            task.read(wb, 0, wb.nbytes)
        own_offset = handle.brick_offset(frame.batch, frame.gpos)
        handle.emit_brick_write(task, frame.batch, frame.gpos)
        self._touch((handle.buffer.buffer_id, own_offset))
        self._stamp_sync(task, frame, own_offset)
        task.flops = flops
        task.atomics_compulsory = 2

        if self.functional:
            fill = pad_value_for(node.op)
            patches = []
            for need, pred in zip(needs, node.inputs):
                source = self.memo.get(pred) or self.entries.get(pred)
                patches.append(source.gather(frame.batch, need, fill))
            values = apply_node_local(node.op, patches, node.weights, region.shape, offsets)
            handle.scatter(frame.batch, region, values)

        self.device.submit(task)
        if self.functional:
            self.device.note_values(task, frame.nid, values)
        duration = self.device.spec.task_time(task.flops, task.calls)
        self._durations.append(duration)
        if self._quantum is None:
            self._quantum = max(self.device.spec.call_overhead_s, duration / 4.0)
        w.busy = max(1, round(duration / self._quantum))
        w.computing = (frame.nid, frame.gpos, frame.batch)

    def _stamp_sync(self, task: Task, frame: _Frame, own_offset: int) -> None:
        """Stamp the protocol's happens-before edges on a brick task.

        Acquires: the tag-checked member dependency bricks (the consumer
        side of each dep's completion CAS) plus the whole-buffer token of
        every entry source read (kernel-launch ordering against the layout
        conversion that produced it).  Releases: this brick's own completion
        CAS and its memo buffer's whole-buffer token.  These mirror exactly
        what the simulated protocol synchronizes with -- the execution
        sanitizer's race detector trusts nothing else.
        """
        handle = self.memo[frame.nid]
        for dnid, dgpos in self._dependencies(frame.nid, frame.gpos, frame.batch):
            dep = self.memo[dnid]
            task.acquire(brick_token(dep.buffer, dep.brick_offset(frame.batch, dgpos)))
        for pred in self.graph.node(frame.nid).inputs:
            if pred not in self.members:
                source = self.entries.get(pred)
                if source is not None:
                    task.acquire(buffer_token(source.buffer))
        task.release(brick_token(handle.buffer, own_offset))
        task.release(buffer_token(handle.buffer))

    def _touch(self, key: tuple[int, int]) -> bool:
        """Refresh a brick in the recency LRU; returns True if it was hot."""
        hot = key in self._recent
        if hot:
            self._recent.move_to_end(key)
        else:
            self._recent[key] = None
            if len(self._recent) > self._recent_capacity:
                self._recent.popitem(last=False)
        return hot

    def _read_bricks(self, task: Task, source, batch: int, need: Region) -> None:
        """Emit dep-brick reads, coalescing protocol-synchronized re-reads.

        Dense graph inputs are read directly with strided accesses (BrickDL
        forms bricks as the first layer's tasks stream the input)."""
        if not isinstance(source, BrickedHandle):
            source.emit_region_read(task, batch, need)
            return
        # Brick offsets come from the handle's cached per-region physical
        # vector; the per-brick read rows stay individual (the hot flag is
        # scheduler state, so rows within one region genuinely differ).
        phys = source._region_physical(need)
        if phys.size == 0:
            return
        nbytes = source.brick_nbytes
        buffer = source.buffer
        bid = buffer.buffer_id
        for offset in ((batch * source.grid.num_bricks + phys) * nbytes).tolist():
            hot = self._touch((bid, offset))
            if hot:
                self.coalesced_reads += 1
            task.read(buffer, offset, nbytes, assume_l2=hot)

    # -- dependencies -----------------------------------------------------------
    def _dependencies(self, nid: int, gpos: tuple[int, ...], batch: int) -> list[tuple[int, tuple[int, ...]]]:
        """Member bricks this brick reads (entries are always available).

        Batch-independent, so the result is memoized per (node, grid
        position) and shared between the dependency scan and the sync
        stamping.  Callers must not mutate the returned list."""
        key = (nid, gpos)
        deps = self._dep_cache.get(key)
        if deps is None:
            node = self.graph.node(nid)
            _, needs, _, _ = self._brick_geom(nid, gpos)
            deps = []
            for input_index, pred in enumerate(node.inputs):
                if pred not in self.members:
                    continue
                for dep_pos in self.memo[pred].grid.overlap_plan(needs[input_index]):
                    deps.append((pred, dep_pos))
            self._dep_cache[key] = deps
        return deps

    # -- state ---------------------------------------------------------------
    def _flat(self, nid: int, gpos: tuple[int, ...], batch: int) -> int:
        grid, num_bricks = self._flat_geom[nid]
        idx = 0
        for p, g in zip(gpos, grid):
            idx = idx * g + p
        return batch * num_bricks + idx

    def _get_state(self, nid: int, gpos: tuple[int, ...], batch: int) -> int:
        return self.states[nid][self._flat(nid, gpos, batch)]

    def _set_state(self, nid: int, gpos: tuple[int, ...], batch: int, state: int) -> None:
        self.states[nid][self._flat(nid, gpos, batch)] = state

    def _sink_goals(self) -> list[tuple[int, tuple[int, ...], int]]:
        """Exit bricks in spatially clustered order.

        Goals are sorted by coarse cubic cluster so each worker's contiguous
        chunk is a compact spatial block rather than a row-major stripe:
        dependent bricks are then shared mostly *within* a chunk (short L2
        reuse distances) instead of across distant workers.
        """
        goals = []
        batch = self.graph.node(self.subgraph.node_ids[0]).spec.batch
        num_workers = max(1, self.device.spec.num_sms)
        for eid in self.subgraph.exit_ids:
            handle = self.memo[eid]
            grid = handle.grid.grid_shape
            nd = len(grid)
            total = handle.grid.num_bricks
            # Cluster side so that one cluster is roughly one worker's share.
            share = max(1, total // num_workers)
            side = max(1, round(share ** (1.0 / nd)))
            def cluster_key(gpos: tuple[int, ...]) -> tuple:
                return (tuple(p // side for p in gpos), gpos)
            for gpos in sorted(handle.bricks(), key=cluster_key):
                for n in range(batch):
                    goals.append((eid, gpos, n))
        return goals


@dataclass
class _WorkerState:
    index: int
    queue: list[tuple[int, tuple[int, ...], int]]
    stack: list[_Frame] = field(default_factory=list)
    busy: int = 0
    computing: tuple[int, tuple[int, ...], int] | None = None
    busy_turns: int = 0    # turns spent computing bricks
    stall_turns: int = 0   # turns spent spinning on in-progress bricks
