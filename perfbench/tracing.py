"""Host-time tracing installed around the program's public layer calls.

A :class:`Tracer` records, at each layer boundary, a span (name, start,
end, the span that caused it, an id shared by every span of one kernel
point or fleet request) and a per-layer tally of calls, total time and
self time.  A layer's self time is its duration minus the time its child
boundaries cover, so the self times of all layers partition the traced
host time.

Boundaries crossed millions of times per pass (``Tile.step``, LLC
accesses, event callbacks, scratchpad deliveries, inet pushes) are
*hot*: they keep the tally but append no span record, because a record
per interpreter step would cost more memory than the simulation.

:func:`install` patches the wrappers onto the program's classes and
module attributes and returns a :class:`Patches` whose ``restore`` puts
the originals back.  The wrappers call the originals with unchanged
arguments, so simulated results are identical with tracing on and off;
the benchmark checks this through its sim fingerprint.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional

clock = time.perf_counter


class Tracer:
    """Spans and per-layer tallies, kept in memory until the run ends."""

    def __init__(self):
        #: span records: name, id, parent (index into spans), start, end,
        #: self_s
        self.spans: List[dict] = []
        #: layer name -> [calls, total_s, self_s]
        self.layers: Dict[str, list] = {}
        # child-time accumulators of the open boundaries; index 0 is the
        # root, which no boundary closes
        self._child = [0.0]
        # indices of the open span records (None: no span open)
        self._open: List[Optional[int]] = [None]
        #: id(params dict) -> request trace id, for serve-side kernel spans
        self.param_ids: Dict[int, str] = {}
        self.last_id: Optional[str] = None
        #: counts read off return values at a boundary (LLC accesses and
        #: misses from each fabric run's RunStats)
        self.counts: Dict[str, int] = {}

    def reset(self) -> None:
        """Forget everything recorded, in place: installed wrappers keep
        references to these containers."""
        self.spans.clear()
        for tally in self.layers.values():
            tally[:] = [0, 0.0, 0.0]
        self._child[:] = [0.0]
        self._open[:] = [None]
        self.param_ids.clear()
        self.last_id = None
        self.counts.clear()

    def layer(self, name: str) -> list:
        tally = self.layers.get(name)
        if tally is None:
            tally = self.layers[name] = [0, 0.0, 0.0]
        return tally

    def calls(self, name: str) -> int:
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[2]

    # -------------------------------------------------------------- spans
    def _open_span(self, name: str, span_id: Optional[str]) -> dict:
        parent = self._open[-1]
        if span_id is None and parent is not None:
            span_id = self.spans[parent]['id']
        rec = {'name': name, 'id': span_id, 'parent': parent,
               'start': 0.0, 'end': 0.0, 'self_s': 0.0}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        self._child.append(0.0)
        return rec

    def _close_span(self, rec: dict, t0: float, t1: float,
                    tally: list) -> None:
        dt = t1 - t0
        child = self._child.pop()
        self._child[-1] += dt
        self._open.pop()
        rec['start'] = t0
        rec['end'] = t1
        rec['self_s'] = dt - child
        tally[0] += 1
        tally[1] += dt
        tally[2] += dt - child

    @contextlib.contextmanager
    def span(self, name: str, span_id: Optional[str] = None):
        """A span opened by the benchmark's own code; yields its index."""
        tally = self.layer(name)
        rec = self._open_span(name, span_id)
        t0 = clock()
        try:
            yield len(self.spans) - 1
        finally:
            self._close_span(rec, t0, clock(), tally)

    def wrap_span(self, fn: Callable, name: str,
                  id_of: Optional[Callable] = None) -> Callable:
        """Wrap ``fn`` so each call records a span named ``name``.

        ``id_of(*args, **kwargs)`` may name the span's id; when it returns
        None the span inherits its parent's id.
        """
        tally = self.layer(name)

        def wrapper(*args, **kwargs):
            rec = self._open_span(
                name, id_of(*args, **kwargs) if id_of else None)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_span(rec, t0, clock(), tally)
        wrapper.__wrapped__ = fn
        return wrapper

    # -------------------------------------------------------- hot layers
    def wrap_hot(self, fn: Callable, name: str) -> Callable:
        """Wrap ``fn`` with a tally-only boundary (no span record)."""
        tally = self.layer(name)
        child = self._child

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                c = child.pop()
                child[-1] += dt
                tally[0] += 1
                tally[1] += dt
                tally[2] += dt - c
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_count(self, fn: Callable, name: str) -> Callable:
        """Count calls only; their time stays with the caller's layer."""
        tally = self.layer(name)

        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_step(self, fn: Callable, roles: Dict[object, str]) -> Callable:
        """``Tile.step``, tallied under the tile's role at call time."""
        tallies = {mode: self.layer(name) for mode, name in roles.items()}
        front = self.layer('tile.step.front')
        child = self._child

        def step(tile, now):
            tally = tallies.get(tile.mode, front)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(tile, now)
            finally:
                dt = clock() - t0
                c = child.pop()
                child[-1] += dt
                tally[0] += 1
                tally[1] += dt
                tally[2] += dt - c
        step.__wrapped__ = fn
        return step

    # ---------------------------------------------------- worker hand-off
    def export(self) -> dict:
        """This tracer's spans and tallies, for shipping out of a worker."""
        return {'spans': self.spans,
                'layers': {k: list(v) for k, v in self.layers.items()},
                'counts': dict(self.counts)}

    def adopt(self, docs: List[dict], parent: int) -> None:
        """Merge workers' exported traces under span index ``parent``.

        The workers ran while the parent waited inside ``parent``, so
        the union of their root spans' intervals counts as that span's
        child time: its self time keeps only the hand-off the workers
        do not cover.
        """
        covered = []
        for doc in docs:
            offset = len(self.spans)
            for rec in doc['spans']:
                rec = dict(rec)
                if rec['parent'] is None:
                    rec['parent'] = parent
                    covered.append((rec['start'], rec['end']))
                else:
                    rec['parent'] += offset
                self.spans.append(rec)
            for name, (calls, total, self_s) in doc['layers'].items():
                tally = self.layer(name)
                tally[0] += calls
                tally[1] += total
                tally[2] += self_s
            for name, n in doc['counts'].items():
                self.counts[name] = self.counts.get(name, 0) + n
        host = self.spans[parent]
        union = _union_within(covered, host['start'], host['end'])
        host['self_s'] -= union
        self.layer(host['name'])[2] -= union


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Patches:
    """The attributes :func:`install` replaced, restorable in reverse."""

    def __init__(self):
        self._saved: List[tuple] = []
        self.missing: List[str] = []

    def replace(self, owner, attr: str, make: Callable) -> None:
        """Set ``owner.attr = make(current)``; note it if ``attr`` is gone."""
        if not hasattr(owner, attr):
            self.missing.append(f'{getattr(owner, "__name__", owner)}.{attr}')
            return
        own = attr in vars(owner)
        self._saved.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, make(getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved.clear()


def install(tracer: Tracer) -> Patches:
    """Wrap every traced boundary of the program with ``tracer``."""
    import repro.energy
    import repro.serve
    from repro.core.inet import InetQueue
    from repro.core.vgroup import ROLE_EXPANDER, ROLE_VECTOR
    from repro.fleet import FleetRouter
    from repro.kernels import registry
    from repro.manycore.dram import Dram
    from repro.manycore.fabric import Fabric
    from repro.manycore.llc import LLCBank
    from repro.manycore.tile import Tile
    from repro.serve import ServeScheduler

    p = Patches()
    t = tracer

    # interpreter
    p.replace(Tile, 'step', lambda fn: t.wrap_step(
        fn, {ROLE_VECTOR: 'tile.step.vector',
             ROLE_EXPANDER: 'tile.step.expander'}))

    # event loop: the run loops, and every callback handed to Fabric.post
    def wrap_run(run):
        spanned = t.wrap_span(run, 'fabric.run')

        def traced_run(fabric, *args, **kwargs):
            stats = spanned(fabric, *args, **kwargs)
            for name in ('llc_accesses', 'llc_misses'):
                t.counts[name] = (t.counts.get(name, 0)
                                  + getattr(stats.mem, name))
            return stats
        traced_run.__wrapped__ = run
        return traced_run

    def wrap_post(post):
        def traced_post(fabric, time, fn):
            return post(fabric, time, t.wrap_hot(fn, 'fabric.events'))
        traced_post.__wrapped__ = post
        return traced_post
    for attr in ('run', 'run_serve'):
        p.replace(Fabric, attr, wrap_run)
    p.replace(Fabric, 'post', wrap_post)

    # memory system and network
    p.replace(LLCBank, 'access', lambda fn: t.wrap_hot(fn, 'llc.access'))
    p.replace(Dram, 'read_line',
              lambda fn: t.wrap_count(fn, 'dram.read_line'))
    p.replace(Fabric, 'spad_deliver',
              lambda fn: t.wrap_hot(fn, 'fabric.spad_deliver'))
    p.replace(InetQueue, 'push', lambda fn: t.wrap_hot(fn, 'inet.push'))

    # kernels: a serve request's kernel spans take its trace id, found
    # through the params dict the scheduler passes to every kernel call
    def params_at(i):
        def id_of(*args, **kwargs):
            rid = t.param_ids.get(id(args[i])) if len(args) > i else None
            if rid is not None:
                t.last_id = rid
            return rid
        return id_of

    for cls in registry.ALL:
        p.replace(cls, 'setup', lambda fn: t.wrap_span(
            fn, 'kernels.setup', params_at(2)))
        for attr in ('build_mimd', 'build_vector'):
            p.replace(cls, attr, lambda fn: t.wrap_span(
                fn, 'kernels.codegen', params_at(3)))
        p.replace(cls, 'verify', lambda fn: t.wrap_span(
            fn, 'kernels.verify', params_at(3)))
    p.replace(Fabric, 'load_program',
              lambda fn: t.wrap_span(fn, 'kernels.codegen'))
    # serve loads a request's program right after building it
    p.replace(Fabric, 'launch_job', lambda fn: t.wrap_span(
        fn, 'kernels.codegen', lambda *a, **k: t.last_id))
    p.replace(repro.energy, 'compute_energy',
              lambda fn: t.wrap_span(fn, 'energy'))

    # serve (inside the fleet's shard workers)
    def wrap_serve_run(run):
        spanned = t.wrap_span(run, 'serve.run')

        def traced_run(scheduler, requests, *args, **kwargs):
            for req in requests:
                if req.trace_id is not None:
                    t.param_ids[id(req.params)] = req.trace_id
            return spanned(scheduler, requests, *args, **kwargs)
        traced_run.__wrapped__ = run
        return traced_run
    p.replace(ServeScheduler, 'run', wrap_serve_run)
    p.replace(repro.serve, 'build_serve_report',
              lambda fn: t.wrap_span(fn, 'serve.report'))

    # fleet router (run_batches is traced by TracedShardPool)
    p.replace(FleetRouter, 'run', lambda fn: t.wrap_span(fn, 'fleet.router'))
    return p


def traced_shard_batch(tracer: Tracer, batch) -> dict:
    """Shard-worker entry: run the batch and ship its trace back with it.

    The worker is a fork of the traced parent, so the patches are already
    in place; the tracer starts empty so only this batch's spans travel.
    """
    from repro.fleet import run_shard_batch
    from repro.kernels.base import expected_cache_hits
    tracer.reset()
    hits0 = expected_cache_hits()
    with tracer.span('fleet.worker.batch',
                     f'shard{batch.shard_id}@e{batch.epoch}'):
        doc = run_shard_batch(batch)
    trace = tracer.export()
    trace['expected_cache_hits'] = expected_cache_hits() - hits0
    doc['perfbench_trace'] = trace
    return doc


def traced_pool(tracer: Tracer, workers: int):
    """A :class:`repro.fleet.ShardPool` whose workers trace their batches."""
    import functools

    from repro.fleet import ShardPool

    class TracedShardPool(ShardPool):
        expected_cache_hits = 0

        def __init__(self):
            super().__init__(workers=workers)
            self.engine.job_fn = functools.partial(traced_shard_batch,
                                                   tracer)

        def run_batches(self, batches):
            with tracer.span('fleet.run_batches') as parent:
                outcomes = super().run_batches(batches)
            traces = [o.result.pop('perfbench_trace') for o in outcomes
                      if o.ok and 'perfbench_trace' in o.result]
            self.expected_cache_hits += sum(
                tr['expected_cache_hits'] for tr in traces)
            tracer.adopt(traces, parent)
            return outcomes

    return TracedShardPool()
