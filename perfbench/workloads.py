"""The benchmark's workloads: inputs from a seed, one timed pass each.

``fig10-vector`` and ``fig10-mimd`` are the BEST_V and NV/NV_PF columns
of the paper's Figure 10 on a fixed kernel slice at bench scale, run in
this process through :func:`repro.harness.run_benchmark` with numpy
verification and energy on.  ``fleet-96`` drives
:class:`repro.fleet.FleetRouter` over a 96-request open-loop trace on 3
shards in forked worker processes.

Each workload fixes the *shape* of its work (kernels, problem sizes,
configurations, the fleet's arrival schedule); ``--seed`` draws the
kernels' input data.  The fleet's request mix stays fixed because its
latency percentiles over 96 heavy-tailed requests swing by 30-160%
between trace seeds, more than any regression bound could absorb.

Every pass starts cold: the expected-output cache is cleared, no
``ResultStore`` or ``ResultCache`` is consulted, and every fabric (and
so every modelled LLC) starts empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Figure 10 kernel slice: the matrix-multiply family plus the matvec
#: and stencil kernels, about 20 s (vector) and 14 s (MIMD) per pass on
#: a 2-CPU host
FIG10_SLICE = ('gemm', 'syrk', '3mm', 'mvt', 'bicg', 'atax', 'gesummv',
               'fdtd-2d')
FLEET_REQUESTS = 96
FLEET_TRACE_SEED = 0
FLEET_PATTERN = 'mixed'
FLEET_MEAN_INTERARRIVAL = 4000
FLEET_SHARDS = 3


def seed_kernel_inputs(seed: int) -> None:
    """Make every kernel draw its input arrays from ``seed``.

    Kernels draw their inputs from ``repro.kernels.refs.rng(name)``;
    this replaces it with a generator seeded by a stable digest of
    ``(seed, name)``, so the same seed gives the same inputs in every
    process, including the fleet's forked shard workers.
    """
    from repro.kernels import refs

    def rng(name: str) -> np.random.Generator:
        digest = hashlib.sha256(f'{seed}:{name}'.encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], 'little'))
    refs.rng = rng


@dataclass
class Op:
    """One kernel point or one fleet request, and its checks."""

    name: str
    ok: bool
    error: str = ''
    cycles: int = 0           # simulated latency
    sim: tuple = ()           # simulated statistics, for the fingerprint


@dataclass
class Pass:
    """What one timed pass of a workload produced."""

    wall_s: float
    ops: List[Op]
    instrs: int
    #: the Figure 10a figures this pass yields, per kernel
    fig10: Dict[str, dict] = field(default_factory=dict)
    #: the fleet's own figures (batches, epochs, waits)
    fleet: Dict[str, float] = field(default_factory=dict)
    #: per-batch simulated statistics of a fleet run, in dispatch order
    batches: List[tuple] = field(default_factory=list)
    expected_cache_hits: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def fingerprint(self) -> str:
        doc = {'ops': [[op.name, list(op.sim)] for op in self.ops],
               'batches': [list(b) for b in self.batches],
               'fig10': self.fig10}
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()) \
            .hexdigest()


def stats_record(stats) -> tuple:
    """Cycles, instructions, stall breakdown and LLC/DRAM counts."""
    mem = stats.mem
    return (stats.cycles, stats.total_instrs,
            *stats.stall_breakdown().values(),
            mem.llc_accesses, mem.llc_misses, mem.dram_lines_read,
            mem.dram_lines_written)


class Fig10Workload:
    """Figure 10 columns on a kernel slice, one point after another."""

    def __init__(self, name: str, configs: Sequence[str],
                 long_line_configs: Sequence[str] = (),
                 kernels: Sequence[str] = FIG10_SLICE,
                 scale: str = 'bench'):
        from repro.kernels import registry
        self.name = name
        self.scale = scale
        self.points: List[Tuple[str, str]] = []
        for k in kernels:
            members = list(configs)
            # long lines need bench-scale rows, as in the figure harness
            if k in registry.LONG_LINE_SET and scale == 'bench':
                members += long_line_configs
            self.points += [(k, c) for c in members]

    def run_pass(self, tracer=None) -> Pass:
        from repro.harness import run_benchmark
        from repro.kernels import registry
        from repro.kernels.base import (clear_expected_cache,
                                        expected_cache_hits)
        clear_expected_cache()
        results = []
        t0 = time.perf_counter()
        for kernel, config in self.points:
            bench = registry.make(kernel)
            params = bench.params_for(self.scale)
            span = (tracer.span('point', f'{kernel}/{config}')
                    if tracer is not None else contextlib.nullcontext())
            try:
                with span:
                    r = run_benchmark(bench, config, params, verify=True)
                results.append((kernel, config, r, ''))
            except Exception as exc:  # verify mismatch, deadlock, timeout
                results.append((kernel, config, None,
                                f'{type(exc).__name__}: {exc}'[:500]))
        wall = time.perf_counter() - t0
        hits = expected_cache_hits()
        ops = []
        instrs = 0
        fig10: Dict[str, dict] = {}
        for kernel, config, r, error in results:
            name = f'{kernel}/{config}'
            if r is None:
                ops.append(Op(name, False, error))
                continue
            ops.append(Op(name, True, cycles=r.cycles,
                          sim=stats_record(r.stats)))
            instrs += r.instrs
            fig10.setdefault(kernel, {})[config] = r.cycles
        for cycles in fig10.values():
            _fig10_ratios(cycles)
        return Pass(wall, ops, instrs, fig10, expected_cache_hits=hits)


def _fig10_ratios(cycles: Dict[str, float]) -> None:
    """Add the Figure 10a entries a kernel's points support."""
    best = [cycles[c] for c in ('V4', 'V16', 'V16_LL') if c in cycles]
    if best:
        cycles['BEST_V'] = min(best)
    if 'NV' in cycles and 'NV_PF' in cycles:
        cycles['NV_PF_speedup'] = round(cycles['NV'] / cycles['NV_PF'], 6)


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        return os.cpu_count() or 1


class FleetWorkload:
    """``FleetRouter`` over a fixed open-loop trace, verify and digests on."""

    name = 'fleet-96'

    def __init__(self, n_requests: int = FLEET_REQUESTS):
        from repro.fleet import FleetConfig, ShardPool
        from repro.serve import open_loop_trace
        self.requests = [r.to_dict() for r in open_loop_trace(
            seed=FLEET_TRACE_SEED, n_requests=n_requests,
            pattern=FLEET_PATTERN,
            mean_interarrival=FLEET_MEAN_INTERARRIVAL)]
        # one worker per CPU at most: more only time-slice the same CPUs
        self.workers = min(FLEET_SHARDS, available_cpus())
        self.config = FleetConfig(shards=FLEET_SHARDS, verify=True,
                                  digests=True, workers=self.workers)
        self.pool = ShardPool(workers=self.workers)

    def run_pass(self, tracer=None) -> Pass:
        from repro.fleet import (FleetInvariantError, FleetRouter,
                                 build_fleet_report, check_conservation)
        from repro.kernels.base import clear_expected_cache
        from repro.serve import KernelRequest
        clear_expected_cache()
        if tracer is not None:
            from .tracing import traced_pool
            pool = traced_pool(tracer, self.workers)
        else:
            pool = self.pool
        launched = pool.launched
        trace = [KernelRequest.from_dict(d) for d in self.requests]
        t0 = time.perf_counter()
        result = FleetRouter(self.config, pool=pool).run(iter(trace))
        span = (tracer.span('fleet.report') if tracer is not None
                else contextlib.nullcontext())
        broken = ''
        try:
            with span:
                doc = build_fleet_report(result, pattern=FLEET_PATTERN,
                                         seed=FLEET_TRACE_SEED)
            check_conservation(doc)
        except FleetInvariantError as exc:
            broken = f'conservation: {exc}'[:500]
            doc = None
        wall = time.perf_counter() - t0
        p = _fleet_pass(wall, result, doc, broken)
        p.fleet['workers_launched'] = pool.launched - launched
        p.expected_cache_hits = getattr(pool, 'expected_cache_hits', 0)
        return p


def _fleet_pass(wall: float, result, doc: Optional[dict],
                broken: str) -> Pass:
    """Check every request of a fleet run and collect its figures.

    A request fails when it did not finish ``done``, has no output
    digest, or the report broke a conservation invariant (then no
    record of the run can be trusted, so every request fails).
    """
    from repro.jobs.serialize import stats_from_dict
    from repro.manycore import RunStats
    ops = []
    latency = queue = 0
    for entry in sorted(result.entries, key=lambda e: e.req.req_id):
        rec = entry.record or {}
        error = broken
        if not error and entry.state != 'done':
            error = f'{entry.state}: {rec.get("error", "")}'[:500]
        elif not error and not entry.digest:
            error = 'missing output digest'
        bd = rec.get('breakdown') or {}
        if not error:
            latency += rec['latency']
            queue += bd.get('queue', 0)
        ops.append(Op(entry.req.trace_id or f'req-{entry.req.req_id}',
                      not error, error, cycles=rec.get('latency', 0),
                      sim=(rec.get('latency', 0), rec.get('instrs', 0),
                           *(bd[k] for k in sorted(bd)))))
    batches = [stats_from_dict(d) for d in result.stats_docs]
    merged = RunStats.merge(batches)
    fleet = {
        'batches': result.batches,
        'epochs': result.epochs,
        'affinity_hit_ratio': (result.affinity_hits / len(result.entries)
                               if result.entries else 0.0),
        'router_wait_mean_cycles': (doc['summary']['router_wait_mean']
                                    if doc else 0.0),
        'queue_share': queue / latency if latency else 0.0,
    }
    return Pass(wall, ops, merged.total_instrs, fleet=fleet,
                batches=[stats_record(b) for b in batches])


def make(name: str, seed: int):
    """Seed the inputs and build the named workload (the set-up phase)."""
    seed_kernel_inputs(seed)
    if name == 'fig10-vector':
        return Fig10Workload(name, ('V4', 'V16'), ('V16_LL',))
    if name == 'fig10-mimd':
        return Fig10Workload(name, ('NV', 'NV_PF'))
    if name == 'fleet-96':
        return FleetWorkload()
    raise ValueError(f'unknown workload {name!r}')


WORKLOADS = ('fig10-vector', 'fig10-mimd', 'fleet-96')
