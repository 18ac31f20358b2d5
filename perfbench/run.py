"""Run one benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload fig10-vector --seed 1 \\
        --seconds 30 --trace 0

``--trace 0`` times whole passes of the workload until ``--seconds``
have elapsed and prints the end-to-end metrics (medians over passes).
``--trace 1`` times one untraced pass, then one pass with the layer
wrappers of ``perfbench/tracing.py`` installed, prints the per-layer
metrics and writes the spans to ``.perfbench-out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every kernel
point and fleet request passed its checks.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, 'src'), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

#: fresh interpreters timed for setup_s; the median is reported
SETUP_REPEATS = 5

#: (name, unit) of the end-to-end metrics, printed with tracing off
END_TO_END = (
    ('setup_s', 's'),
    ('wall_s', 's'),
    ('sim_instrs_per_s', 'instr/s'),
    ('host_requests_per_s', 'req/s'),
    ('sim_latency_p50_cycles', 'cycles'),
    ('sim_latency_p90_cycles', 'cycles'),
    ('peak_rss_mb', 'MiB'),
)

#: (name, unit) of the per-layer metrics, printed by the traced run
PER_LAYER = (
    ('tile.step.front.calls', 'count'),
    ('tile.step.expander.calls', 'count'),
    ('tile.step.vector.calls', 'count'),
    ('tile.step.front.s', 's'),
    ('tile.step.expander.s', 's'),
    ('tile.step.vector.s', 's'),
    ('tile.steps_per_instr', 'ratio'),
    ('fabric.run.s', 's'),
    ('fabric.loop.self_s', 's'),
    ('fabric.events.calls', 'count'),
    ('fabric.events.s', 's'),
    ('llc.access.calls', 'count'),
    ('llc.access.s', 's'),
    ('dram.read_line.calls', 'count'),
    ('fabric.spad_deliver.calls', 'count'),
    ('fabric.spad_deliver.s', 's'),
    ('llc.miss_ratio', 'ratio'),
    ('inet.push.calls', 'count'),
    ('inet.push.s', 's'),
    ('kernels.setup.s', 's'),
    ('kernels.codegen.s', 's'),
    ('kernels.verify.s', 's'),
    ('kernels.expected_cache.hit_ratio', 'ratio'),
    ('energy.s', 's'),
    ('serve.run.s', 's'),
    ('serve.report.s', 's'),
    ('fleet.router.self_s', 's'),
    ('fleet.run_batches.s', 's'),
    ('fleet.worker.batch_s', 's'),
    ('fleet.parallel_efficiency', 'ratio'),
    ('fleet.report.s', 's'),
    ('fleet.batches', 'count'),
    ('fleet.epochs', 'count'),
    ('jobs.workers_launched', 'count'),
    ('fleet.affinity_hit_ratio', 'ratio'),
    ('fleet.router_wait_mean_cycles', 'cycles'),
    ('fleet.queue_share', 'ratio'),
    ('trace.overhead_ratio', 'ratio'),
)

CACHES_NOTE = ('caches start empty: a fresh fabric (empty modelled LLC) '
               'per point or shard batch, expected-output cache cleared '
               'before each pass, no result store or result cache')


def parse_args(argv):
    from perfbench.workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split('\n')[0])
    ap.add_argument('--workload', required=True, choices=WORKLOADS)
    ap.add_argument('--seed', type=int, required=True,
                    help='draws the kernels\' input data')
    ap.add_argument('--seconds', type=float, default=30.0,
                    help='keep timing whole passes until this much time has '
                         'elapsed')
    ap.add_argument('--trace', type=int, choices=(0, 1), default=0)
    ap.add_argument('--setup-only', action='store_true',
                    help=argparse.SUPPRESS)  # the setup_s probe
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a user's store must not serve results to a benchmark pass
    os.environ.pop('REPRO_STORE', None)
    from perfbench import workloads
    wl = workloads.make(args.workload, args.seed)
    if args.setup_only:
        return 0
    if args.trace:
        return traced_run(wl, args)
    return timed_run(wl, args)


# ----------------------------------------------------------------- untraced
def timed_run(wl, args) -> int:
    passes = []
    t0 = time.perf_counter()
    # whole passes until the budget is spent: a run measures at least
    # --seconds, and at most one pass more
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(wl.run_pass())
        if len(passes) == 1:
            # peak RSS through set-up and one pass, so it does not grow
            # with the number of passes the budget allows
            rss = peak_rss_mb()
    setup = measure_setup(args)
    failed, errors = check_passes(passes)
    first = passes[0]
    wall = statistics.median(p.wall_s for p in passes)
    done = len(first.ops) - first.failed
    lat = [op.cycles for op in first.ops if op.ok and op.cycles]
    metrics = {
        'setup_s': statistics.median(setup),
        'wall_s': wall,
        'sim_instrs_per_s': first.instrs / wall,
        'host_requests_per_s': done / wall,
        'sim_latency_p50_cycles': statistics.median(lat) if lat else 0.0,
        'sim_latency_p90_cycles': p90(lat),
        'peak_rss_mb': rss,
    }
    attempted = sum(len(p.ops) for p in passes)
    print(f'workload {wl.name}  seed {args.seed}  {len(passes)} timed '
          f'pass(es) in a {args.seconds:g} s budget')
    print(CACHES_NOTE)
    print(f'setup_s: median of {len(setup)} fresh interpreters '
          f'{fmt_list(setup)}')
    print(f'wall_s per pass {fmt_list(p.wall_s for p in passes)}')
    print(f'latency samples: {len(lat)} '
          f'({"requests" if wl.name.startswith("fleet") else "kernel points"}'
          f', simulated cycles)')
    for name, unit in END_TO_END:
        print(f'  {name:28s} {metrics[name]:>16.6g} {unit}')
    print(f'  {"error_rate":28s} {failed / attempted:>16.6g} ratio '
          f'({failed} of {attempted} operations failed)')
    report_checks(first, errors)
    return finish(failed == 0, attempted, failed,
                  {n: {'value': metrics[n], 'unit': u}
                   for n, u in END_TO_END})


def check_passes(passes):
    """Failed operations over all passes, counting sim-record drift.

    Simulated statistics are deterministic, so an operation whose record
    differs from the first pass's fails even if its outputs verified.
    """
    failed = 0
    errors = []
    first = passes[0]
    for i, p in enumerate(passes):
        for op, ref in zip(p.ops, first.ops):
            if not op.ok:
                errors.append(f'pass {i} {op.name}: {op.error}')
            elif op.name != ref.name or op.sim != ref.sim:
                op.ok = False
                errors.append(f'pass {i} {op.name}: simulated statistics '
                              f'differ from pass 0')
        if p.batches != first.batches:
            errors.append(f'pass {i}: batch statistics differ from pass 0')
            failed += 1
        failed += p.failed
    return failed, errors


def p90(values) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method='inclusive')[8]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child (fleet worker)."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def measure_setup(args):
    """Time fresh interpreters from start through the workload's set-up
    (imports, input or trace generation, pool creation)."""
    cmd = [sys.executable, os.path.abspath(__file__), '--workload',
           args.workload, '--seed', str(args.seed), '--setup-only']
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


# ------------------------------------------------------------------- traced
def traced_run(wl, args) -> int:
    from perfbench.tracing import Tracer, install
    untraced = wl.run_pass()
    tracer = Tracer()
    patches = install(tracer)
    try:
        with tracer.span('pass', wl.name):
            traced = wl.run_pass(tracer)
    finally:
        patches.restore()
    failed, errors = check_passes([untraced, traced])
    same = untraced.fingerprint() == traced.fingerprint()
    if not same:
        errors.append('traced and untraced sim fingerprints differ')
    metrics = layer_metrics(tracer, traced, untraced, wl)
    path = write_spans(tracer, wl.name, args.seed)
    print(f'workload {wl.name}  seed {args.seed}  traced pass '
          f'{traced.wall_s:.3f} s, untraced {untraced.wall_s:.3f} s')
    print(CACHES_NOTE)
    if patches.missing:
        print('boundaries not found (their metrics read 0): '
              + ', '.join(patches.missing))
    for name, unit in PER_LAYER:
        print(f'  {name:34s} {metrics[name]:>16.6g} {unit}')
    print_split(tracer)
    print(f'spans: {len(tracer.spans)} written to {path}')
    report_checks(traced, errors)
    attempted = len(untraced.ops) + len(traced.ops)
    return finish(failed == 0 and same, attempted, failed,
                  {n: {'value': metrics[n], 'unit': u}
                   for n, u in PER_LAYER})


def layer_metrics(t, traced, untraced, wl) -> dict:
    steps = sum(t.calls(f'tile.step.{r}')
                for r in ('front', 'expander', 'vector'))
    verifies = t.calls('kernels.verify')
    run_batches = t.total_s('fleet.run_batches')
    worker = t.total_s('fleet.worker.batch')
    m = {}
    for role in ('front', 'expander', 'vector'):
        m[f'tile.step.{role}.calls'] = t.calls(f'tile.step.{role}')
        m[f'tile.step.{role}.s'] = t.self_s(f'tile.step.{role}')
    m.update({
        'tile.steps_per_instr': steps / traced.instrs if traced.instrs
        else 0.0,
        'fabric.run.s': t.total_s('fabric.run'),
        'fabric.loop.self_s': t.self_s('fabric.run'),
        'fabric.events.calls': t.calls('fabric.events'),
        'fabric.events.s': t.self_s('fabric.events'),
        'llc.access.calls': t.calls('llc.access'),
        'llc.access.s': t.self_s('llc.access'),
        'dram.read_line.calls': t.calls('dram.read_line'),
        'fabric.spad_deliver.calls': t.calls('fabric.spad_deliver'),
        'fabric.spad_deliver.s': t.self_s('fabric.spad_deliver'),
        'llc.miss_ratio': (t.counts.get('llc_misses', 0)
                           / t.counts['llc_accesses']
                           if t.counts.get('llc_accesses') else 0.0),
        'inet.push.calls': t.calls('inet.push'),
        'inet.push.s': t.self_s('inet.push'),
        'kernels.setup.s': t.self_s('kernels.setup'),
        'kernels.codegen.s': t.self_s('kernels.codegen'),
        'kernels.verify.s': t.self_s('kernels.verify'),
        'kernels.expected_cache.hit_ratio': (
            traced.expected_cache_hits / verifies if verifies else 0.0),
        'energy.s': t.self_s('energy'),
        'serve.run.s': t.total_s('serve.run'),
        'serve.report.s': t.self_s('serve.report'),
        'fleet.router.self_s': t.self_s('fleet.router'),
        'fleet.run_batches.s': run_batches,
        'fleet.worker.batch_s': worker,
        'fleet.parallel_efficiency': (
            worker / (getattr(wl, 'workers', 1) * run_batches)
            if run_batches else 0.0),
        'fleet.report.s': t.self_s('fleet.report'),
        'trace.overhead_ratio': traced.wall_s / untraced.wall_s - 1.0,
    })
    f = traced.fleet
    m['fleet.batches'] = f.get('batches', 0)
    m['fleet.epochs'] = f.get('epochs', 0)
    m['jobs.workers_launched'] = f.get('workers_launched', 0)
    m['fleet.affinity_hit_ratio'] = f.get('affinity_hit_ratio', 0.0)
    m['fleet.router_wait_mean_cycles'] = f.get('router_wait_mean_cycles',
                                               0.0)
    m['fleet.queue_share'] = f.get('queue_share', 0.0)
    return m


def print_split(t) -> None:
    """Each layer's self time as a share of the traced host time."""
    rows = sorted(((v[2], k) for k, v in t.layers.items() if v[2] > 0),
                  reverse=True)
    total = sum(s for s, _ in rows)
    print(f'host-time split of the traced pass: {total:.3f} s of self '
          f'time, summed over the parent and its workers')
    for self_s, name in rows:
        print(f'  {name:28s} {self_s:10.3f} s {100 * self_s / total:6.1f}%')


def write_spans(tracer, workload: str, seed: int) -> str:
    out = os.path.join(ROOT, '.perfbench-out')
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f'spans-{workload}-seed{seed}.json')
    with open(path, 'w') as f:
        json.dump({'spans': tracer.spans,
                   'layers': {k: {'calls': v[0], 'total_s': v[1],
                                  'self_s': v[2]}
                              for k, v in tracer.layers.items()}}, f)
    return os.path.relpath(path, ROOT)


# ------------------------------------------------------------------ output
def report_checks(p, errors) -> None:
    print(f'sim fingerprint: {p.fingerprint()}')
    for kernel, cycles in p.fig10.items():
        print(f'  fig10 {kernel:8s} ' + '  '.join(
            f'{k}={v:g}' for k, v in sorted(cycles.items())))
    for e in errors[:20]:
        print(f'FAILED {e}')
    if len(errors) > 20:
        print(f'... and {len(errors) - 20} more failures')


def finish(correct: bool, attempted: int, failed: int, metrics) -> int:
    print(json.dumps({'correct': correct, 'attempted': attempted,
                      'failed': failed, 'metrics': metrics}))
    return 0 if correct else 1


def fmt_list(values) -> str:
    return '[' + ', '.join(f'{v:.3f}' for v in values) + ']'


if __name__ == '__main__':
    sys.exit(main())
