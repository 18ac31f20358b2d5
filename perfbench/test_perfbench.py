"""Self-tests of the benchmark at a tiny size.

    python -m pytest perfbench -q

Each test shrinks the workloads to one test-scale kernel point or a few
fleet requests, so the whole file runs in about 15 s.
"""

import json
import os

import pytest

from perfbench import run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tiny(name, seed):
    workloads.seed_kernel_inputs(seed)
    if name == 'fleet-96':
        return workloads.FleetWorkload(n_requests=6)
    configs = ('V4',) if name == 'fig10-vector' else ('NV', 'NV_PF')
    return workloads.Fig10Workload(name, configs, kernels=('gemm', 'mvt'),
                                   scale='test')


@pytest.fixture(autouse=True)
def tiny_workloads(monkeypatch):
    from repro.kernels import refs
    monkeypatch.setattr(refs, 'rng', refs.rng)  # restored after the test
    monkeypatch.setattr(workloads, 'make', tiny)
    monkeypatch.setattr(run, 'SETUP_REPEATS', 1)


def run_main(capsys, workload, trace):
    code = run.main(['--workload', workload, '--seed', '3',
                     '--seconds', '0', '--trace', str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def spec():
    with open(os.path.join(ROOT, 'BENCHMARK.json')) as f:
        return json.load(f)


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_printed_metrics_match_benchmark_json(capsys, workload):
    doc = spec()
    for trace, key in ((0, 'end_to_end'), (1, 'per_layer')):
        code, result = run_main(capsys, workload, trace)
        assert code == 0 and result['correct'], result
        assert result['failed'] == 0 and result['attempted'] >= 1
        want = {m['name']: m['unit'] for m in doc[key]}
        got = {k: v['unit'] for k, v in result['metrics'].items()}
        assert got == want


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_traced_fingerprint_equals_untraced(workload):
    wl = tiny(workload, 5)
    untraced = wl.run_pass()
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        traced = wl.run_pass(tracer)
    finally:
        patches.restore()
    assert not patches.missing
    assert traced.fingerprint() == untraced.fingerprint()
    assert tracer.calls('tile.step.front') > 0
    from repro.manycore.tile import Tile
    assert not hasattr(Tile.step, '__wrapped__')  # restored


@pytest.mark.parametrize('workload', ('fig10-vector', 'fleet-96'))
def test_children_fit_inside_their_span(workload):
    wl = tiny(workload, 5)
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        with tracer.span('pass', workload):
            wl.run_pass(tracer)
    finally:
        patches.restore()
    eps = 1e-6
    children = {}
    for rec in tracer.spans:
        if rec['parent'] is not None:
            children.setdefault(rec['parent'], []).append(rec)
    assert children
    for i, kids in children.items():
        parent = tracer.spans[i]
        duration = parent['end'] - parent['start']
        assert sum(k['self_s'] for k in kids) <= duration + eps
        assert parent['self_s'] >= -eps
        if parent['name'] != 'fleet.run_batches':  # workers overlap
            assert sum(k['end'] - k['start'] for k in kids) \
                <= duration + eps
    if workload == 'fleet-96':
        ids = {r['id'] for r in tracer.spans
               if r['name'] == 'kernels.verify'}
        assert ids == {f'{workloads.FLEET_TRACE_SEED:08x}-{i:08x}'
                       for i in range(6)}


@pytest.mark.parametrize('workload', workloads.WORKLOADS)
def test_corrupted_verify_counts_as_failed(capsys, monkeypatch, workload):
    from repro.kernels.mvt import Mvt

    def wrong(self, ws, params):
        return {name: want + 1.0
                for name, want in original(self, ws, params).items()}
    original = Mvt.expected
    monkeypatch.setattr(Mvt, 'expected', wrong)
    code, result = run_main(capsys, workload, 0)
    assert code != 0
    assert result['correct'] is False
    # only the mvt operations fail
    assert 1 <= result['failed'] < result['attempted']
