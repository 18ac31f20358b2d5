"""Correctness matrix: every benchmark x every runnable configuration.

Each test simulates one (benchmark, config) pair on a small 4x4 fabric with
scaled-down inputs and verifies the final memory against the numpy
reference — the paper's serial-version check (Section 6.1).  The same run's
cycles, stall breakdown, opcode mix and LLC/DRAM counts must match the golden
cycle corpus exactly (see ``cycle_corpus.py``).
"""

import pytest

from repro.harness import run_benchmark
from repro.kernels import registry
from repro.manycore import small_config
from tests import cycle_corpus

SMALL = small_config()
GOLDEN = cycle_corpus.load()

#: gramschm is the paper's no-SIMD outlier; PCV configs fall back to its
#: scalar path, so exercising NV/NV_PF/V4 is the meaningful set.
CONFIGS_BY_BENCH = {
    'default': ['NV', 'NV_PF', 'PCV_PF', 'V4', 'V4_PCV'],
    'gramschm': ['NV', 'NV_PF', 'V4'],
    'bfs': ['NV', 'NV_PF', 'V4'],
    '3dconv': ['NV', 'NV_PF', 'V4'],
}


def cases():
    for cls in registry.ALL:
        for cfg in CONFIGS_BY_BENCH.get(cls.name,
                                        CONFIGS_BY_BENCH['default']):
            yield pytest.param(cls, cfg, id=f'{cls.name}-{cfg}')


@pytest.mark.parametrize('bench_cls,config', list(cases()))
def test_kernel_matches_reference(bench_cls, config):
    bench = bench_cls()
    r = run_benchmark(bench, config, bench.test_params, base_machine=SMALL,
                      max_cycles=5_000_000)
    assert r.cycles > 0
    assert r.stats.total_instrs > 0
    key = f'{bench_cls.name}-{config}'
    assert key in GOLDEN, f'{key} missing from the cycle corpus'
    got = cycle_corpus.record(r.stats)
    assert got == GOLDEN[key], '\n'.join(
        cycle_corpus.describe(key, GOLDEN[key], got))


class TestSuiteShape:
    def test_registry_has_fifteen_polybench(self):
        assert len(registry.POLYBENCH) == 15
        assert len({c.name for c in registry.POLYBENCH}) == 15

    def test_long_line_set_matches_paper(self):
        assert set(registry.LONG_LINE_SET) == {
            '2dconv', 'fdtd-2d', 'gesummv', 'syr2k', 'syrk'}

    def test_make_by_name(self):
        b = registry.make('gemm')
        assert b.name == 'gemm'

    def test_bfs_prefers_mimd(self):
        """Section 6.6: the manycore beats vector groups on irregular bfs."""
        bench = registry.make('bfs')
        nv = run_benchmark(bench, 'NV', bench.test_params,
                           base_machine=SMALL)
        v4 = run_benchmark(bench, 'V4', bench.test_params,
                           base_machine=SMALL)
        assert nv.cycles < v4.cycles

    def test_matvec_prefers_vector(self):
        """bicg-style kernels benefit from group loads (paper Fig 10a)."""
        bench = registry.make('bicg')
        pf = run_benchmark(bench, 'NV_PF', bench.test_params,
                           base_machine=SMALL)
        v4 = run_benchmark(bench, 'V4', bench.test_params,
                           base_machine=SMALL)
        assert v4.cycles < pf.cycles
