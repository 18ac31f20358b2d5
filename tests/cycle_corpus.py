"""Golden cycle corpus for the kernel x config correctness matrix.

``cycle_corpus.json`` (next to this file) pins, for every (kernel, config)
pair that ``test_kernels_all.py`` runs on ``small_config()``, the simulated
timing and event counts of that run:

* ``cycles`` and ``total_instrs``;
* the stall breakdown (``RunStats.stall_breakdown()``);
* the seven opcode-mix totals the energy model reads (``n_int_alu`` ...
  ``n_control``);
* the LLC and DRAM counts in ``RunStats.mem``.

``test_kernels_all.py`` asserts an exact match inside the run it already
does, so a change to simulated timing or to instruction classification
fails tier-1 instead of silently moving the figures and energy numbers.

After a *deliberate* timing change, regenerate the file and review the
diff it prints (run from the repository root)::

    PYTHONPATH=src python -m tests.cycle_corpus           # diff; exit 1 if any
    PYTHONPATH=src python -m tests.cycle_corpus --write   # ...and rewrite
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

CORPUS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           'cycle_corpus.json')

#: opcode-mix counters, in ``CoreStats`` order
MIX_FIELDS = ('n_int_alu', 'n_mul', 'n_div', 'n_fp', 'n_mem', 'n_simd',
              'n_control')


def record(stats) -> dict:
    """The pinned values of one run's :class:`~repro.manycore.RunStats`."""
    rec = {'cycles': stats.cycles, 'total_instrs': stats.total_instrs}
    rec.update(stats.stall_breakdown())
    rec.update((f, stats.total(f)) for f in MIX_FIELDS)
    rec.update(asdict(stats.mem))
    return rec


def load() -> dict:
    if not os.path.exists(CORPUS_PATH):
        return {}
    with open(CORPUS_PATH) as f:
        return json.load(f)


def dump(corpus: dict) -> str:
    """One entry per line, keys sorted: small, stable, reviewable diffs."""
    lines = [f'  {json.dumps(k)}: {json.dumps(corpus[k])}'
             for k in sorted(corpus)]
    return '{\n' + ',\n'.join(lines) + '\n}\n'


def diff(old: dict, new: dict) -> list:
    """Human-readable lines for every entry or field that differs."""
    out = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            out.append(f'- {key}: removed')
        elif key not in old:
            out.append(f'+ {key}: new entry')
        else:
            out.extend(describe(key, old[key], new[key]))
    return out


def describe(key: str, want: dict, got: dict) -> list:
    lines = []
    for name in list(want) + [n for n in got if n not in want]:
        a, b = want.get(name), got.get(name)
        if a == b:
            continue
        rel = (f' ({(b - a) / a:+.2%})'
               if isinstance(a, int) and isinstance(b, int) and a else '')
        lines.append(f'~ {key}: {name} {a} -> {b}{rel}')
    return lines


def matrix():
    """Every (kernel class, config name) pair of the correctness matrix."""
    from repro.kernels import registry
    from tests.test_kernels_all import CONFIGS_BY_BENCH
    for cls in registry.ALL:
        for cfg in CONFIGS_BY_BENCH.get(cls.name,
                                        CONFIGS_BY_BENCH['default']):
            yield cls, cfg


def regenerate() -> dict:
    from repro.harness import run_benchmark
    from repro.manycore import small_config
    small = small_config()
    corpus = {}
    for cls, cfg in matrix():
        bench = cls()
        r = run_benchmark(bench, cfg, bench.test_params, base_machine=small,
                          max_cycles=5_000_000)
        corpus[f'{cls.name}-{cfg}'] = record(r.stats)
    return corpus


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description='Re-simulate the kernel x config matrix and diff it '
                    'against the committed cycle corpus.')
    ap.add_argument('--write', action='store_true',
                    help='rewrite cycle_corpus.json with the new values')
    args = ap.parse_args(argv)
    new = regenerate()
    old = load()
    lines = diff(old, new)
    print('\n'.join(lines) if lines else 'corpus unchanged')
    print(f'{len(new)} entries, {len(lines)} difference(s)')
    if args.write:
        with open(CORPUS_PATH, 'w') as f:
            f.write(dump(new))
        print(f'wrote {CORPUS_PATH}')
    return 1 if lines and not args.write else 0


if __name__ == '__main__':
    sys.exit(main())
