"""Ablation — the decoupled fraction alpha, beyond the paper's three
values (MapReduce case study, one mid-size scale point).

Sweeps alpha from 1.6% to 25%: too-small groups drown in stream load,
too-large groups starve the map side (the Eq. 2 trade-off); the best
alpha should sit in the paper's 3-12% band.
"""

import pytest

from repro.apps.mapreduce import MapReduceConfig, decoupled_worker
from repro.bench.harness import Series, save_artifact
from repro.simmpi import beskow, run
from repro.study.registry import apply_extract

NPROCS = 256
ALPHAS = (1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4)


@pytest.mark.figure("ablation-alpha")
def test_alpha_sweep(benchmark):
    def experiment():
        out = {}
        for alpha in ALPHAS:
            cfg = MapReduceConfig(nprocs=NPROCS, alpha=alpha)
            result = run(decoupled_worker, NPROCS, args=(cfg,),
                         machine=beskow())
            out[alpha] = apply_extract("max_elapsed", result)
        return out

    times = benchmark.pedantic(experiment, rounds=1, iterations=1)
    print(f"\nAlpha ablation (MapReduce, P={NPROCS}):")
    series = Series("elapsed")
    for a in ALPHAS:
        print(f"  alpha={a:.4f}: {times[a]:.2f}s")
        series.points[round(a * 10000)] = times[a]
    save_artifact("ablation_alpha", [series])

    best = min(times, key=times.get)
    # the optimum lies in the paper's recommended band
    assert 0.02 <= best <= 0.13, f"best alpha {best}"
    # giving a quarter of the machine to the reduce group wastes map
    # throughput relative to the optimum
    assert times[1 / 4] > times[best]
