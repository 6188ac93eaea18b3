#!/usr/bin/env python
"""Declare and run an experiment study, declaratively.

A :class:`repro.study.Study` turns a sweep into *data*: axes, cells,
extractors.  This one asks a question the paper never plots — how does
the Fig. 5 decoupling speedup react to OS noise? — by sweeping the
noise seed axis alongside the process counts, then querying the
result set directly.

Studies compile to JSON job specs, so the same experiment can be saved
to a file, executed across a process pool (``jobs=4``) and served from
the content-addressed result cache on the next run: the script runs
the study a second time against the same cache, and every job arrives
from it with zero simulation work.  The cache lives in a temporary
directory that is removed on exit.

Run:  python examples/study_sweep.py
"""

import tempfile

from repro.study import Study, run_study

study = (
    Study("noise-sensitivity",
          title="Decoupling speedup under reseeded OS noise (s)")
    .axis("nprocs", [16, 32])
    .axis("seed", [1, 2, 3])
    .cell("Reference (seed {seed})", app="mapreduce.reference",
          machine={"preset": "beskow"},
          bind={"seed": "machine.noise.seed"})
    .cell("Decoupling (seed {seed})", app="mapreduce.decoupled",
          params={"alpha": 0.0625},
          machine={"preset": "beskow"},
          bind={"seed": "machine.noise.seed"})
)


def main():
    # a study is a file format, too: this dict is the whole experiment
    spec = study.to_json()
    print(f"study {spec['name']!r}: {len(study.jobs())} jobs over axes "
          f"{list(spec['axes'])}\n")

    with tempfile.TemporaryDirectory() as cache:
        rs = run_study(study, jobs=4, cache=cache, progress=print)
        print()
        print(rs.table())
        print(f"\n{rs.executed} executed, {rs.cached} served from the "
              "cache")

        # the same study again: every job is served from the cache
        again = run_study(study, jobs=4, cache=cache)
        assert again.cached == len(study.jobs()), again
        assert again.executed == 0, again
        assert again.to_series() == rs.to_series()
        print(f"second run: {again.executed} executed, {again.cached} "
              "served from the cache")

    # query: the decoupling speedup per seed at the top scale
    for seed in (1, 2, 3):
        dec = rs.series(f"Decoupling (seed {seed})")
        ref = rs.series(f"Reference (seed {seed})")
        print(f"seed {seed}: decoupling is "
              f"{dec.speedup_over(ref, 32):.2f}x faster at P=32")


if __name__ == "__main__":
    main()
