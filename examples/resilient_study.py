#!/usr/bin/env python
"""Survive a misbehaving cell, then rerun the sweep against the cache.

Long sweeps fail in boring ways — one parameter combination raises, or
hangs.  A :class:`repro.study.RunPolicy` makes the failure posture part
of the study: per-job wall-clock timeouts and ``keep_going`` — record
the failure as data, finish everything else, and render the hole
honestly.

This example runs a healthy sweep of the built-in ``study.chaos``
workload next to one *poisoned* cell (always fails).  The first pass
completes with exactly one hole; the second pass is a plain rerun
against the same cache, which serves the healthy cells and re-executes
only the poisoned one.

Run:  python examples/resilient_study.py
"""

import tempfile

from repro.study import RunPolicy, Study, run_study

study = (
    Study("resilient-demo",
          title="Healthy sweep + one poisoned cell (s)")
    .axis("nprocs", [8, 16])
    .axis("bad_nprocs", [4])
    .cell("Healthy", app="study.chaos")
    .cell("Poison", app="study.chaos", params={"fail": True},
          x_axis="bad_nprocs")
    # the poison becomes a hole instead of aborting the sweep
    .with_policy(RunPolicy(timeout=30.0, on_error="keep_going"))
)


def main():
    # a fresh cache every run, removed on exit
    with tempfile.TemporaryDirectory() as cache:
        print("--- first pass: keep going past the poison ---")
        rs = run_study(study, cache=cache, progress=print)
        print()
        print(rs.table())
        assert rs.failed == 1 and rs.ok == 2, rs

        print("\n--- second pass: rerun against the same cache ---")
        again = run_study(study, cache=cache, progress=print)
    assert again.cached == 2 and again.executed == 1, again
    assert again.failed == 1, again
    for x in (8, 16):
        assert again.value("Healthy", x) == rs.value("Healthy", x)
    print(f"\n{again.cached} served from the cache, "
          f"{again.executed} re-executed (the poison got a fresh "
          f"chance and failed again)")


if __name__ == "__main__":
    main()
