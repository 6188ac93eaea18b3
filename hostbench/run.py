"""Host-time benchmark of the decoupling simulator.

Run from the repository root::

    python3 hostbench/run.py --workload funnel --seed 1 --seconds 30 --trace 0

The simulator is imported from ``src/`` next to this directory.  One
invocation measures one workload (see ``cases.py``):

1. Set-up: a fresh interpreter imports the simulator and builds the
   workload's first input, ``SETUP_PROBES`` times; ``setup_s`` is the
   median of the time each took, interpreter start-up excluded.
2. One untimed warm-up run, then timed runs, each on a fresh input from
   the seed, until ``--seconds`` have passed.  Each run's outputs are
   checked after its timer stops.
3. The warm-up input is run again and must reproduce its virtual-time
   results exactly, and a small instance is checked against an
   independent reference computation.

Every time is scaled to a reference host's speed by the calibration
kernel that brackets it (``hostclock.py``), so that drift in a shared
host's speed cancels out of the comparison between two commits.

With ``--trace 0`` the result carries the end-to-end metrics: the median
(``run_ms``) and 90th-percentile (``run_p90_ms``) time of one complete
simulation, and ``setup_s``.  With ``--trace 1`` part of the budget runs
simulations as above and the rest runs them under the per-layer
profiler (``layers.py``); the result carries each layer's self time and
calls per run, the program's own work counts, engine events per
second and the profiler's slowdown.
Traced runs must reproduce the virtual-time results of the same input
run without the profiler.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
simulator's source the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOAD_NAMES = ("funnel", "halo", "recovery")
#: fresh interpreters timed for ``setup_s``
SETUP_PROBES = 9
#: share of a ``--trace 1`` budget spent on runs without the profiler
UNTRACED_SHARE = 0.35
#: fewest timed runs, however short ``--seconds`` is
MIN_RUNS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_cases():
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"hostbench: simulator source not found under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import cases
    return cases


class _Tally:
    """Runs attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems, what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def _run_loop(wl, inputs, tally, seconds, step):
    """Call ``step(inp)`` on fresh inputs until ``seconds`` pass."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_RUNS or time.perf_counter() < deadline:
        inp = next(inputs)
        try:
            out = step(inp)
            problems = wl.check(inp, out)
        except Exception as exc:  # a failed run is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        tally.record(problems, f"run {n}")
        n += 1


def _setup_probe(args) -> None:
    """Child side of ``setup_s``: time the set-up in this fresh
    interpreter, scaled by calibrations on either side of it."""
    from hostclock import REFERENCE_S, calibrate
    before = calibrate()
    t0 = time.perf_counter()
    cases = _import_cases()
    next(cases.WORKLOADS[args.workload].inputs(args.seed))
    wall = time.perf_counter() - t0
    after = calibrate()
    print(json.dumps(wall * REFERENCE_S / ((before + after) / 2)))


def _setup_seconds(args) -> float:
    """Median of ``SETUP_PROBES`` fresh interpreters' set-up times."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"]
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, check=True, capture_output=True,
                              text=True, timeout=120)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _end_to_end(wl, inputs, tally, clock, args):
    setup_s = _setup_seconds(args)
    run_s = []

    def step(inp):
        out, wall, scale = clock.measure(lambda: wl.execute(inp))
        run_s.append(wall * scale)
        return out
    _run_loop(wl, inputs, tally, args.seconds, step)
    return {
        "run_ms": (statistics.median(run_s) * 1e3, "ms"),
        "run_p90_ms": (statistics.quantiles(run_s, n=10)[-1] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def _per_layer(wl, inputs, tally, clock, args, cases, first, warm_digest):
    import layers

    run_s, work = [], []

    def plain(inp):
        out, wall, scale = clock.measure(lambda: wl.execute(inp))
        run_s.append(wall * scale)
        work.append(wl.counts(out))
        return out
    _run_loop(wl, inputs, tally, args.seconds * UNTRACED_SHARE, plain)

    traced_s, self_ms, ncalls = [], [], []

    def traced(inp):
        (out, layer_s, calls), wall, scale = clock.measure(
            lambda: layers.profile_call(lambda: wl.execute(inp)))
        traced_s.append(wall * scale)
        self_ms.append({k: v * scale * 1e3 for k, v in layer_s.items()})
        ncalls.append(calls)
        return out
    _run_loop(wl, inputs, tally, args.seconds * (1 - UNTRACED_SHARE),
              traced)

    # the profiler must not perturb the simulation it observes
    out, _, _ = layers.profile_call(lambda: wl.execute(first))
    tally.record([] if cases.digest(out) == warm_digest else
                 ["traced run diverged from the untraced run"],
                 "traced repeat")

    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}_ms"] = (
            statistics.median(s[layer] for s in self_ms), "ms")
        metrics[f"{layer}_calls"] = (
            statistics.median_low(c[layer] for c in ncalls), "count")
    for key in work[0]:
        metrics[key] = (statistics.median_low(w[key] for w in work),
                        "count")
    metrics["events_per_s"] = (statistics.median(
        w["events"] / s for w, s in zip(work, run_s)), "1/s")
    metrics["trace_overhead_x"] = (
        statistics.median(traced_s) / statistics.median(run_s), "x")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    cases = _import_cases()
    wl = cases.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    from hostclock import HostClock
    clock = HostClock()
    tally = _Tally()
    first = next(inputs)
    warm = wl.execute(first)
    tally.record(wl.check(first, warm), "warm-up")
    warm_digest = cases.digest(warm)

    if args.trace:
        metrics = _per_layer(wl, inputs, tally, clock, args, cases, first,
                             warm_digest)
    else:
        metrics = _end_to_end(wl, inputs, tally, clock, args)

    tally.record([] if cases.digest(wl.execute(first)) == warm_digest else
                 ["repeat of the warm-up input diverged"], "repeat")
    tally.record(wl.reference(args.seed), "reference")

    for line in tally.problems:
        print(f"hostbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
