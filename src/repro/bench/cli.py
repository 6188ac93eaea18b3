"""Command-line entry point: ``python -m repro.bench <figure|study|perf>``.

``study`` runs a catalog study — declarative, parallel, cached::

    python -m repro.bench study fig5 --jobs 4 --cache ~/.cache/repro-study
    python -m repro.bench study placement --points 32,128 --csv placement.csv
    python -m repro.bench study fig5 --cache DIR --expect-cached   # CI gate
    python -m repro.bench study fig5 --cache DIR --keep-going \
        --timeout 60          # survive bad cells; the same command
                              # again re-executes only the failed ones

The ``fig*`` subcommands are kept as thin aliases over the same study
declarations: they regenerate one figure (or ``all``), printing the
paper's rows and saving JSON artifacts::

    python -m repro.bench fig5 --points 32,128,512 --jobs 4
    python -m repro.bench fig2
    python -m repro.bench fig3 --out /tmp/artifacts
    python -m repro.bench all --points 32,128

``perf`` benchmarks the *simulator* itself (events/sec, slow-path
equivalence, golden gating) and emits ``BENCH_perf.json``::

    python -m repro.bench perf                         # default suite
    python -m repro.bench perf --list                  # what's runnable
    python -m repro.bench perf --scenario fig5-1024 --profile
    python -m repro.bench perf --scenario quickstart \
        --check-golden benchmarks/golden/quickstart_perf.json
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from typing import List, Optional

from .figures import (
    fig2_traces,
    fig3_execution_models,
    fig_cosim,
    fig_recovery,
)
from .harness import (
    DEFAULT_POINTS,
    Series,
    render_table,
    save_artifact,
    scale_points,
)

#: CLI figure name -> title; each name is also its study-catalog key
SWEEP_FIGURES = {
    "fig5": "Fig. 5 - MapReduce weak scaling (s)",
    "fig6": "Fig. 6 - CG solver weak scaling (s)",
    "fig7": "Fig. 7 - particle communication (s)",
    "fig8": "Fig. 8 - particle I/O (s)",
    "placement": "Placement - colocated vs partitioned on a fat-tree (s)",
    "recovery": "Recovery - helper crash + replay vs fault-free (s)",
    "resilience": "Resilience - healthy sweep + one poisoned cell (s)",
    "cosim": "Co-simulation - hub sensitivity (us)",
}
ALL_FIGURES = ("fig2", "fig3", "fig_recovery",
               "fig_cosim") + tuple(SWEEP_FIGURES)


def _parse_points(text: Optional[str]) -> List[int]:
    if not text:
        # --points absent: honour $REPRO_POINTS exactly like the
        # tier-1 figure benchmarks do, else the paper's default axis
        return scale_points()
    points = sorted({int(x) for x in text.split(",") if x.strip()})
    if not points:
        raise SystemExit("--points parsed to an empty list")
    return points


def run_figure(name: str, points: List[int],
               out_dir: Optional[str] = None,
               jobs: Optional[int] = None,
               cache: Optional[str] = None) -> None:
    if name == "fig2":
        from ..trace import render
        out = fig2_traces()
        print("Fig. 2 (top) - reference:")
        print(render(out["reference"].tracer, width=68))
        print("\nFig. 2 (bottom) - decoupled:")
        print(render(out["decoupled"].tracer, width=68))
        print(f"\nhidden communication: ref {out['ref_overlap']:.1%} "
              f"vs dec {out['dec_overlap']:.1%}")
        return
    if name == "fig3":
        out = fig3_execution_models()
        print("Fig. 3 - execution-model makespans (s):")
        for key in ("conventional", "nonblocking", "decoupled"):
            print(f"  {key:>14}: {out[key]:.3f}")
        save_artifact("fig3_models",
                      [Series(k, points={0: v}) for k, v in out.items()],
                      out_dir=out_dir)
        return
    if name == "fig_recovery":
        out = fig_recovery()
        print("Recovery - checkpoint overhead vs interval (extra s, "
              "fault-free):")
        for s in out["overhead"]:
            row = ", ".join(f"{k}: {v:.4f}" for k, v in
                            sorted(s.points.items()))
            print(f"  {s.label:>16}: {row}")
        print("Recovery - time-to-recover vs crash time (extra s over "
              "checkpointed fault-free; keys are crash ms):")
        for s in out["recover"]:
            row = ", ".join(f"{k}ms: {v:.4f}" for k, v in
                            sorted(s.points.items()))
            print(f"  {s.label:>16}: {row}")
        save_artifact("fig_recovery",
                      out["overhead"] + out["recover"], out_dir=out_dir)
        return
    if name == "fig_cosim":
        out = fig_cosim()
        print("Co-simulation - coupled makespan vs hub buffer depth (s):")
        for s in out["backpressure"]:
            row = ", ".join(f"d={k}: {v:.6f}" for k, v in
                            sorted(s.points.items()))
            print(f"  {s.label:>16}: {row}")
        print("Co-simulation - crash handoff overhead vs hub size "
              "(extra s over fault-free):")
        for s in out["recovery"]:
            row = ", ".join(f"H={k}: {v:.6f}" for k, v in
                            sorted(s.points.items()))
            print(f"  {s.label:>16}: {row}")
        save_artifact("fig_cosim",
                      out["backpressure"] + out["recovery"], out_dir=out_dir)
        return
    # a sweep figure: run its study-catalog declaration
    from ..study import get_study, run_study

    rs = run_study(get_study(name, points=points), jobs=jobs, cache=cache)
    print(render_table(SWEEP_FIGURES[name], rs.to_series()))
    save_artifact(f"{name}_cli", rs.to_series(), out_dir=out_dir)


def list_studies() -> str:
    """One line per catalog study: name, title, and its axes."""
    from ..study.catalog import CATALOG, get_study

    lines = []
    for name in sorted(CATALOG):
        study = get_study(name)
        axes = ", ".join(
            f"{axis}[{len(values)}]={list(values)}"
            for axis, values in study.axes.items())
        lines.append(f"{name:>12}  {study.title}")
        lines.append(f"{'':>12}  axes: {axes}")
    return "\n".join(lines)


def run_study_cmd(args) -> int:
    """The ``study`` subcommand: run one catalog study end to end."""
    from ..study import RunPolicy, StudyError, get_study, run_study
    from ..study.catalog import CATALOG

    if args.list:
        if args.name:
            raise SystemExit("--list enumerates the catalog; it does not "
                             "take a study name")
        print(list_studies())
        return 0
    catalog = ", ".join(sorted(CATALOG))
    if not args.name:
        raise SystemExit(
            f"the 'study' command needs a study name; catalog: {catalog}")
    if args.name not in CATALOG:
        raise SystemExit(
            f"unknown study {args.name!r}; catalog: {catalog}")
    if args.expect_cached and not (args.cache
                                   or os.environ.get("REPRO_STUDY_CACHE")):
        raise SystemExit(
            "--expect-cached asserts a warm cache; give --cache DIR "
            "(or set $REPRO_STUDY_CACHE)")
    # --points absent: pass None so each study keeps its own default
    # axis (the fig studies default to scale_points(); cosim's default
    # is deliberately small — its sweep is 16 cells per point)
    study = get_study(
        args.name,
        points=_parse_points(args.points) if args.points else None)
    # a flag overrides only the policy field it names, so the rest of
    # the study's declared policy (e.g. the resilience study's
    # keep_going) still applies
    policy = study.run_policy or RunPolicy()
    if args.timeout is not None:
        policy = replace(policy, timeout=args.timeout)
    if args.keep_going:
        policy = replace(policy, on_error="keep_going")
    try:
        rs = run_study(study, jobs=args.jobs, cache=args.cache,
                       progress=print, policy=policy)
    except StudyError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(rs.table())
    print(f"jobs: {len(rs)} total, {rs.executed} executed, "
          f"{rs.cached} cached, {rs.failed} failed, "
          f"{rs.quarantined} quarantined")
    for r in rs.failures():
        print(f"  {r.series} @ P={r.x}: {r.describe_failure()} "
              f"({r.attempts} attempt(s))")
    path = save_artifact(
        f"{study.name}_study", rs.to_series(),
        extra={"total": len(rs), "executed": rs.executed,
               "cached": rs.cached, "failed": rs.failed,
               "quarantined": rs.quarantined},
        out_dir=args.out)
    print(f"artifact: {path}")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(rs.to_csv())
        print(f"csv: {args.csv}")
    if args.expect_cached and rs.executed:
        print(f"FAIL: expected a fully cached run, but {rs.executed} "
              f"job(s) executed simulations", file=sys.stderr)
        return 1
    return 0


def run_perf(args) -> int:
    """The ``perf`` subcommand: simulator events/sec + regression gate."""
    from . import perf

    if args.list:
        if args.scenario or args.check_golden or args.write_golden \
                or args.profile:
            raise SystemExit("--list enumerates the perf scenarios; it "
                             "does not run anything")
        print(perf.list_scenarios())
        return 0

    if args.scenario:
        names = []
        for chunk in args.scenario:
            names.extend(x.strip() for x in chunk.split(",") if x.strip())
        if "all" in names:
            names = list(perf.DEFAULT_SCENARIOS)
    else:
        names = list(perf.DEFAULT_SCENARIOS)
    unknown = [n for n in names if n not in perf.SCENARIOS]
    if unknown:
        raise SystemExit(f"unknown scenario(s) {unknown}; choose from "
                         f"{sorted(perf.SCENARIOS)}")

    if args.check_golden or args.write_golden:
        if len(names) != 1:
            raise SystemExit("golden check/write needs exactly one "
                             "--scenario")
        if args.profile or args.no_oracle or args.out:
            raise SystemExit(
                "--check-golden/--write-golden run a single gating "
                "measurement; they cannot be combined with --profile, "
                "--no-oracle or --out")
        record = perf.run_scenario(names[0])
        print(f"{names[0]}: {record.events} events in "
              f"{record.wall_s:.3f}s = {record.events_per_sec:.0f} "
              "events/s (wall-clock reported, not gated)")
        if args.write_golden:
            path = perf.write_golden(record, args.write_golden)
            print(f"golden virtual-time results written to {path}")
            return 0
        try:
            perf.check_golden(record, args.check_golden)
        except perf.PerfError as exc:
            print(f"FAIL: {exc}", file=sys.stderr)
            return 1
        print(f"golden check OK: virtual-time results match "
              f"{args.check_golden}")
        return 0

    try:
        payload = perf.run_suite(names,
                                 check_oracle=not args.no_oracle,
                                 profile=args.profile)
    except perf.PerfError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    print(perf.render_report(payload))
    path = perf.save_payload(payload, out_dir=args.out)
    print(f"\nartifact: {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's figures, run a declarative "
                    "study, or benchmark the simulator itself (perf).")
    parser.add_argument("figure",
                        choices=ALL_FIGURES + ("all", "perf", "study"),
                        help="which figure to regenerate, 'study' to run "
                             "a catalog study by name, or 'perf' for the "
                             "simulator benchmark suite")
    parser.add_argument("name", nargs="?", default=None,
                        help="study name (only with the 'study' command)")
    parser.add_argument("--points", default=None,
                        help="comma-separated process counts (default: "
                             "$REPRO_POINTS if set, else "
                             f"{','.join(map(str, DEFAULT_POINTS))})")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="directory for JSON artifacts (default: "
                             "$REPRO_RESULTS_DIR or benchmarks/results)")
    study_group = parser.add_argument_group(
        "study options (--jobs/--cache are also honoured by the "
        "fig*/all aliases; --csv/--expect-cached are study-only)")
    study_group.add_argument("--jobs", type=int, default=None, metavar="N",
                             help="process-pool width for study jobs "
                                  "(default: $REPRO_STUDY_JOBS or 1)")
    study_group.add_argument("--cache", default=None, metavar="DIR",
                             help="content-addressed result cache "
                                  "(default: $REPRO_STUDY_CACHE or none)")
    study_group.add_argument("--csv", default=None, metavar="FILE",
                             help="also export the study results as CSV "
                                  "(study command only)")
    study_group.add_argument("--list", action="store_true",
                             help="with 'study': list the catalog studies "
                                  "with their axes; with 'perf': list the "
                                  "perf scenarios with their scale, "
                                  "slow-path/fault legs and golden gating")
    study_group.add_argument("--expect-cached", action="store_true",
                             help="exit 1 unless every job was served "
                                  "from the cache (CI gate: a warm rerun "
                                  "must do zero simulation work; study "
                                  "command only)")
    study_group.add_argument("--keep-going", action="store_true",
                             help="record failed/timed-out cells as holes "
                                  "and finish the sweep instead of "
                                  "aborting on the first failure "
                                  "(study command only)")
    study_group.add_argument("--timeout", type=float, default=None,
                             metavar="S",
                             help="per-job wall-clock timeout in seconds "
                                  "(study command only)")
    perf_group = parser.add_argument_group("perf options")
    perf_group.add_argument("--scenario", action="append", default=None,
                            metavar="NAME",
                            help="perf scenario (repeatable or "
                                 "comma-separated; default: the standard "
                                 "suite; 'all' for the same)")
    perf_group.add_argument("--profile", action="store_true",
                            help="attach per-layer cProfile top-N to each "
                                 "scenario")
    perf_group.add_argument("--no-oracle", action="store_true",
                            help="skip the slow-path equivalence runs "
                                 "(faster, but no bit-identical check)")
    perf_group.add_argument("--check-golden", default=None, metavar="FILE",
                            help="compare one scenario's virtual-time "
                                 "results against a committed golden file "
                                 "(exit 1 on drift)")
    perf_group.add_argument("--write-golden", default=None, metavar="FILE",
                            help="write the golden file for one scenario")
    args = parser.parse_args(argv)
    if args.figure == "perf":
        return run_perf(args)
    if args.figure == "study":
        return run_study_cmd(args)
    if args.name is not None:
        raise SystemExit(
            f"unexpected argument {args.name!r}: only the 'study' "
            "command takes a name")
    if (args.csv or args.expect_cached or args.list or args.keep_going
            or args.timeout is not None):
        # refuse rather than silently ignore: a no-op --expect-cached
        # would green-light a broken cache gate, and a silently dropped
        # --keep-going would turn a partial-results request into an
        # abort-on-first-failure run
        raise SystemExit(
            "--csv/--expect-cached/--list/--keep-going/--timeout "
            "only apply to the 'study' command")
    points = _parse_points(args.points)
    names = ALL_FIGURES if args.figure == "all" else (args.figure,)
    for name in names:
        run_figure(name, points, out_dir=args.out, jobs=args.jobs,
                   cache=args.cache)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
