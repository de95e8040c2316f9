"""Command-line entry point: regenerate any paper table/figure.

Installed as ``rivulet-experiment``::

    rivulet-experiment fig5                # quick defaults
    rivulet-experiment fig6 --duration 200 --seeds 1,2,3,4,5
    rivulet-experiment all --jobs 4        # parallel per-seed sweep
    rivulet-experiment chaos --seeds 20 --jobs 4
    rivulet-experiment fleet --homes 50 --days 1 --jobs 4
    rivulet-experiment all                 # everything, quick defaults

``--jobs N`` fans independent simulation cells out over a process pool;
``--jobs N`` and ``--jobs 1`` produce byte-identical report digests.
Sweeps cache per-cell results under ``.rivulet-cache/`` keyed on the
source tree and the cell spec; ``--no-cache`` disables both lookup and
storage.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from repro.eval.experiments import EXPERIMENTS


class CliError(Exception):
    """A usage error: printed to stderr, exit status 2."""


def parse_seed_list(
    text: str | None, default: list[int], *, lone_int_is_range: bool = False,
) -> list[int]:
    """Shared ``--seeds`` parsing for the experiments and chaos surfaces.

    A comma-separated list names explicit seeds. A lone integer is that
    single seed on the experiments surface; on the chaos surface
    (``lone_int_is_range=True``) it means seeds ``0..N-1``, matching the
    documented ``chaos --seeds 20`` campaign shorthand. Raises
    :class:`CliError` (exit 2) on anything else.
    """
    if not text:
        return list(default)
    try:
        if "," not in text:
            value = int(text)
            return list(range(value)) if lone_int_is_range else [value]
        seeds = [int(s) for s in text.split(",") if s.strip()]
        if not seeds:
            raise ValueError(text)
        return seeds
    except ValueError:
        raise CliError(
            f"--seeds wants an integer or a comma-separated list of "
            f"integers, got {text!r}"
        ) from None


def parse_choice_list(
    text: str | None, valid: tuple[str, ...], default: tuple[str, ...],
    option: str,
) -> tuple[str, ...]:
    """Shared comma-separated choice parsing (``--intensities``, ``--modes``)."""
    if not text:
        return tuple(default)
    chosen = tuple(part.strip() for part in text.split(","))
    for value in chosen:
        if value not in valid:
            raise CliError(
                f"unknown {option} {value!r} "
                f"(choose from {', '.join(sorted(valid))})"
            )
    return chosen


def parse_jobs(jobs: int | None) -> int | None:
    """Reject ``--jobs 0`` and negatives up front with a usage error."""
    if jobs is not None and jobs < 1:
        raise CliError(
            f"--jobs wants a positive worker count, got {jobs} "
            "(omit the flag for sequential, or pass --jobs 1)"
        )
    return jobs


def _make_cache(args):
    from repro.eval.cache import RunCache

    if args.no_cache:
        return None
    return RunCache(args.cache_dir)


def _supported_kwargs(fn, **candidates):
    parameters = inspect.signature(fn).parameters
    return {k: v for k, v in candidates.items() if k in parameters and v is not None}


def _run_rt(args) -> int:
    """Run a scenario on the real asyncio/subprocess runtime + cross-validate."""
    from repro.apps.scenarios import scenario_named
    from repro.eval.rt import render_rt_summary, run_rt_report

    scenario = args.scenario or "smoke3"
    try:
        scenario_named(scenario)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    mode = args.rt_mode or "subprocess"
    if mode not in ("subprocess", "in-process"):
        raise CliError(
            f"--rt-mode wants subprocess or in-process, got {mode!r}"
        )
    duration = args.duration if args.duration is not None else 6.0
    seed = args.seed if args.seed is not None else 42
    out = args.out or "RT_report.json"
    report = run_rt_report(
        scenario_name=scenario, seed=seed, duration=duration, mode=mode,
        out_path=out,
    )
    print(render_rt_summary(report))
    print(f"wrote {out}")
    return 0 if report["ok"] else 1


def _run_chaos(args) -> int:
    import json

    from repro.eval.chaos import (
        DEFAULT_INTENSITIES, MODES, render_campaign_summary, replay_run,
        run_campaign,
    )
    from repro.eval.report import DigestVersionMismatch
    from repro.sim.chaos import PROFILES

    if args.replay:
        try:
            with open(args.report, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except FileNotFoundError:
            raise CliError(
                f"no report at {args.report!r} (run a campaign first)"
            ) from None
        try:
            result = replay_run(report, args.replay)
        except KeyError as exc:
            raise CliError(str(exc.args[0])) from None
        except DigestVersionMismatch as exc:
            raise CliError(str(exc)) from None
        print(f"replayed {result['run_id']} from {result['source']} "
              f"({result['fault_actions']} fault actions)")
        print(f"verdict: {result['verdict']} "
              f"(recorded: {result['recorded_verdict']})")
        for violation in result["violations"]:
            print(f"  {violation}")
        return 0 if result["verdict"] == result["recorded_verdict"] else 1

    seeds = parse_seed_list(
        args.seeds, default=list(range(5)), lone_int_is_range=True,
    )
    if args.profile is not None:
        if args.profile not in PROFILES:
            raise CliError(
                f"unknown chaos profile {args.profile!r} "
                f"(choose from {', '.join(sorted(PROFILES))})"
            )
        if args.intensities is not None:
            raise CliError(
                "--profile and --intensities are mutually exclusive "
                "(--profile selects a single profile)"
            )
        args.intensities = args.profile
    if args.profile == "device":
        if args.modes is not None:
            raise CliError(
                "--profile device and --modes are mutually exclusive "
                "(the device scenario is its own mode)"
            )
        intensities = modes = ("device",)
    else:
        # "device" is a campaign of its own (--profile device), never one
        # intensity among others: campaign_tasks refuses the mix.
        intensities = parse_choice_list(
            args.intensities, tuple(sorted(set(PROFILES) - {"device"})),
            DEFAULT_INTENSITIES, "intensity",
        )
        modes = parse_choice_list(args.modes, MODES, MODES, "mode")
    out = args.out or "CHAOS_report.json"
    report = run_campaign(
        seeds, args.horizon, intensities=intensities, modes=modes,
        out_path=out, progress=True, jobs=args.jobs or 1,
        cache=_make_cache(args),
    )
    print(render_campaign_summary(report))
    print(f"wrote {out}")
    return 1 if report["summary"]["failures"] else 0


def _run_fleet_checkpointed(args) -> int:
    """The monolithic checkpoint/resume fleet path.

    Runs one in-process fleet day by day, writing an atomic snapshot every
    ``--checkpoint-every`` days; ``--resume`` picks a run back up from the
    snapshot and finishes with a digest byte-identical to an uninterrupted
    run of the same length.
    """
    from repro.core.fleet import DAY_S, Fleet
    from repro.eval.workloads import fleet_deployment
    from repro.sim.snapshot import SnapshotError

    days = args.days if args.days is not None else 1.0
    total_days = int(days)
    if total_days != days or total_days < 1:
        raise CliError(
            f"--checkpoint-every/--resume runs want a whole number of days, "
            f"got {days:g} (checkpoints are taken at day boundaries)"
        )
    every = args.checkpoint_every
    if every is not None and every < 1:
        raise CliError(f"--checkpoint-every wants a positive day count, got {every}")
    snapshot_path = args.snapshot or "FLEET_snapshot.pkl"

    if args.resume:
        try:
            fleet = Fleet.restore(args.resume, horizon_days=total_days)
        except SnapshotError as exc:
            raise CliError(f"--resume {args.resume}: {exc}") from exc
        done_days = int(round(fleet.context.now / DAY_S))
        print(f"resumed {len(fleet)} homes at day {done_days} from {args.resume}")
    else:
        homes = args.homes if args.homes is not None else 10
        if homes < 1:
            raise CliError(f"--homes wants a positive home count, got {homes}")
        seed = args.seed if args.seed is not None else 42
        fleet, _workloads = fleet_deployment(homes=homes, seed=seed, days=days)
        done_days = 0

    for day in range(done_days + 1, total_days + 1):
        fleet.run_until(day * DAY_S)
        if every and (day % every == 0 or day == total_days):
            path = fleet.checkpoint(snapshot_path, horizon_days=total_days)
            print(f"day {day}/{total_days}: checkpoint -> {path}")
        else:
            print(f"day {day}/{total_days}")

    totals = fleet.metrics()["fleet"]
    print(f"fleet: {totals['homes']} homes x {total_days} day(s)")
    print(f"  events emitted  : {totals['events_emitted']:>12,}")
    print(f"  net messages    : {totals['net_messages']:>12,} "
          f"({totals['net_bytes']:,} bytes)")
    print(f"  fleet digest    : {fleet.digest()}")
    return 0


def _run_fleet(args) -> int:
    from repro.eval.fleet import render_fleet_summary, run_fleet_sweep

    if args.checkpoint_every is not None or args.resume:
        return _run_fleet_checkpointed(args)

    homes = args.homes if args.homes is not None else 10
    if homes < 1:
        raise CliError(
            f"--homes wants a positive home count, got {homes}"
        )
    if args.shards is not None and args.shards < 1:
        raise CliError(
            f"--shards wants a positive shard count, got {args.shards}"
        )
    days = args.days if args.days is not None else 1.0
    if days < 1.0:
        raise CliError(
            f"--days wants at least one whole day for a fleet run, got {days:g} "
            "(the occupancy workload schedules whole days)"
        )
    seed = args.seed if args.seed is not None else 42
    report = run_fleet_sweep(
        homes, days, seed=seed, jobs=args.jobs or 1, shards=args.shards,
        cache=_make_cache(args), out_path=args.out, progress=True,
    )
    print(render_fleet_summary(report))
    if args.out:
        print(f"wrote {args.out}")
    return 1 if report["summary"]["errors"] else 0


def _run_experiment_sweep(args, names: list[str]) -> int:
    from repro.eval.experiments import ExperimentTable, run_experiment_sweep

    seeds = parse_seed_list(args.seeds, default=[])
    report = run_experiment_sweep(
        names, jobs=args.jobs, cache=_make_cache(args),
        seeds=tuple(seeds) or None, duration=args.duration, days=args.days,
        out_path=args.out, progress=True,
    )
    for cell in report["cells"]:
        print(f"-- cell {cell['cell_id']} --")
        if "error" in cell:
            print(f"  ERROR:\n{cell['error']}")
            continue
        print(ExperimentTable.from_dict(cell["table"]).render())
        print()
    summary = report["summary"]
    print(f"sweep: {summary['total']} cells, {summary['errors']} errors")
    print(f"sweep digest: {report['digest']}")
    if args.out:
        print(f"wrote {args.out}")
    return 1 if summary["errors"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rivulet-experiment",
        description="Regenerate the Rivulet paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "fleet", "chaos", "rt"],
        help="which table/figure to regenerate, 'fleet' for a multi-home "
        "fleet run sharded over cores, 'chaos' for a randomized "
        "fault-injection campaign (writes CHAOS_report.json), or 'rt' to "
        "run a home over real localhost TCP with SIGKILL/proxy fault "
        "injection and cross-validate against the simulator (writes "
        "RT_report.json)",
    )
    parser.add_argument("--duration", type=float, default=None,
                        help="run length in simulated seconds (paper: 200)")
    parser.add_argument("--seeds", type=str, default=None,
                        help="comma-separated seeds, e.g. 1,2,3 (for chaos, "
                        "a lone integer N means seeds 0..N-1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="single seed (experiments that take one)")
    parser.add_argument("--days", type=float, default=None,
                        help="deployment length for fig1 (paper: 15)")
    parser.add_argument("--chart", action="store_true",
                        help="also draw an ASCII chart of the figure")
    parser.add_argument("--out", type=str, default=None,
                        help="output path for the result JSON (default "
                        "CHAOS_report.json / RT_report.json; fleet and "
                        "experiment sweeps write only when given)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="fan sweep cells out over N worker processes "
                        "(digests are identical for every N; experiments "
                        "run the legacy sequential path when omitted)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the content-addressed run cache")
    parser.add_argument("--cache-dir", type=str, default=".rivulet-cache",
                        help="run cache directory (default .rivulet-cache)")
    parser.add_argument("--homes", type=int, default=None, metavar="N",
                        help="fleet only: number of homes to simulate "
                        "(default 10)")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="fleet only: shard the homes into N sweep "
                        "cells (default: one cell per home; any value "
                        "yields a byte-identical report)")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="D",
                        help="fleet only: run monolithically and write an "
                        "atomic snapshot every D simulated days (and at the "
                        "end); see --snapshot/--resume")
    parser.add_argument("--snapshot", type=str, default=None,
                        help="fleet only: snapshot path for "
                        "--checkpoint-every (default FLEET_snapshot.pkl)")
    parser.add_argument("--resume", type=str, default=None, metavar="PATH",
                        help="fleet only: resume a checkpointed run from "
                        "PATH and continue to --days; the final digest is "
                        "byte-identical to an uninterrupted run")
    parser.add_argument("--horizon", type=float, default=3600.0,
                        help="chaos only: per-run horizon in simulated "
                        "seconds (default 3600)")
    parser.add_argument("--intensities", type=str, default=None,
                        help="chaos only: comma-separated intensity profiles "
                        "(default mild,severe)")
    parser.add_argument("--profile", type=str, default=None, metavar="NAME",
                        help="chaos only: run a single named profile; "
                        "'device' selects the soft device-fault scenario "
                        "with repair-on/off outcome deltas")
    parser.add_argument("--modes", type=str, default=None,
                        help="chaos only: comma-separated delivery modes "
                        "(default gapless,gap,naive-broadcast)")
    parser.add_argument("--replay", type=str, default=None,
                        help="chaos only: replay one recorded run_id from "
                        "the report instead of running a campaign")
    parser.add_argument("--report", type=str, default="CHAOS_report.json",
                        help="chaos only: report to read for --replay")
    parser.add_argument("--scenario", type=str, default=None,
                        help="rt only: scenario name (default smoke3)")
    parser.add_argument("--rt-mode", type=str, default=None,
                        help="rt only: 'subprocess' (one OS process per "
                        "node, real SIGKILL; default) or 'in-process' "
                        "(asyncio nodes in this interpreter)")
    args = parser.parse_args(argv)

    try:
        parse_jobs(args.jobs)

        if args.experiment == "rt":
            return _run_rt(args)

        if args.experiment == "chaos":
            return _run_chaos(args)

        if args.experiment == "fleet":
            return _run_fleet(args)

        names = (
            sorted(EXPERIMENTS) if args.experiment == "all"
            else [args.experiment]
        )
        if args.jobs is not None:
            return _run_experiment_sweep(args, names)

        seeds = None
        if args.seeds:
            seeds = tuple(parse_seed_list(args.seeds, default=[]))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name in names:
        fn = EXPERIMENTS[name]
        kwargs = _supported_kwargs(
            fn, duration=args.duration, seeds=seeds, seed=args.seed, days=args.days
        )
        table = fn(**kwargs)
        print(table.render())
        if args.chart:
            from repro.eval.figures import chart_for

            chart = chart_for(table)
            if chart is not None:
                print()
                print(chart)
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
