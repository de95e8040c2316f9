"""Command-line entry point: regenerate any paper table/figure.

Installed as ``rivulet-experiment``; one subcommand per surface::

    rivulet-experiment fig5                          # the figure's own defaults
    rivulet-experiment fig6 --duration 200 --seeds 1,2,3,4,5
    rivulet-experiment all --jobs 4                  # every figure, 4 workers
    rivulet-experiment chaos --seeds 20 --jobs 4
    rivulet-experiment replay gapless-mild-s3 --report CHAOS_report.json
    rivulet-experiment fleet --homes 50 --days 1 --jobs 4
    rivulet-experiment fleet --homes 50 --days 2 --checkpoint-every 1
    rivulet-experiment rt --scenario parity4 --rt-mode in-process

Each subcommand declares exactly the options its entry point reads, with
the real default and the validation in the parser: an option a surface
does not read is a usage error (exit 2), never silently dropped. A
figure takes ``--seeds`` / ``--duration`` / ``--days`` exactly when its
function takes ``seed``/``seeds``, ``duration`` or ``days``.

Every figure runs as a sweep of cells (one per figure call, see
:func:`repro.eval.experiments.sweep_cells`); ``--jobs N`` fans the cells
of a sweep out over a process pool and yields a byte-identical report
digest for every ``N``. Sweeps cache per-cell results under
``.rivulet-cache/`` keyed on the source tree and the cell spec;
``--no-cache`` disables both lookup and storage.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from typing import Any, Callable

from repro.apps.scenarios import MODES, SCENARIOS
from repro.eval import figures
from repro.eval.chaos import DEFAULT_INTENSITIES
from repro.eval.experiments import EXPERIMENTS
from repro.sim.chaos import PROFILES

# -- option types: every value is checked while parsing, before a cell runs ----


def _positive(kind: str, cast: Callable[[str], Any] = float) -> Callable[[str], Any]:
    """A ``type=``: ``cast(text)`` when that is greater than zero."""
    def parse(text: str) -> Any:
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not value > 0:
            raise argparse.ArgumentTypeError(f"wants a positive {kind}, got {text!r}")
        return value
    return parse


def _one_of(option: str, valid: Any) -> Callable[[str], str]:
    def parse(text: str) -> str:
        if text not in valid:
            raise argparse.ArgumentTypeError(
                f"unknown {option} {text!r} (choose from {', '.join(sorted(valid))})"
            )
        return text
    return parse


def _list_of(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    """A comma-separated list of ``parse``'d values."""
    return lambda text: tuple(parse(part.strip()) for part in text.split(","))


def _seeds(text: str) -> tuple[int, ...]:
    """``--seeds``: one seed, or a comma-separated list of seeds."""
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"wants an integer or a comma-separated list of integers, got {text!r}"
        ) from None


def _seed_range(text: str) -> tuple[int, ...]:
    """chaos ``--seeds``: a lone ``N`` means seeds ``0..N-1``."""
    seeds = _seeds(text) if "," in text else tuple(range(*_seeds(text)))
    if not seeds:
        raise argparse.ArgumentTypeError(f"wants at least one seed, got {text!r}")
    return seeds


# -- the surfaces ----------------------------------------------------------------


def _refuse(args: argparse.Namespace, why: str, *dests: str) -> None:
    """Exit 2 if any of ``dests`` was given, by argparse's own test for
    mutually exclusive options: the value is not the default object."""
    for dest in dests:
        if getattr(args, dest) is not args.parser.get_default(dest):
            args.parser.error(f"--{dest.replace('_', '-')} {why}")


def _cache(args: argparse.Namespace):
    from repro.eval.cache import RunCache

    return None if args.no_cache else RunCache(args.cache_dir)


def _run_experiments(args: argparse.Namespace) -> int:
    from repro.eval.experiments import ExperimentTable, run_experiment_sweep

    report = run_experiment_sweep(
        args.names, seeds=args.seeds, duration=args.duration, days=args.days,
        jobs=args.jobs, cache=_cache(args), out_path=args.out, progress=True,
    )
    for cell in report["cells"]:
        print(f"-- cell {cell['cell_id']} --")
        if "error" in cell:
            print(f"  ERROR:\n{cell['error']}")
            continue
        table = ExperimentTable.from_dict(cell["table"])
        print(table.render())
        chart = figures.chart_for(table) if args.chart else None
        if chart is not None:
            print()
            print(chart)
        print()
    summary = report["summary"]
    print(f"sweep: {summary['total']} cells, {summary['errors']} errors")
    print(f"sweep digest: {report['digest']}")
    if args.out:
        print(f"wrote {args.out}")
    return 1 if summary["errors"] else 0


def _run_chaos(args: argparse.Namespace) -> int:
    from repro.eval.chaos import render_campaign_summary, run_campaign

    intensities, modes = args.intensities, args.modes
    if args.profile:
        _refuse(args, "and --profile are mutually exclusive "
                "(--profile selects a single profile)", "intensities")
        intensities = (args.profile,)
    if args.profile == "device":
        _refuse(args, "and --profile device are mutually exclusive "
                "(the device scenario is its own mode)", "modes")
        modes = ("device",)
    report = run_campaign(
        list(args.seeds), args.horizon, intensities=intensities, modes=modes,
        out_path=args.out, progress=True, jobs=args.jobs, cache=_cache(args),
    )
    print(render_campaign_summary(report))
    print(f"wrote {args.out}")
    return 1 if report["summary"]["failures"] else 0


def _run_replay(args: argparse.Namespace) -> int:
    import json

    from repro.eval.chaos import replay_run
    from repro.eval.report import DigestVersionMismatch

    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        result = replay_run(report, args.run_id)
    except FileNotFoundError:
        args.parser.error(f"no report at {args.report!r} (run a campaign first)")
    except (KeyError, DigestVersionMismatch) as exc:
        args.parser.error(str(exc.args[0]))
    print(f"replayed {result['run_id']} from {result['source']} "
          f"({result['fault_actions']} fault actions)")
    print(f"verdict: {result['verdict']} (recorded: {result['recorded_verdict']})")
    for violation in result["violations"]:
        print(f"  {violation}")
    return 0 if result["verdict"] == result["recorded_verdict"] else 1


def _run_fleet(args: argparse.Namespace) -> int:
    from repro.eval.fleet import render_fleet_summary, run_fleet_checkpointed, run_fleet_sweep
    from repro.sim.snapshot import SnapshotError

    if not args.checkpoint_every:
        _refuse(args, "needs --checkpoint-every", "snapshot")
    if args.resume:
        _refuse(args, "does not apply to --resume (the snapshot holds the fleet)",
                "homes", "seed")
    if not (args.checkpoint_every or args.resume):
        report = run_fleet_sweep(
            args.homes, args.days, seed=args.seed, jobs=args.jobs, shards=args.shards,
            cache=_cache(args), out_path=args.out, progress=True,
        )
    else:
        _refuse(args, "does not apply to a checkpointed run (one process, "
                "uncached)", "shards", "jobs", "no_cache", "cache_dir")
        try:
            report = run_fleet_checkpointed(
                args.homes, args.days, seed=args.seed, every=args.checkpoint_every,
                snapshot=args.snapshot, resume=args.resume, out_path=args.out,
                progress=True,
            )
        except SnapshotError as exc:
            args.parser.error(f"--resume {args.resume}: {exc}")
    print(render_fleet_summary(report))
    if args.out:
        print(f"wrote {args.out}")
    return 1 if report["summary"]["errors"] else 0


def _run_rt(args: argparse.Namespace) -> int:
    """Run a scenario on the real asyncio/subprocess runtime + cross-validate."""
    from repro.eval.rt import render_rt_summary, run_rt_report

    report = run_rt_report(
        scenario_name=args.scenario, seed=args.seed, duration=args.duration,
        mode=args.rt_mode, out_path=args.out,
    )
    print(render_rt_summary(report))
    print(f"wrote {args.out}")
    return 0 if report["ok"] else 1


# -- the parser ------------------------------------------------------------------

_FIGURE_OPTIONS = {  # option -> (type, help)
    "seeds": (_seeds, "seeds: one, or a comma-separated list"),
    "duration": (_positive("duration"), "run length in simulated seconds "
                 "(paper: 200)"),
    "days": (_positive("day count"), "deployment length in days (paper: 15)"),
}


def _figure_defaults(fn: Callable) -> dict[str, Any]:
    """The figure options ``fn`` reads, each with ``fn``'s own default."""
    parameters = inspect.signature(fn).parameters
    defaults = {key: parameters[key].default
                for key in ("duration", "days") if key in parameters}
    if "seeds" in parameters:
        defaults["seeds"] = parameters["seeds"].default
    elif "seed" in parameters:
        defaults["seeds"] = (parameters["seed"].default,)
    return defaults


def _sweep_options(out: str | None, out_help: str) -> argparse.ArgumentParser:
    """The parent parser of every sweep surface."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--jobs", type=_positive("worker count", int), default=1,
                        metavar="N", help="worker processes (same digest for any N)")
    parent.add_argument("--no-cache", action="store_true", help="skip the run cache")
    parent.add_argument("--cache-dir", default=".rivulet-cache", help="run cache")
    parent.add_argument("--out", default=out, help=out_help)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rivulet-experiment", allow_abbrev=False,
        description="Regenerate the Rivulet paper's tables and figures.",
    )
    surfaces = parser.add_subparsers(dest="surface", required=True)

    def surface(name, run, about, parents=(), **defaults):
        sub = surfaces.add_parser(
            name, help=about.replace("%", "%%"), description=about, parents=list(parents),
            allow_abbrev=False, formatter_class=argparse.ArgumentDefaultsHelpFormatter,
        )
        sub.set_defaults(run=run, parser=sub, **defaults)
        return sub

    experiments = _sweep_options(None, "write the sweep report JSON here")
    for name in [*EXPERIMENTS, "all"]:
        fn = EXPERIMENTS.get(name)
        options = _figure_defaults(fn) if fn else dict.fromkeys(_FIGURE_OPTIONS)
        sub = surface(
            name, _run_experiments,
            fn.__doc__.splitlines()[0] if fn else "every table and figure, "
            "each with its own defaults", [experiments],
            names=[name] if fn else sorted(EXPERIMENTS), chart=False,
            **{key: None for key in _FIGURE_OPTIONS if key not in options},
        )
        for key, default in options.items():
            kind, about = _FIGURE_OPTIONS[key]
            sub.add_argument(f"--{key}", type=kind, default=default, help=about)
        if name in figures.CHARTS or not fn:
            sub.add_argument("--chart", action="store_true",
                             help="also draw an ASCII chart of the figure")

    chaos = surface("chaos", _run_chaos, "randomized fault-injection campaign",
                    [_sweep_options("CHAOS_report.json", "campaign report path")])
    chaos.add_argument("--seeds", type=_seed_range, default=tuple(range(5)),
                       help="N for seeds 0..N-1, or a comma-separated list")
    chaos.add_argument("--horizon", type=_positive("horizon"), default=3600.0,
                       help="per-run horizon in simulated seconds")
    chaos.add_argument("--intensities", default=DEFAULT_INTENSITIES,
                       type=_list_of(_one_of("intensity", set(PROFILES) - {"device"})),
                       help="comma-separated intensity profiles")
    chaos.add_argument("--profile", type=_one_of("chaos profile", PROFILES),
                       help="one profile; 'device' is the device-fault scenario")
    chaos.add_argument("--modes", type=_list_of(_one_of("mode", MODES)),
                       default=MODES, help="comma-separated delivery modes")

    replay = surface("replay", _run_replay, "re-run one chaos run of a report")
    replay.add_argument("run_id", help="a run_id of the report, e.g. device-s3")
    replay.add_argument("--report", default="CHAOS_report.json", help="report")

    fleet = surface("fleet", _run_fleet, "a multi-home fleet, sharded over cores",
                    [_sweep_options(None, "write the fleet report JSON here")])
    fleet.add_argument("--homes", type=_positive("home count", int), default=10,
                       metavar="N", help="number of homes")
    fleet.add_argument("--days", type=_positive("whole day count", lambda text:
                       float(int(text))), default=1.0, help="simulated days")
    fleet.add_argument("--seed", type=int, default=42, help="fleet seed")
    fleet.add_argument("--shards", type=_positive("shard count", int), metavar="N",
                       help="N cells (None: one per home; same report for any N)")
    fleet.add_argument("--checkpoint-every", type=_positive("day count", int),
                       metavar="D", help="one process, a snapshot every D days")
    fleet.add_argument("--snapshot", default="FLEET_snapshot.pkl", help="snapshot")
    fleet.add_argument("--resume", metavar="PATH", help="run a snapshot on to --days")

    rt = surface("rt", _run_rt, "a home over real TCP, checked against the simulator")
    rt.add_argument("--scenario", type=_one_of("scenario", SCENARIOS),
                    default="smoke3", help="scenario name")
    rt.add_argument("--rt-mode", choices=("subprocess", "in-process"),
                    default="subprocess", help="an OS process per node, or one")
    rt.add_argument("--duration", type=_positive("duration"), default=6.0, help="s")
    rt.add_argument("--seed", type=int, default=42, help="run seed")
    rt.add_argument("--out", default="RT_report.json", help="report path")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # a usage error (2) or --help (0)
        return exc.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
