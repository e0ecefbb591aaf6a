"""Command-line interface (``repro`` / ``python -m repro.cli``).

Sub-commands::

    generate   emit a synthetic workflow (DAX or JSON by extension)
    evaluate   run the full strategy comparison on one configuration
               (a synthetic --family or an external --dax workflow)
    methods    list the registered expected-makespan evaluators
    kernels    show which distribution-kernel backend (compiled native
               vs pure-python reference) serves each primitive
    sweep      run a parameter grid through the staged pipeline engine
               (artifact cache + optional --jobs process-pool fan-out;
               records to JSONL/CSV; --dax sweeps an external workflow
               file instead of a synthetic family)
    figure     regenerate a paper figure grid (CSV + ASCII panels)
    accuracy   run the §VI-B estimator accuracy study
    simulate   replay one failure-injected execution with an event log
    serve      run the persistent evaluation service (HTTP + SQLite);
               --backend remote turns it into the coordinator of a
               worker fleet
    submit     submit one cell to a running service (or --local store);
               --dax registers + submits an external workflow
    worker     run a fleet worker: poll a coordinator for leased work
               units (`repro worker URL`)
    store      export/import a service result store as JSONL (offline
               cache interchange between machines)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro import __version__
from repro.util.validation import ccr_error, pfail_error, seed_error

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    """argparse type: strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed_value(text: str) -> int:
    """argparse type: non-negative root seed (SeedSequence-compatible)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    msg = seed_error(value)
    if msg is not None:
        raise argparse.ArgumentTypeError(msg)
    return value


def _pfail_value(text: str) -> float:
    """argparse type: failure probability in [0, 1)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    msg = pfail_error(value)
    if msg is not None:
        raise argparse.ArgumentTypeError(msg)
    return value


def _ccr_value(text: str) -> float:
    """argparse type: non-negative CCR target."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    msg = ccr_error(value)
    if msg is not None:
        raise argparse.ArgumentTypeError(msg)
    return value


def _jobs_count(text: str) -> int:
    """argparse type: worker count (0 = all cores, else >= 1)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"--jobs must be >= 0, got {value} (0 = one worker per core)"
        )
    return value


def _family_or_dax(args: argparse.Namespace, command: str) -> Optional[str]:
    """Enforce "exactly one of --family / --dax"; returns an error line.

    (Returned, not printed, so callers control the stream and exit
    code — every caller maps a message to exit 2.)
    """
    if args.family is None and args.dax is None:
        return f"repro {command}: one of --family or --dax is required"
    if args.family is not None and args.dax is not None:
        return f"repro {command}: --family and --dax are mutually exclusive"
    if args.dax is not None and getattr(args, "ntasks", None) is not None:
        return (
            f"repro {command}: --ntasks cannot be combined with --dax "
            "(the workflow file fixes its own task count)"
        )
    return None


def _unknown_family_message(family: str) -> str:
    """One-line exit-2 message for an unregistered workflow family."""
    from repro.generators import FAMILIES

    return (
        f"unknown workflow family {family!r}; registered families: "
        f"{', '.join(sorted(FAMILIES))} (or pass an external workflow "
        "file with --dax)"
    )


def _check_family(family: str) -> Optional[str]:
    """The unknown-family message, or ``None`` when registered."""
    from repro.generators import FAMILIES

    if family.lower() not in FAMILIES:
        return _unknown_family_message(family)
    return None


def _check_method(method: str) -> Optional[str]:
    """The unknown-method message, worded as the sweep validator's, or
    ``None`` when the method is registered."""
    from repro.makespan.api import EVALUATORS

    if method not in EVALUATORS:
        return f"unknown method {method!r}; choose from {sorted(EVALUATORS)}"
    return None


def _load_dax_source(path: Path):
    """Load a workflow file as a :class:`~repro.workloads.FileSource`.

    Raises :class:`~repro.errors.SerializationError` (bad suffix,
    unparseable/inconsistent document) and
    :class:`~repro.errors.WorkflowError` (empty workflow) — callers map
    both to exit 2 with the error's one-line message.
    """
    from repro.workloads import load_source

    return load_source(path)


def _engine_flags() -> argparse.ArgumentParser:
    """Parent parser of the flags ``sweep`` and ``serve`` share."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help="worker processes (1 = in-process serial, 0 = all cores)",
    )
    flags.add_argument(
        "--backend",
        choices=["serial", "process", "subprocess", "remote"],
        default=None,
        help=(
            "execution backend for the fan-out: 'process' (the --jobs N "
            "default), 'serial' (in-process, one task at a time; the "
            "--jobs 1 default), 'subprocess' "
            "(a fresh interpreter per work unit — native crashes cost one "
            "unit), or 'remote' (a fleet of `repro worker URL` "
            "processes: `sweep` prints its coordinator URL at startup, "
            "`serve` becomes the coordinator).  The subprocess and remote "
            "backends ship each unit as JSON data.  Records are "
            "bit-identical on every backend"
        ),
    )
    flags.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        help=(
            "seconds a remote worker owns a leased work unit before it "
            "is presumed dead and the unit requeued (--backend remote)"
        ),
    )
    flags.add_argument(
        "--worker-grace",
        type=float,
        default=60.0,
        help=(
            "seconds a dispatch may sit with no live remote worker "
            "before it finishes in-process (--backend remote)"
        ),
    )
    flags.add_argument(
        "--eval-seed-policy",
        choices=["positional", "content"],
        default="positional",
        help=(
            "'positional' derives stochastic sampling seeds from each "
            "cell's grid position (the historical records); 'content' "
            "derives them from cell content (position-independent — "
            "such Monte Carlo records can be coalesced, stored and "
            "backfilled by the service).  `serve` applies it to "
            "payloads that do not name one"
        ),
    )
    flags.add_argument(
        "--profile",
        action="store_true",
        help=(
            "collect kernel-level op counters (convolve/max/truncate "
            "calls and rows, evaluation dispatches, cells per fold "
            "replay pass, native-vs-fallback rows, per-op wall "
            "time): `sweep` prints the table after the grid, `serve` "
            "exposes it as 'kernel_profile' in GET /status; with "
            "--jobs N the workers profile themselves and the counters "
            "are merged"
        ),
    )
    flags.add_argument(
        "--no-native",
        action="store_true",
        help=(
            "disable the compiled distribution kernels and run the "
            "pure-python reference path (bit-identical records, "
            "slower); equivalent to REPRO_NATIVE=0"
        ),
    )
    return flags


def _apply_engine_flags(args: argparse.Namespace) -> None:
    """Act on the shared ``sweep``/``serve`` flags."""
    if args.no_native:
        from repro.makespan import native

        # Also sets REPRO_NATIVE=0 so --jobs worker processes inherit it.
        native.set_enabled(False)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Checkpointing Workflows for Fail-Stop Errors (CLUSTER 2017) — "
            "reproduction toolkit"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    engine_flags = _engine_flags()

    gen = sub.add_parser("generate", help="generate a synthetic workflow")
    gen.add_argument("--family", required=True)
    gen.add_argument("--ntasks", type=_positive_int, default=50)
    gen.add_argument("--seed", type=_seed_value, default=2017)
    gen.add_argument(
        "--out", type=Path, required=True, help=".dax/.xml or .json output path"
    )

    ev = sub.add_parser("evaluate", help="compare CKPTSOME/ALL/NONE on one cell")
    ev.add_argument("--family", default=None, help="synthetic workflow family")
    ev.add_argument(
        "--dax",
        type=Path,
        default=None,
        help="external workflow file (.dax/.xml or .json) instead of --family",
    )
    ev.add_argument(
        "--ntasks",
        type=_positive_int,
        default=None,
        help="requested task count for --family (default 50); "
        "incompatible with --dax (the file fixes its own task count)",
    )
    ev.add_argument("--processors", type=_positive_int, default=10)
    ev.add_argument("--pfail", type=_pfail_value, default=1e-3)
    ev.add_argument("--ccr", type=_ccr_value, default=0.01)
    ev.add_argument("--seed", type=_seed_value, default=2017)
    ev.add_argument("--method", default="pathapprox")
    ev.add_argument(
        "--eval-seed-policy",
        choices=["positional", "content"],
        default="positional",
        help=(
            "'content' pins stochastic sampling (Monte Carlo) to the "
            "content-derived cell_eval_seed stream; 'positional' keeps "
            "the historical fresh-entropy draw"
        ),
    )

    met = sub.add_parser(
        "methods",
        help="list registered expected-makespan evaluators",
        description=(
            "List every evaluator in the makespan registry with its "
            "declared keyword options and kind (deterministic vs "
            "stochastic)."
        ),
    )
    met.add_argument(
        "--json", action="store_true", help="emit the registry as JSON"
    )

    sw = sub.add_parser(
        "sweep",
        parents=[engine_flags],
        help="run a parameter grid through the staged pipeline engine",
        description=(
            "Run a (sizes × processors × pfail × CCR) grid through "
            "repro.engine: the M-SPG tree and schedule are computed once "
            "per (workflow, processors) pair and reused across the "
            "pfail/CCR axes; --jobs N fans the grid out over an "
            "execution backend (--backend; a process pool by default), "
            "and records are identical for any N and any backend."
        ),
    )
    sw.add_argument("--family", default=None, help="synthetic workflow family")
    sw.add_argument(
        "--dax",
        type=Path,
        default=None,
        help=(
            "sweep an external workflow file (.dax/.xml or .json) instead "
            "of a synthetic --family; the grid's single size is the "
            "file's task count"
        ),
    )
    sw.add_argument("--sizes", type=_positive_int, nargs="+", default=None)
    sw.add_argument(
        "--processors",
        type=_positive_int,
        nargs="+",
        default=[5],
        help="processor counts, swept for every size",
    )
    sw.add_argument("--pfails", type=_pfail_value, nargs="+", default=[0.01, 0.001])
    sw.add_argument(
        "--ccrs", type=_ccr_value, nargs="+", default=None,
        help="explicit CCR values (default: a log grid, see --ccr-grid)",
    )
    sw.add_argument(
        "--ccr-grid",
        type=float,
        nargs=3,
        metavar=("LO", "HI", "POINTS"),
        default=None,
        help="log-spaced CCR grid (default 1e-3 1.0 5)",
    )
    sw.add_argument("--seed", type=_seed_value, default=2017)
    sw.add_argument("--method", default="pathapprox")
    sw.add_argument(
        "--seed-policy",
        choices=["spawn", "stable"],
        default="spawn",
        help=(
            "'spawn' derives per-cell seeds via SeedSequence spawning; "
            "'stable' reproduces the historical figure-grid hashing"
        ),
    )
    sw.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write records to this path (.jsonl or .csv by extension)",
    )
    sw.add_argument("--quiet", action="store_true")

    fig = sub.add_parser("figure", help="regenerate a paper figure grid")
    fig.add_argument("name", choices=["fig5", "fig6", "fig7"])
    fig.add_argument("--sizes", type=_positive_int, nargs="*", default=None)
    fig.add_argument("--pfails", type=_pfail_value, nargs="*", default=None)
    fig.add_argument("--ccr-points", type=_positive_int, default=None)
    fig.add_argument("--processors-per-size", type=_positive_int, default=None)
    fig.add_argument("--csv", type=Path, default=None)
    fig.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help="engine worker processes (1 = serial, 0 = all cores; "
        "identical records)",
    )
    fig.add_argument("--quiet", action="store_true")

    acc = sub.add_parser("accuracy", help="run the §VI-B accuracy study")
    acc.add_argument("--families", nargs="*", default=["genome", "montage", "ligo"])
    acc.add_argument("--ntasks", type=_positive_int, default=50)
    acc.add_argument("--processors", type=_positive_int, default=10)
    acc.add_argument("--pfails", type=_pfail_value, nargs="*", default=[0.01, 0.001])
    acc.add_argument("--ccr", type=_ccr_value, default=0.01)
    acc.add_argument("--mc-trials", type=_positive_int, default=100_000)
    acc.add_argument("--seed", type=_seed_value, default=2017)

    sim = sub.add_parser("simulate", help="replay one failure-injected run")
    sim.add_argument("--family", required=True)
    sim.add_argument("--ntasks", type=_positive_int, default=50)
    sim.add_argument("--processors", type=_positive_int, default=5)
    sim.add_argument("--pfail", type=_pfail_value, default=1e-2)
    sim.add_argument("--ccr", type=_ccr_value, default=0.01)
    sim.add_argument("--seed", type=_seed_value, default=2017)
    sim.add_argument("--strategy", choices=["ckpt_some", "ckpt_all"], default="ckpt_some")

    srv = sub.add_parser(
        "serve",
        parents=[engine_flags],
        help="run the persistent evaluation service",
        description=(
            "Start the HTTP evaluation service: POST /evaluate and /sweep "
            "requests are deduped, answered from the durable SQLite store "
            "where possible, and the misses are coalesced into sweep "
            "batches grouped by (workflow, processors) before hitting the "
            "pipeline engine."
        ),
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument(
        "--port",
        type=int,
        default=8765,
        help="listen port (0 = ephemeral, printed at startup)",
    )
    srv.add_argument(
        "--store",
        type=Path,
        default=Path("repro-service.db"),
        help="SQLite result store path (default ./repro-service.db)",
    )
    srv.add_argument(
        "--linger",
        type=float,
        default=0.05,
        help="seconds the scheduler waits to coalesce concurrent requests",
    )

    sub_ = sub.add_parser(
        "submit",
        help="submit one cell to a running service",
        description=(
            "Submit one evaluation cell to a service started with "
            "'repro serve' (or, with --local, evaluate against a local "
            "store without a server)."
        ),
    )
    sub_.add_argument("--family", default=None, help="synthetic workflow family")
    sub_.add_argument(
        "--dax",
        type=Path,
        default=None,
        help=(
            "submit an external workflow file (.dax/.xml or .json): "
            "registered with the service (POST /register) and addressed "
            "by its canonical content hash"
        ),
    )
    sub_.add_argument(
        "--ntasks",
        type=_positive_int,
        default=None,
        help="requested task count for --family (default 50); "
        "incompatible with --dax (the file fixes its own task count)",
    )
    sub_.add_argument("--processors", type=_positive_int, default=10)
    sub_.add_argument("--pfail", type=_pfail_value, default=1e-3)
    sub_.add_argument("--ccr", type=_ccr_value, default=0.01)
    sub_.add_argument("--seed", type=_seed_value, default=2017)
    sub_.add_argument("--method", default="pathapprox")
    sub_.add_argument(
        "--seed-policy",
        choices=["spawn", "stable"],
        default="stable",
        help="seed derivation for the cell (default matches run_cell)",
    )
    sub_.add_argument(
        "--eval-seed-policy",
        choices=["positional", "content"],
        default=None,
        help=(
            "'content' derives stochastic sampling seeds from cell "
            "content, letting Monte Carlo submissions coalesce and be "
            "served from the durable store; omitted, the serving "
            "process's default applies ('repro serve "
            "--eval-seed-policy'; positional for --local)"
        ),
    )
    sub_.add_argument(
        "--mc-trials",
        type=_positive_int,
        default=None,
        help="Monte Carlo trial count (--method montecarlo only)",
    )
    sub_.add_argument(
        "--url",
        default="http://127.0.0.1:8765",
        help="service base URL (see 'repro serve')",
    )
    sub_.add_argument(
        "--local",
        action="store_true",
        help="evaluate without a server, against --store directly",
    )
    sub_.add_argument(
        "--store",
        type=Path,
        default=Path("repro-service.db"),
        help="store path for --local mode (default ./repro-service.db)",
    )
    sub_.add_argument(
        "--jobs",
        type=_jobs_count,
        default=1,
        help="worker processes for --local evaluation (0 = all cores)",
    )
    sub_.add_argument(
        "--json", action="store_true", help="print the raw JSON reply"
    )

    wrk = sub.add_parser(
        "worker",
        help="run a fleet worker for the remote execution backend",
        description=(
            "Run one compute worker of a remote-backend fleet: register "
            "with a coordinator (a `repro serve --backend remote` "
            "service, or the URL a `repro sweep --backend remote` "
            "prints) and poll it for leased work units.  A unit is JSON "
            "data (a sweep spec and a chunk of its cells), never code; "
            "one that does not decode is reported back as a failure."
        ),
    )
    wrk.add_argument(
        "coordinator",
        help="coordinator base URL to poll (e.g. http://127.0.0.1:8765)",
    )
    wrk.add_argument(
        "--id",
        default=None,
        help="worker id shown in the coordinator's /status "
        "(default: host-pid-suffix)",
    )
    wrk.add_argument(
        "--poll-interval",
        type=float,
        default=0.2,
        help="seconds between lease polls when idle",
    )
    wrk.add_argument("--quiet", action="store_true")

    ker = sub.add_parser(
        "kernels",
        help="show which distribution-kernel backend is live per op",
        description=(
            "Report the compiled-kernel layer's status: whether the "
            "native shared object is built and loaded, which switch "
            "disabled it (flag, REPRO_NATIVE, build failure), and the "
            "backend serving each primitive (convolve / max / "
            "truncate).  Every op always has a backend — the pure-"
            "python numpy path is the bit-exact reference and the "
            "fallback."
        ),
    )
    ker.add_argument("--json", action="store_true", help="machine-readable output")

    sto = sub.add_parser(
        "store",
        help="export/import a service result store as JSONL",
        description=(
            "Offline interchange for the durable SQLite result store "
            "used by `repro serve` and `repro submit --local`: export "
            "dumps every cached record as JSON Lines, import ingests a "
            "dump into another store (existing entries are kept; every "
            "line's fingerprint is re-verified).  First step toward "
            "cross-machine cache warming."
        ),
    )
    sto_sub = sto.add_subparsers(dest="store_command", required=True)
    sto_exp = sto_sub.add_parser(
        "export", help="dump a store to JSONL (stdout or --out FILE)"
    )
    sto_exp.add_argument(
        "--store",
        type=Path,
        default=Path("repro-service.db"),
        help="SQLite result store path (default ./repro-service.db)",
    )
    sto_exp.add_argument(
        "--out",
        type=Path,
        default=None,
        help="write the JSONL dump here instead of stdout",
    )
    sto_imp = sto_sub.add_parser(
        "import", help="ingest an exported JSONL dump into a store"
    )
    sto_imp.add_argument(
        "source",
        type=Path,
        help="JSONL dump file produced by `repro store export`",
    )
    sto_imp.add_argument(
        "--store",
        type=Path,
        default=Path("repro-service.db"),
        help="SQLite result store path (default ./repro-service.db)",
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.generators import generate, write_dax
    from repro.generators.serialization import save_workflow

    from repro.workloads import SOURCE_SUFFIXES

    message = _check_family(args.family)
    if message is not None:
        print(message, file=sys.stderr)
        return 2
    suffix = args.out.suffix.lower()
    fmt = SOURCE_SUFFIXES.get(suffix)
    if fmt is None:
        # One format registry: the same suffix table the --dax readers
        # use decides what generate can write.
        print(
            f"unsupported output extension {suffix!r} for {args.out}; "
            f"supported formats: {', '.join(sorted(SOURCE_SUFFIXES))} "
            "(.dax/.xml = Pegasus DAX v3, .json = native schema)",
            file=sys.stderr,
        )
        return 2
    wf = generate(args.family, args.ntasks, args.seed)
    if fmt == "dax":
        write_dax(wf, args.out)
    else:
        save_workflow(wf, args.out)
    print(f"wrote {wf!r} to {args.out}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.api import run_strategies
    from repro.errors import SerializationError, WorkflowError
    from repro.generators import generate

    message = _family_or_dax(args, "evaluate") or _check_method(args.method)
    if message is not None:
        print(message, file=sys.stderr)
        return 2
    if args.dax is not None:
        try:
            wf = _load_dax_source(args.dax).workflow
        except (SerializationError, WorkflowError, OSError) as exc:
            print(f"cannot load {args.dax}: {exc}", file=sys.stderr)
            return 2
    else:
        message = _check_family(args.family)
        if message is not None:
            print(message, file=sys.stderr)
            return 2
        ntasks = args.ntasks if args.ntasks is not None else 50
        wf = generate(args.family, ntasks, args.seed)
    eval_seed = None
    if args.eval_seed_policy == "content":
        # The one-shot command has no grid, so its workflow seed *is*
        # the root seed; the content contract hashes that directly.
        from repro.engine.sweep import cell_eval_seed

        eval_seed = cell_eval_seed(
            args.seed, args.processors, args.pfail, args.ccr, args.method
        )
    outcome = run_strategies(
        wf,
        args.processors,
        pfail=args.pfail,
        ccr=args.ccr,
        seed=args.seed,
        method=args.method,
        eval_seed=eval_seed,
    )
    print(outcome.summary())
    return 0


def _cmd_methods(args: argparse.Namespace) -> int:
    import json as _json

    from repro.makespan.api import EVALUATORS, get_evaluator
    from repro.util.tables import format_table

    evaluators = [get_evaluator(name) for name in sorted(EVALUATORS)]
    if args.json:
        payload = {
            ev.name: {
                "summary": ev.summary,
                "deterministic": ev.deterministic,
                "options": (
                    "any"
                    if ev.accepts_any_option
                    else [
                        {"name": opt.name, "default": repr(opt.default), "doc": opt.doc}
                        for opt in ev.options
                    ]
                ),
            }
            for ev in evaluators
        }
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0
    rows = []
    for ev in evaluators:
        if ev.accepts_any_option:
            options = "any (**kwargs)"
        else:
            options = ", ".join(opt.describe() for opt in ev.options) or "none"
        rows.append(
            [
                ev.name,
                "deterministic" if ev.deterministic else "stochastic",
                options,
            ]
        )
    print(
        format_table(
            ["method", "kind", "options"],
            rows,
            title="registered expected-makespan evaluators",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine.records import records_to_csv, records_to_jsonl
    from repro.engine.sweep import SweepSpec, run_sweep
    from repro.errors import ExperimentError, SerializationError, WorkflowError
    from repro.experiments.figures import log_grid
    from repro.experiments.results import render_cells_table

    _apply_engine_flags(args)
    message = _family_or_dax(args, "sweep")
    if message is not None:
        print(message, file=sys.stderr)
        return 2
    if args.dax is not None and args.sizes is not None:
        print(
            "repro sweep: --sizes cannot be combined with --dax "
            "(the grid's single size is the workflow file's task count)",
            file=sys.stderr,
        )
        return 2
    if args.family is not None:
        message = _check_family(args.family)
        if message is not None:
            print(message, file=sys.stderr)
            return 2
    if args.out is not None:
        if args.out.suffix.lower() not in (".jsonl", ".csv"):
            print(
                f"unsupported records extension {args.out.suffix!r} "
                "(use .jsonl or .csv)",
                file=sys.stderr,
            )
            return 2
        if not args.out.parent.is_dir():
            print(
                f"output directory {str(args.out.parent)!r} does not exist",
                file=sys.stderr,
            )
            return 2
    if args.ccrs is not None and args.ccr_grid is not None:
        print("--ccrs and --ccr-grid are mutually exclusive", file=sys.stderr)
        return 2
    try:
        if args.ccrs is not None:
            ccrs = tuple(args.ccrs)
        else:
            lo, hi, points = args.ccr_grid or (1e-3, 1.0, 5)
            ccrs = log_grid(lo, hi, int(points))
        if args.dax is not None:
            try:
                source = _load_dax_source(args.dax)
            except (SerializationError, WorkflowError, OSError) as exc:
                print(f"cannot load {args.dax}: {exc}", file=sys.stderr)
                return 2
            spec = SweepSpec.from_source(
                source,
                processors=tuple(args.processors),
                pfails=tuple(args.pfails),
                ccrs=ccrs,
                seed=args.seed,
                method=args.method,
                seed_policy=args.seed_policy,
                eval_seed_policy=args.eval_seed_policy,
            )
        else:
            sizes = tuple(args.sizes) if args.sizes is not None else (50,)
            spec = SweepSpec(
                family=args.family,
                sizes=sizes,
                processors={n: tuple(args.processors) for n in sizes},
                pfails=tuple(args.pfails),
                ccrs=ccrs,
                seed=args.seed,
                method=args.method,
                seed_policy=args.seed_policy,
                eval_seed_policy=args.eval_seed_policy,
                name=f"sweep[{args.family}]",
            )
    except ExperimentError as exc:
        print(f"invalid sweep grid: {exc}", file=sys.stderr)
        return 2
    progress = None if args.quiet else (lambda msg: print("  " + msg))
    backend = args.backend
    owned_backend = None
    if args.backend == "remote":
        # Built here (not inside run_sweep) so the coordinator URL can
        # be printed before the grid blocks on the fleet.
        from repro.engine.backends import RemoteWorkerBackend

        backend = owned_backend = RemoteWorkerBackend(
            lease_timeout=args.lease_timeout,
            worker_grace=args.worker_grace,
        )
        # Flushed: a script reading this line from a redirected stdout
        # needs the URL before the sweep blocks on its fleet.
        print(
            f"remote backend coordinator at {backend.coordinator_url} — "
            f"start workers with `repro worker {backend.coordinator_url}`",
            flush=True,
        )
    prof = None
    if args.profile:
        from repro.makespan import profile as kernel_profile

        prof = kernel_profile.enable()
    try:
        records = run_sweep(
            spec,
            jobs=args.jobs,
            progress=progress,
            backend=backend,
        )
    finally:
        if owned_backend is not None:
            owned_backend.close()
        if prof is not None:
            from repro.makespan import profile as kernel_profile

            kernel_profile.disable()
    print()
    print(render_cells_table(records, title=f"sweep ({spec.family})"))
    if prof is not None:
        print()
        print("kernel profile")
        print(prof.render())
    if args.out is not None:
        if args.out.suffix.lower() == ".jsonl":
            records_to_jsonl(records, args.out)
        else:
            records_to_csv(records, args.out)
        print(f"\nwrote {len(records)} records to {args.out}")
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import (
        PAPER_FIGURES,
        render_figure,
        results_to_csv,
        run_figure,
    )
    from repro.experiments.results import render_cells_table

    spec = PAPER_FIGURES[args.name].shrink(
        sizes=args.sizes,
        pfails=args.pfails,
        ccr_points=args.ccr_points,
        processors_per_size=args.processors_per_size,
    )
    progress = None if args.quiet else (lambda msg: print("  " + msg))
    cells = run_figure(spec, progress=progress, jobs=args.jobs)
    print()
    print(render_cells_table(cells, title=f"{args.name} ({spec.family})"))
    print()
    print(render_figure(cells, title=args.name))
    if args.csv is not None:
        results_to_csv(cells, args.csv)
        print(f"\nwrote {len(cells)} cells to {args.csv}")
    return 0


def _cmd_accuracy(args: argparse.Namespace) -> int:
    from repro.experiments.accuracy import render_accuracy, run_accuracy

    rows = run_accuracy(
        families=args.families,
        ntasks=args.ntasks,
        processors=args.processors,
        pfails=args.pfails,
        ccr=args.ccr,
        mc_trials=args.mc_trials,
        seed=args.seed,
    )
    print(render_accuracy(rows, title="§VI-B estimator accuracy"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.checkpoint.strategies import plan_for_strategy
    from repro.experiments.ccr import scale_to_ccr
    from repro.generators import generate
    from repro.mspg.transform import mspgify
    from repro.platform import Platform, lambda_from_pfail
    from repro.scheduling.allocate import allocate
    from repro.simulation import replay_plan

    wf = generate(args.family, args.ntasks, args.seed)
    lam = lambda_from_pfail(args.pfail, wf.mean_weight)
    platform = Platform(args.processors, failure_rate=lam)
    wf = scale_to_ccr(wf, platform, args.ccr)
    tree = mspgify(wf).tree
    schedule = allocate(wf, tree, args.processors, seed=args.seed)
    plan = plan_for_strategy(args.strategy, wf, schedule, platform)
    trace = replay_plan(wf, schedule, plan, platform, seed=args.seed)
    print(
        f"{args.strategy} on {wf.name}: makespan={trace.makespan:.1f}s, "
        f"{trace.n_failures} failures, {trace.wasted_seconds:.1f}s wasted"
    )
    for line in trace.gantt_lines():
        print(line)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    _apply_engine_flags(args)
    serve(
        host=args.host,
        port=args.port,
        store=args.store,
        jobs=args.jobs,
        linger=args.linger,
        eval_seed_policy=args.eval_seed_policy,
        profile=args.profile,
        backend=args.backend,
        lease_timeout=args.lease_timeout,
        worker_grace=args.worker_grace,
    )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.engine.records import record_to_dict
    from repro.errors import SerializationError, ServiceError, WorkflowError
    from repro.service.fingerprint import EvalRequest

    message = _family_or_dax(args, "submit")
    if message is not None:
        print(message, file=sys.stderr)
        return 2
    source = None
    if args.dax is not None:
        try:
            source = _load_dax_source(args.dax)
        except (SerializationError, WorkflowError, OSError) as exc:
            print(f"cannot load {args.dax}: {exc}", file=sys.stderr)
            return 2
    elif _check_family(args.family) is not None:
        print(_check_family(args.family), file=sys.stderr)
        return 2
    if args.mc_trials is not None and args.method != "montecarlo":
        print(
            f"repro submit: --mc-trials only applies to --method "
            f"montecarlo (got {args.method!r})",
            file=sys.stderr,
        )
        return 2

    try:
        request = EvalRequest(
            family=args.family or "",
            # The cell's size axis is the file's actual task count for
            # --dax submissions (--ntasks describes synthetic families).
            ntasks=(
                source.workflow.n_tasks
                if source is not None
                else (args.ntasks if args.ntasks is not None else 50)
            ),
            processors=args.processors,
            pfail=args.pfail,
            ccr=args.ccr,
            seed=args.seed,
            method=args.method,
            seed_policy=args.seed_policy,
            eval_seed_policy=(
                args.eval_seed_policy
                if args.eval_seed_policy is not None
                else "positional"
            ),
            evaluator_options=(
                {"trials": args.mc_trials} if args.mc_trials is not None else {}
            ),
            workflow=source.content_hash if source is not None else None,
        )
    except ServiceError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2

    try:
        if args.local:
            from repro.service.scheduler import BatchScheduler
            from repro.service.store import ResultStore
            from repro.workloads import SourceRegistry

            registry = SourceRegistry()
            with ResultStore(args.store) as store:
                if source is not None:
                    registry.register(source)
                    # Same durability as POST /register: the source
                    # survives in the store's sources table.
                    store.save_source(source)
                outcome = BatchScheduler(
                    store, jobs=args.jobs, registry=registry
                ).evaluate(request)
            record, cached, fp = outcome.record, outcome.cached, outcome.fingerprint
            wall = None
        else:
            from repro.service.client import ServiceClient
            from repro.service.fingerprint import request_to_dict

            client = ServiceClient(args.url)
            if source is not None:
                client.register(source.workflow, label=source.label)
            payload = request_to_dict(request)
            if args.eval_seed_policy is None:
                # No explicit flag: leave the choice to the server's
                # configured default (repro serve --eval-seed-policy)
                # instead of pinning the client-side fallback.
                del payload["eval_seed_policy"]
            reply = client.evaluate(**payload)
            record, cached, fp = reply.record, reply.cached, reply.fingerprint
            wall = reply.wall_time_s
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        payload = {
            "fingerprint": fp,
            "cached": cached,
            "record": record_to_dict(record),
        }
        if wall is not None:
            payload["wall_time_s"] = wall
        print(_json.dumps(payload, sort_keys=True))
        return 0
    source = "store hit" if cached else "computed"
    timing = f" in {wall:.3f}s" if wall is not None else ""
    print(f"{record.family} n={record.ntasks_requested} p={record.processors} "
          f"pfail={record.pfail} ccr={record.ccr:g} [{source}{timing}]")
    print(f"  fingerprint : {fp}")
    print(f"  E[makespan] : some={record.em_some:.6g}s all={record.em_all:.6g}s "
          f"none={record.em_none:.6g}s")
    print(f"  relative    : all/some={record.ratio_all:.4f} "
          f"none/some={record.ratio_none:.4f}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.engine.backends.worker import WorkerLoop

    log = None if args.quiet else print
    loop = WorkerLoop(
        args.coordinator,
        worker_id=args.id,
        poll_interval=args.poll_interval,
        log=log,
    )
    if log is not None:
        log(f"worker {loop.worker_id} polling {loop.coordinator}")
    try:
        loop.run()
    except KeyboardInterrupt:  # pragma: no cover — interactive only
        loop.stop()
    return 0


def _cmd_kernels(args: argparse.Namespace) -> int:
    import json as _json

    from repro.makespan import native
    from repro.util.tables import format_table

    status = native.status()
    if args.json:
        print(_json.dumps(status, indent=2, sort_keys=True))
        return 0
    rows = [[op, backend] for op, backend in sorted(status["ops"].items())]
    print(
        format_table(
            ["op", "backend"],
            rows,
            title="distribution kernel backends",
        )
    )
    detail = [f"backend: {status['backend']}"]
    if status["disabled_by"] is not None:
        detail.append(f"disabled by: {status['disabled_by']}")
    if status["build_error"] is not None:
        detail.append(f"build error: {status['build_error']}")
    if status["compiler"] is not None:
        detail.append(f"compiler: {status['compiler']}")
    if status["cached_object"] is not None:
        detail.append(f"object: {status['cached_object']}")
    print("\n".join(detail))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service.store import ResultStore

    if args.store_command == "export":
        if not args.store.is_file():
            print(f"no store at {args.store}", file=sys.stderr)
            return 2
        with ResultStore(args.store) as store:
            text = store.export_jsonl(args.out)
        entries = sum(1 for line in text.splitlines() if line.strip())
        if args.out is not None:
            print(f"exported {entries} entries to {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    # import
    if not args.source.is_file():
        print(f"no dump at {args.source}", file=sys.stderr)
        return 2
    with ResultStore(args.store) as store:
        try:
            added = store.import_jsonl(args.source)
        except (ServiceError, ValueError, KeyError) as exc:
            print(f"import failed: {exc}", file=sys.stderr)
            return 2
    print(f"imported {added} new entries into {args.store}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "methods": _cmd_methods,
    "kernels": _cmd_kernels,
    "sweep": _cmd_sweep,
    "figure": _cmd_figure,
    "accuracy": _cmd_accuracy,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "worker": _cmd_worker,
    "store": _cmd_store,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
