"""Command-line interface: regenerate any table or figure from the terminal.

Examples
--------
Run the Table 5 comparison on the default laptop-scale datasets::

    snaple table5

Run the klocal sensitivity figure at a smaller scale with a custom seed::

    snaple figure8 --scale 0.5 --seed 7

Run only the GAS leg of the engine ablation and emit machine-readable JSON::

    snaple ablation-engines --engine gas --json

Run the engine ablation in 4 worker processes (a crashed worker is
respawned and the run replayed, with an identical result)::

    snaple ablation-engines --engine gas --workers 4

Serve predictions from a long-lived process, ingest an edge, and watch the
answer change (the online-serving demo loop)::

    snaple serve --demo
    snaple serve --vertex 5 --ingest 5:42 --workers 4 --json

Run a declarative scenario suite (YAML/TOML) and write one report per
experiment::

    snaple suite run examples/suites/temporal_replay.yaml --out reports/
    snaple suite list examples/suites/figure6.yaml

List the available experiments, dataset analogs and execution backends::

    snaple list
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys
from collections.abc import Sequence
from typing import Any

from repro.errors import ConfigurationError
from repro.eval.experiments import EXPERIMENTS
from repro.eval.experiments.ablation_engines import ENGINE_SPECS
from repro.graph.datasets import dataset_names, dataset_spec
from repro.runtime import available_backends, backend_capabilities
from repro.runtime.engines import LOCAL_MODES
from repro.runtime.parallel import validate_workers

__all__ = ["main", "build_parser"]


def _experiment_argument(value: str) -> str:
    """Normalize an experiment name (``_`` and ``-`` are interchangeable).

    Uses the registry-level normalizer, the same one behind every
    component-name lookup.
    """
    from repro.runtime.registry import match_component_name

    key = match_component_name(
        value, list(EXPERIMENTS) + ["list", "serve"]
    )
    if key is not None:
        return key
    known = ", ".join(sorted(EXPERIMENTS) + ["list", "serve", "suite"])
    raise argparse.ArgumentTypeError(
        f"unknown experiment {value!r} (choose from: {known})"
    )


def _edge_argument(value: str) -> tuple[int, int]:
    """Parse an ``--ingest U:V`` directed-edge argument."""
    try:
        source, _, target = value.partition(":")
        return int(source), int(target)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer edge 'U:V', got {value!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``snaple`` command."""
    parser = argparse.ArgumentParser(
        prog="snaple",
        description="Regenerate the SNAPLE paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        type=_experiment_argument,
        metavar="experiment",
        help=(
            "experiment to run (table/figure id, e.g. "
            f"{', '.join(sorted(EXPERIMENTS))}) or 'list' to enumerate them"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale multiplier (default 1.0, laptop-sized analogs)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=42,
        help="random seed shared by dataset generation and the protocol",
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINE_SPECS),
        default=None,
        help=(
            "restrict an engine-comparison experiment to one execution "
            "engine (only experiments taking an 'engines' parameter)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "execute graph partitions in N shared-nothing worker processes "
            "instead of the simulated cluster (only experiments taking a "
            "'workers' parameter, e.g. ablation-engines)"
        ),
    )
    parser.add_argument(
        "--graph-format",
        choices=("memory", "memmap"),
        default=None,
        help=(
            "where parallel (--workers) runs host the graph and state "
            "columns: 'memory' (the default; RAM and shared-memory "
            "segments) or 'memmap' (out-of-core: on-disk containers and "
            "spool files, equivalent to SNAPLE_OOC=1, bounding peak RSS "
            "on graphs larger than memory)"
        ),
    )
    parser.add_argument(
        "--mode",
        choices=LOCAL_MODES,
        default=None,
        help=(
            "execution mode for local-backend scoring: 'vectorized' runs "
            "the kernel's array branches (default), 'reference' its scalar "
            "ones (only experiments taking a 'mode' parameter, "
            "e.g. figure6-figure10, ablation-alpha)"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the result as machine-readable JSON instead of a table",
    )
    serving = parser.add_argument_group(
        "online serving ('serve' only)",
        "run a long-lived predictor service over a generated graph; "
        "--workers sets the service's worker-thread count and --scale/--seed "
        "size and seed the graph",
    )
    serving.add_argument(
        "--queue-bound",
        type=int,
        default=None,
        metavar="N",
        help="bounded job-queue capacity of the service (default 64)",
    )
    serving.add_argument(
        "--compact-every",
        type=int,
        default=None,
        metavar="N",
        help=(
            "fold the delta overlay back into the CSR base every N ingested "
            "edges (default 1024)"
        ),
    )
    serving.add_argument(
        "--vertex",
        type=int,
        default=None,
        metavar="U",
        help="issue a top-k request for vertex U (re-issued after --ingest)",
    )
    serving.add_argument(
        "--ingest",
        type=_edge_argument,
        action="append",
        default=None,
        metavar="U:V",
        help="stream the directed edge U->V into the service (repeatable)",
    )
    serving.add_argument(
        "--demo",
        action="store_true",
        help=(
            "demo loop: query a vertex, ingest its top prediction as a real "
            "edge, and show the changed answer"
        ),
    )
    serving.add_argument(
        "--load-clients",
        type=int,
        default=None,
        metavar="N",
        help="run the closed-loop load generator with N clients",
    )
    serving.add_argument(
        "--load-windows",
        type=int,
        default=3,
        metavar="N",
        help="instrumentation windows for --load-clients (default 3)",
    )
    serving.add_argument(
        "--load-window-seconds",
        type=float,
        default=1.0,
        metavar="S",
        help="window length in seconds for --load-clients (default 1.0)",
    )
    return parser


def _experiment_summary(name: str) -> str:
    """First docstring line of an experiment's entry point."""
    doc = (EXPERIMENTS[name].__doc__ or "").strip().splitlines()
    return doc[0] if doc else ""


def _render_listing() -> str:
    lines = ["Available experiments:"]
    for name in sorted(EXPERIMENTS):
        lines.append(f"  {name:10s} {_experiment_summary(name)}")
    lines.append(
        "  serve      online predictor service with streamed edge ingest "
        "(see 'snaple serve --help')"
    )
    lines.append(
        "  suite      declarative scenario suites from YAML/TOML files "
        "(see 'snaple suite --help')"
    )
    lines.append("")
    lines.append("Dataset analogs:")
    for name in dataset_names():
        spec = dataset_spec(name)
        lines.append(
            f"  {name:12s} {spec.domain:16s} "
            f"paper |E|={spec.paper_edges:,} ({spec.description})"
        )
    lines.append("")
    lines.append("Execution backends:")
    for name in available_backends():
        capabilities = backend_capabilities(name)
        lines.append(f"  {name:16s} {capabilities.description}")
    return "\n".join(lines)


def _listing_payload() -> dict[str, Any]:
    """JSON payload for ``snaple list --json``."""
    return {
        "experiments": {
            name: _experiment_summary(name) for name in sorted(EXPERIMENTS)
        },
        "datasets": {
            name: {
                "domain": spec.domain,
                "paper_edges": spec.paper_edges,
                "description": spec.description,
            }
            for name in dataset_names()
            for spec in (dataset_spec(name),)
        },
        "backends": {
            name: dataclasses.asdict(backend_capabilities(name))
            for name in available_backends()
        },
    }


def _json_default(value: Any) -> Any:
    """Last-resort JSON conversion for result payloads."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return str(value)


def _result_payload(result: Any) -> Any:
    """Machine-readable view of an experiment result."""
    if hasattr(result, "to_dict"):
        return result.to_dict()
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return dataclasses.asdict(result)
    return {"rendered": result.render()}


def _run_serve(args: argparse.Namespace,
               parser: argparse.ArgumentParser) -> int:
    """The ``snaple serve`` session: start, request, ingest, shut down."""
    from repro.graph.generators import powerlaw_cluster
    from repro.serving import (
        LoadConfig,
        LoadGenerator,
        PredictorService,
        ServingConfig,
    )
    from repro.snaple.config import SnapleConfig

    for flag, value in (("--engine", args.engine), ("--mode", args.mode)):
        if value is not None:
            parser.error(f"{flag} is not supported by 'serve'")

    # Up-front validation (ConfigurationError), before any graph work.
    serving_config = ServingConfig(
        workers=args.workers if args.workers is not None else 2,
        queue_bound=(args.queue_bound
                     if args.queue_bound is not None else 64),
        compact_every=(args.compact_every
                       if args.compact_every is not None else 1024),
    )
    num_vertices = max(60, int(round(1000 * args.scale)))
    graph = powerlaw_cluster(num_vertices, 4, 0.4, seed=args.seed)
    config = SnapleConfig.paper_default(seed=args.seed)

    events: list[dict[str, Any]] = []

    def top_k_event(service: PredictorService, vertex: int) -> dict[str, Any]:
        answer = service.top_k(vertex)
        return {
            "op": "top_k",
            "vertex": vertex,
            "predicted": answer.predicted,
            "scores": answer.scores,
            "from_cache": answer.from_cache,
        }

    load_payload: dict[str, Any] | None = None
    with PredictorService(graph, config,
                          serving=serving_config) as service:
        if args.vertex is not None:
            events.append(top_k_event(service, args.vertex))
        for source, target in args.ingest or []:
            outcome = service.ingest([(source, target)])
            events.append({
                "op": "ingest",
                "edge": [source, target],
                "added": len(outcome.added),
                "rescored": outcome.rescored,
                "compacted": outcome.compacted,
            })
        if args.ingest and args.vertex is not None:
            events.append(top_k_event(service, args.vertex))
        if args.demo:
            # Ingest a vertex's top prediction as a real edge: the candidate
            # joins Γ̂(u), is excluded from candidacy, and the answer changes.
            subject = next(
                (u for u in range(service.num_vertices)
                 if service.top_k(u).predicted), None,
            )
            if subject is None:
                parser.error("demo graph produced no predictions; "
                             "raise --scale")
            before = service.top_k(subject)
            ingested = before.predicted[0]
            service.ingest([(subject, ingested)])
            after = service.top_k(subject)
            events.append({
                "op": "demo",
                "vertex": subject,
                "ingested_edge": [subject, ingested],
                "before": before.predicted,
                "after": after.predicted,
                "answer_changed": after.predicted != before.predicted,
            })
        if args.load_clients is not None:
            load_config = LoadConfig(
                clients=args.load_clients,
                windows=args.load_windows,
                window_seconds=args.load_window_seconds,
                warmup_windows=1 if args.load_windows > 1 else 0,
                seed=args.seed,
            )
            load_payload = LoadGenerator(service, load_config).run().to_dict()
        stats = service.stats()
        report = service.report()

    if args.json:
        payload = {
            "experiment": "serve",
            "scale": args.scale,
            "seed": args.seed,
            "serving": dataclasses.asdict(serving_config),
            "graph": {
                "num_vertices": graph.num_vertices,
                "num_edges": graph.num_edges,
            },
            "events": events,
            "load": load_payload,
            "stats": dataclasses.asdict(stats),
            "extra": report.extra,
            "uptime_seconds": report.wall_clock_seconds,
        }
        print(json.dumps(payload, indent=2, default=_json_default))
        return 0
    lines = [
        f"Online serving: |V|={graph.num_vertices:,} "
        f"|E|={graph.num_edges:,}, workers={serving_config.workers}, "
        f"queue bound={serving_config.queue_bound}, "
        f"compact every={serving_config.compact_every}",
    ]
    for event in events:
        if event["op"] == "top_k":
            lines.append(
                f"  top-k({event['vertex']}) -> {event['predicted']}"
                + ("  [cached]" if event["from_cache"] else "")
            )
        elif event["op"] == "ingest":
            source, target = event["edge"]
            lines.append(
                f"  ingest {source}->{target}: added={event['added']} "
                f"rescored={event['rescored']} vertices"
                + (" (compacted)" if event["compacted"] else "")
            )
        else:
            lines.append(
                f"  demo: top-k({event['vertex']}) {event['before']} "
                f"-> ingest {event['ingested_edge'][0]}->"
                f"{event['ingested_edge'][1]} -> {event['after']} "
                f"(answer changed: {event['answer_changed']})"
            )
    if load_payload is not None:
        lines.append(
            f"  load: {load_payload['offered_clients']} clients, "
            f"stable {load_payload['stable_throughput_ops']:.0f} ops/s, "
            f"p50 {load_payload['stable_p50_ms']:.3f} ms, "
            f"p99 {load_payload['stable_p99_ms']:.3f} ms"
        )
    lines.append(
        f"  stats: served={stats.requests_served} "
        f"ingested={stats.edges_ingested} "
        f"rescored={stats.dirty_vertices_rescored} "
        f"cache {stats.cache_hits}/"
        f"{stats.cache_hits + stats.cache_misses} "
        f"compactions={stats.compactions}"
    )
    print("\n".join(lines))
    return 0


def build_suite_parser() -> argparse.ArgumentParser:
    """Argument parser for the ``snaple suite`` command family."""
    parser = argparse.ArgumentParser(
        prog="snaple suite",
        description=(
            "Run declarative scenario suites (YAML/TOML) through the "
            "component registry: batch protocol runs and temporal replays "
            "through the serving plane, no experiment code required."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="execute a suite file's experiments"
    )
    run.add_argument("file", help="path to the suite file (.yaml/.yml/.toml)")
    run.add_argument(
        "--pack", default=None, metavar="NAME",
        help="run only the experiments of this pack",
    )
    run.add_argument(
        "--experiment", default=None, metavar="NAME",
        help="run only the experiment with this name",
    )
    run.add_argument(
        "--out", default=None, metavar="DIR",
        help="also write one <pack>__<experiment>.json report per "
             "experiment under DIR",
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit the full result as machine-readable JSON",
    )

    listing = commands.add_parser(
        "list", help="list a suite file's packs and experiments"
    )
    listing.add_argument("file", help="path to the suite file")
    listing.add_argument("--json", action="store_true",
                         help="emit the listing as JSON")

    describe = commands.add_parser(
        "describe", help="show every resolved experiment (merged defaults)"
    )
    describe.add_argument("file", help="path to the suite file")
    describe.add_argument("--json", action="store_true",
                          help="emit the description as JSON")
    return parser


def _suite_experiment_payload(experiment: Any) -> dict[str, Any]:
    """JSON view of one resolved suite experiment."""
    payload = dataclasses.asdict(experiment)
    payload["qualified_name"] = experiment.qualified_name
    return payload


def _run_suite_command(argv: Sequence[str]) -> int:
    """The ``snaple suite ...`` command family."""
    from repro.suites import load_suite, run_suite

    parser = build_suite_parser()
    args = parser.parse_args(list(argv))
    try:
        suite = load_suite(args.file)
    except ConfigurationError as error:
        parser.error(str(error))
    if args.command == "list":
        if args.json:
            print(json.dumps({
                "suite": suite.name,
                "description": suite.description,
                "source": suite.source,
                "packs": {
                    pack: [e.name for e in suite.experiments
                           if e.pack == pack]
                    for pack in suite.pack_names()
                },
            }, indent=2))
            return 0
        lines = [f"Suite {suite.name!r} ({suite.source})"]
        if suite.description:
            lines.append(f"  {suite.description}")
        for pack in suite.pack_names():
            lines.append(f"  pack {pack}:")
            for experiment in suite.experiments:
                if experiment.pack == pack:
                    lines.append(
                        f"    {experiment.name:24s} "
                        f"{experiment.workload} on "
                        f"{experiment.dataset.describe()}"
                    )
        print("\n".join(lines))
        return 0
    if args.command == "describe":
        payloads = [_suite_experiment_payload(e) for e in suite.experiments]
        if args.json:
            print(json.dumps({
                "suite": suite.name,
                "description": suite.description,
                "experiments": payloads,
            }, indent=2, default=_json_default))
            return 0
        lines = [f"Suite {suite.name!r} — "
                 f"{len(suite.experiments)} experiment(s)"]
        for experiment in suite.experiments:
            lines.append(f"  {experiment.qualified_name}:")
            lines.append(f"    workload: {experiment.workload}"
                         f"  backend: {experiment.backend}")
            lines.append(f"    dataset:  {experiment.dataset.describe()}")
            lines.append(f"    scale={experiment.scale} "
                         f"seed={experiment.seed}")
            for section in ("config", "protocol", "backend_options",
                            "options"):
                content = getattr(experiment, section)
                if content:
                    rendered = ", ".join(
                        f"{key}={value!r}"
                        for key, value in sorted(content.items())
                    )
                    lines.append(f"    {section}: {rendered}")
        print("\n".join(lines))
        return 0
    try:
        result = run_suite(suite, pack=args.pack,
                           experiment=args.experiment, out_dir=args.out)
    except ConfigurationError as error:
        parser.error(str(error))
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, default=_json_default))
    else:
        print(result.render())
    return 0


#: Serve-only flags rejected for batch experiments (dest, rendered flag).
_SERVE_ONLY_FLAGS = (
    ("queue_bound", "--queue-bound"),
    ("compact_every", "--compact-every"),
    ("vertex", "--vertex"),
    ("ingest", "--ingest"),
    ("load_clients", "--load-clients"),
)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for the ``snaple`` console script."""
    arguments = list(sys.argv[1:] if argv is None else argv)
    if arguments and arguments[0] == "suite":
        return _run_suite_command(arguments[1:])
    parser = build_parser()
    args = parser.parse_args(arguments)
    if args.experiment == "list":
        if args.json:
            print(json.dumps(_listing_payload(), indent=2))
        else:
            print(_render_listing())
        return 0
    if args.experiment == "serve":
        return _run_serve(args, parser)
    for dest, flag in _SERVE_ONLY_FLAGS:
        if getattr(args, dest) is not None:
            parser.error(
                f"{flag} is only supported by the 'serve' experiment"
            )
    if args.demo:
        parser.error("--demo is only supported by the 'serve' experiment")
    experiment = EXPERIMENTS[args.experiment]
    kwargs: dict[str, Any] = {"scale": args.scale, "seed": args.seed}
    parameters = inspect.signature(experiment).parameters
    if args.engine is not None:
        if "engines" not in parameters:
            parser.error(
                f"--engine is not supported by experiment {args.experiment!r}"
            )
        kwargs["engines"] = (args.engine,)
    if args.workers is not None:
        if "workers" not in parameters:
            parser.error(
                f"--workers is not supported by experiment {args.experiment!r}"
            )
        try:
            kwargs["workers"] = validate_workers(args.workers)
        except ConfigurationError as error:
            parser.error(f"--workers: {error}")
    if args.graph_format is not None:
        if args.workers is None:
            parser.error("--graph-format requires --workers")
        # The coordinator reads the flag from the environment when it picks
        # the segment plane, so the CLI only has to set it here.
        if args.graph_format == "memmap":
            os.environ["SNAPLE_OOC"] = "1"
        else:
            os.environ.pop("SNAPLE_OOC", None)
    if args.mode is not None:
        if "mode" not in parameters:
            parser.error(
                f"--mode is not supported by experiment {args.experiment!r}"
            )
        kwargs["mode"] = args.mode
    try:
        result = experiment(**kwargs)
    except ConfigurationError as error:
        parser.error(str(error))
    if args.json:
        payload = {
            "experiment": args.experiment,
            "scale": args.scale,
            "seed": args.seed,
            "result": _result_payload(result),
        }
        print(json.dumps(payload, indent=2, default=_json_default))
    else:
        print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
