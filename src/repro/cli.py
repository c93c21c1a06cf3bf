"""Command-line interface: ``python -m repro <command>``.

Every command is a thin adapter over the one public facade,
:class:`repro.api.ReliabilityService`: parse arguments, build a typed
request, hand it to the service, print the response.  No command
constructs an estimator, an engine, or a cache itself — that invariant
is pinned by ``tests/api/test_cli_facade.py`` — so the CLI, the HTTP
server (``repro serve``), and library callers always produce identical
answers for identical inputs.

Subcommands:

* ``estimate``   — one s-t reliability query on a suite dataset
* ``batch``      — a whole query workload through the batch engine
* ``warm``       — pre-evaluate popular pairs into the persistent cache
* ``serve``      — a long-lived HTTP JSON API over one service
* ``datasets``   — the Table 2 dataset summary
* ``topk``       — top-k most reliable targets from a source
* ``bounds``     — polynomial-time lower/upper bracket for a pair
* ``recommend``  — walk the paper's Fig. 18 decision tree
* ``study``      — a miniature convergence study (Tables 3-14 shaped)
* ``lint``       — the AST invariant analyzer (see ``docs/analysis.md``)

All commands are deterministic under ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.api import (
    BatchRequest,
    BoundsRequest,
    EstimateRequest,
    InvalidQueryError,
    QuerySpec,
    RecommendRequest,
    ReliabilityError,
    ReliabilityService,
    TopKRequest,
    WarmRequest,
    coerce_query_specs,
)
from repro.api.service import (
    AUTO_METHOD,
    DEFAULT_CHUNK_SIZE,
    DEFAULT_REWARM_TOP,
    FAST_BATCH_PATHS,
)
from repro.api.types import ENDPOINT_TABLE
from repro.core.registry import PAPER_ESTIMATORS, VARIANCE_SAMPLERS
from repro.datasets.suite import DATASET_KEYS, SCALES, dataset_table
from repro.experiments.convergence import ConvergenceCriterion
from repro.experiments.report import format_dict_rows, format_table
from repro.experiments.runner import StudyConfig
from repro.serve import DEFAULT_HOST, DEFAULT_PORT, serve


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=DATASET_KEYS, default="lastfm",
        help="suite dataset to query (default: lastfm)",
    )
    parser.add_argument(
        "--scale", choices=SCALES, default="tiny",
        help="dataset scale (default: tiny)",
    )
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")


def _add_workload_arguments(
    parser: argparse.ArgumentParser, default_samples: int
) -> None:
    parser.add_argument(
        "--queries", required=True,
        help="query file: one 's t [K [d]]' per line, or a JSON list of "
             "[source, target(, samples(, max_hops))] entries / objects "
             "(object keys: source, target, samples, max_hops)",
    )
    parser.add_argument(
        "--samples", "-K", type=int, default=default_samples,
        help=f"default K for queries that do not carry one "
             f"(default: {default_samples})",
    )
    parser.add_argument(
        "--max-hops", type=int, default=None,
        help="d-hop reliability (§2.9): bound every query that does not "
             "carry its own max_hops to this many edges",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None,
        help=f"service configuration: worlds materialised per streaming "
             f"step (default: {DEFAULT_CHUNK_SIZE})",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="service configuration: worker processes for the engine's "
             "chunk sweep (default: $REPRO_ENGINE_WORKERS or 1); results "
             "are bit-identical to the serial sweep",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="s-t reliability over uncertain graphs (VLDB'19 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    estimate = commands.add_parser("estimate", help="one s-t reliability query")
    _add_dataset_arguments(estimate)
    estimate.add_argument("--source", type=int, required=True)
    estimate.add_argument("--target", type=int, required=True)
    estimate.add_argument(
        "--method",
        choices=PAPER_ESTIMATORS
        + VARIANCE_SAMPLERS
        + ["lp", "dynamic_mc", AUTO_METHOD],
        default="mc",
        help="estimator, or 'auto' to let the service's adaptive router "
             "pick from measured telemetry (default: mc)",
    )
    estimate.add_argument("--samples", "-K", type=int, default=1_000)

    batch = commands.add_parser(
        "batch", help="answer a query-file workload via the batch engine"
    )
    _add_dataset_arguments(batch)
    _add_workload_arguments(batch, default_samples=1_000)
    batch.add_argument(
        "--method",
        choices=PAPER_ESTIMATORS + VARIANCE_SAMPLERS + [AUTO_METHOD],
        default="mc",
        help="estimator; 'mc' and 'bfs_sharing' use the shared-world "
             "engine fast path, 'prob_tree' groups the batch by (s, t) "
             "bag pair, the others fall back to a per-query loop; "
             "'auto' lets the adaptive router pick (default: mc)",
    )
    batch.add_argument(
        "--cache-dir", default=None,
        help="directory holding the persistent result cache; a re-run of "
             "the same workload (same graph, seed, K) is served from the "
             "sidecar with zero world evaluations, even across processes",
    )
    batch.add_argument(
        "--output", default="-",
        help="write the JSON report here instead of stdout",
    )

    warm = commands.add_parser(
        "warm",
        help="pre-evaluate popular (s, t) pairs into the persistent cache",
    )
    _add_dataset_arguments(warm)
    _add_workload_arguments(warm, default_samples=1_000)
    warm.add_argument(
        "--cache-dir", required=True,
        help="directory of the persistent sidecar the warmed results are "
             "written to (required: warming exists to outlive the process)",
    )
    warm.add_argument(
        "--output", default="-",
        help="write the JSON warm report here instead of stdout",
    )

    serve_cmd = commands.add_parser(
        "serve", help="long-lived HTTP JSON API over one service"
    )
    _add_dataset_arguments(serve_cmd)
    serve_cmd.add_argument(
        "--host", default=DEFAULT_HOST,
        help=f"bind address (default: {DEFAULT_HOST})",
    )
    serve_cmd.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"bind port, 0 picks a free one (default: {DEFAULT_PORT})",
    )
    serve_cmd.add_argument(
        "--cache-dir", default=None,
        help="persistent result-cache directory; a restarted server "
             "warm-starts from the sidecar",
    )
    serve_cmd.add_argument(
        "--chunk-size", type=int, default=None,
        help="engine chunk size for served workloads",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for served workloads",
    )
    serve_cmd.add_argument(
        "--rewarm-top", type=int, default=DEFAULT_REWARM_TOP,
        help="after a POST /v1/update, re-warm this many of the hottest "
             "logged query keys against the new graph version in the "
             f"background; 0 disables (default: {DEFAULT_REWARM_TOP})",
    )
    serve_cmd.add_argument(
        "--coordinator", action="store_true",
        help="serve as a shard-tier coordinator: engine-backed "
             "/v1/batch workloads are partitioned into world ranges "
             "and fanned out to the --shards workers, with integer "
             "hit counts merged exactly (see docs/distributed.md)",
    )
    serve_cmd.add_argument(
        "--shards", default=None, metavar="HOST:PORT,HOST:PORT,...",
        help="comma-separated shard worker addresses (plain `repro "
             "serve` processes over the same dataset, scale, and "
             "seed); requires --coordinator",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true",
        help="log one line per handled HTTP request",
    )

    datasets = commands.add_parser("datasets", help="Table 2 dataset summary")
    datasets.add_argument("--scale", choices=SCALES, default="tiny")
    datasets.add_argument("--seed", type=int, default=0)

    topk = commands.add_parser("topk", help="top-k reliable targets")
    _add_dataset_arguments(topk)
    topk.add_argument("--source", type=int, required=True)
    topk.add_argument("-k", type=int, default=10)
    topk.add_argument("--samples", "-K", type=int, default=500)

    bounds = commands.add_parser(
        "bounds", help="polynomial-time reliability bracket"
    )
    _add_dataset_arguments(bounds)
    bounds.add_argument("--source", type=int, required=True)
    bounds.add_argument("--target", type=int, required=True)

    recommend = commands.add_parser(
        "recommend", help="walk the paper's decision tree (Fig. 18)"
    )
    recommend.add_argument(
        "--memory-limited", action="store_true",
        help="follow the small-memory branch",
    )
    recommend.add_argument(
        "--lowest-variance", action="store_true",
        help="prefer the variance-reduced estimators",
    )
    recommend.add_argument(
        "--latency-tolerant", action="store_true",
        help="accept slower queries on the small-memory branch",
    )
    recommend.add_argument(
        "--max-hops", type=int, default=None,
        help="d-hop bound (§2.9) on the intended queries: restricts the "
             "recommendation to the engine-served methods that can "
             "honour it",
    )

    lint = commands.add_parser(
        "lint",
        help="static invariant analyzer (determinism, locks)",
    )
    from repro.analysis.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint)

    study = commands.add_parser(
        "study", help="miniature convergence study on one dataset"
    )
    _add_dataset_arguments(study)
    study.add_argument("--pairs", type=int, default=4)
    study.add_argument("--repeats", type=int, default=4)
    study.add_argument("--kmax", type=int, default=750)
    study.add_argument(
        "--estimators", nargs="+", choices=PAPER_ESTIMATORS,
        default=["mc", "rhh", "rss"],
    )
    return parser


# ----------------------------------------------------------------------
# Shared adapter plumbing
# ----------------------------------------------------------------------


def _open_service(
    args: argparse.Namespace,
    service_cls=ReliabilityService,
    **options,
) -> ReliabilityService:
    """The one place a command obtains its facade.

    ``service_cls`` lets ``repro serve --coordinator`` substitute the
    distributed facade while keeping one construction/error path.
    """
    try:
        return service_cls.from_dataset(
            args.dataset, args.scale, args.seed, **options
        )
    except ReliabilityError as error:
        raise SystemExit(f"repro {args.command}: {error}") from None


def _engine_options(args: argparse.Namespace) -> dict:
    """The service configuration ``batch``, ``warm`` and ``serve`` take."""
    return dict(
        cache_dir=args.cache_dir,
        chunk_size=args.chunk_size,
        workers=args.workers,
    )


def _parse_query_file(path: str) -> Tuple[QuerySpec, ...]:
    """Read a workload file: JSON entries/objects, or 's t [K [d]]' lines.

    JSON bodies go through the same :func:`repro.api.coerce_query_specs`
    reader the HTTP endpoints use, so the file format and the wire
    format accept exactly the same entries.  Entries without a budget or
    hop bound inherit the request-level ``--samples`` / ``--max-hops``
    defaults when the service resolves the workload.
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith(("[", "{")):
        try:
            return coerce_query_specs(json.loads(stripped))
        except InvalidQueryError as error:
            raise InvalidQueryError(f"{path}: {error}") from None
    queries = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (2, 3, 4):
            raise InvalidQueryError(
                f"{path}:{line_number}: expected "
                f"'source target [samples [max_hops]]', got {line!r}"
            )
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            raise InvalidQueryError(
                f"{path}:{line_number}: non-numeric value in {line!r}"
            ) from None
        queries.append(
            QuerySpec(
                source=numbers[0],
                target=numbers[1],
                samples=numbers[2] if len(numbers) >= 3 else None,
                max_hops=numbers[3] if len(numbers) == 4 else None,
            )
        )
    return tuple(queries)


def _emit_report(report: dict, output: str, summary: str) -> None:
    payload = json.dumps(report, indent=2)
    if output == "-":
        print(payload)
    else:
        Path(output).write_text(payload + "\n", encoding="utf-8")
        print(summary)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def _command_estimate(args: argparse.Namespace) -> int:
    service = _open_service(args)
    try:
        response = service.estimate(
            EstimateRequest(
                source=args.source,
                target=args.target,
                samples=args.samples,
                method=args.method,
            )
        )
    except ReliabilityError as error:
        raise SystemExit(f"repro estimate: {error}") from None
    finally:
        service.close()
    if response.routing is not None:
        print(
            f"routed --method auto -> {response.method} "
            f"({response.routing['reason']})"
        )
    print(
        f"{response.method_display} on {service.dataset.title} "
        f"({args.scale}): R({args.source}, {args.target}) "
        f"~= {response.estimate:.6f}  [K={args.samples}]"
    )
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    request = BatchRequest(
        queries=_parse_query_file(args.queries),
        method=args.method,
        samples=args.samples,
        max_hops=args.max_hops,
    )
    # The service states every request rule, once and in field terms;
    # checking the graph-free ones here just fails before the dataset
    # loads.  The one rule of this adapter's own is about a flag that is
    # no request field.
    try:
        ReliabilityService.check_batch_request(request)
    except ReliabilityError as error:
        raise SystemExit(f"repro batch: {error}") from None
    if (
        args.cache_dir is not None
        and args.method != AUTO_METHOD
        and ReliabilityService.batch_path_of(args.method)
        not in FAST_BATCH_PATHS
    ):
        raise SystemExit(
            "repro batch: --cache-dir rides on a batch fast path "
            "(--method mc, bfs_sharing, or prob_tree); the per-query "
            "loop has no exact cache key"
        )
    service = _open_service(args, **_engine_options(args))
    try:
        response = service.estimate_batch(request)
    except ReliabilityError as error:
        raise SystemExit(f"repro batch: {args.queries}: {error}") from None
    finally:
        service.close()
    _emit_report(
        response.to_dict(),
        args.output,
        f"wrote {len(response.results)} results to {args.output}",
    )
    return 0


def _command_warm(args: argparse.Namespace) -> int:
    queries = _parse_query_file(args.queries)
    service = _open_service(args, **_engine_options(args))
    try:
        response = service.warm(
            WarmRequest(
                queries=queries, samples=args.samples, max_hops=args.max_hops
            )
        )
    except ReliabilityError as error:
        raise SystemExit(f"repro warm: {args.queries}: {error}") from None
    finally:
        service.close()
    report = {"dataset": args.dataset, "scale": args.scale}
    report.update(response.to_dict())
    _emit_report(
        report,
        args.output,
        f"warmed {response.newly_written} of {response.unique_queries} "
        f"unique queries into {args.cache_dir}",
    )
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    if args.rewarm_top < 0:
        raise SystemExit(
            f"repro serve: --rewarm-top must be zero (disabled) or "
            f"positive, got {args.rewarm_top}"
        )
    if args.coordinator and not args.shards:
        raise SystemExit(
            "repro serve: --coordinator needs --shards "
            "host:port,host:port,..."
        )
    if args.shards and not args.coordinator:
        raise SystemExit(
            "repro serve: --shards only applies to a coordinator; "
            "add --coordinator"
        )
    options = _engine_options(args)
    service_cls = ReliabilityService
    if args.coordinator:
        from repro.distributed import (
            CoordinatedReliabilityService,
            parse_shard_list,
        )

        try:
            options["shards"] = parse_shard_list(args.shards)
        except ValueError as error:
            raise SystemExit(f"repro serve: --shards: {error}") from None
        service_cls = CoordinatedReliabilityService
    service = _open_service(args, service_cls, **options)

    def announce(server) -> None:
        title = service.dataset.title
        role = "coordinating" if args.coordinator else "serving"
        print(
            f"{role} {title} ({args.scale}, seed={args.seed}) "
            f"on {server.url}",
            flush=True,
        )
        if args.coordinator:
            shard_urls = [
                member.url for member in service.coordinator.members
            ]
            print(
                f"shards ({len(shard_urls)}): {', '.join(shard_urls)}",
                flush=True,
            )
        routes = ", ".join(
            f"{'|'.join(endpoint.verbs)} {endpoint.path}"
            for endpoint in ENDPOINT_TABLE
            if endpoint.verbs
        )
        print(f"endpoints: {routes}  (Ctrl-C to stop)", flush=True)

    serve(
        service,
        host=args.host,
        port=args.port,
        quiet=not args.verbose,
        ready_callback=announce,
        rewarm_top=args.rewarm_top,
    )
    return 0


def _command_datasets(args: argparse.Namespace) -> int:
    rows = dataset_table(args.scale, args.seed)
    print(
        format_dict_rows(
            f"Table 2: dataset properties (scale={args.scale})",
            rows,
            ["dataset", "nodes", "edges", "edge_probabilities"],
            headers=["Dataset", "#Nodes", "#Edges", "Edge probabilities"],
        )
    )
    return 0


def _command_topk(args: argparse.Namespace) -> int:
    service = _open_service(args)
    try:
        response = service.topk(
            TopKRequest(
                source=args.source,
                k=args.k,
                samples=args.samples,
            )
        )
    except ReliabilityError as error:
        raise SystemExit(f"repro topk: {error}") from None
    finally:
        service.close()
    rows = [
        [str(rank), str(node), f"{reliability:.4f}"]
        for rank, (node, reliability) in enumerate(response.ranking, start=1)
    ]
    print(
        format_table(
            f"Top-{args.k} reliable targets from node {args.source} "
            f"({service.dataset.title}, K={args.samples})",
            ["rank", "node", "reliability"],
            rows,
        )
    )
    return 0


def _command_bounds(args: argparse.Namespace) -> int:
    service = _open_service(args)
    try:
        response = service.bounds(
            BoundsRequest(source=args.source, target=args.target)
        )
    except ReliabilityError as error:
        raise SystemExit(f"repro bounds: {error}") from None
    finally:
        service.close()
    print(
        f"{service.dataset.title} ({args.scale}): "
        f"{response.lower:.6f} <= R({args.source}, {args.target}) "
        f"<= {response.upper:.6f}"
    )
    return 0


def _command_recommend(args: argparse.Namespace) -> int:
    # The static (graph-free) walk: no dataset is loaded, so there is no
    # telemetry to consult — a served instance's GET /v1/recommend is
    # the measured counterpart.
    try:
        response = ReliabilityService.recommend_static(
            RecommendRequest(
                memory_limited=args.memory_limited,
                lowest_variance=args.lowest_variance,
                latency_tolerant=args.latency_tolerant,
                max_hops=args.max_hops,
            )
        )
    except ReliabilityError as error:
        raise SystemExit(f"repro recommend: {error}") from None
    print(" -> ".join(response.path))
    print("recommended: " + ", ".join(response.display_names))
    return 0


def _command_study(args: argparse.Namespace) -> int:
    config = StudyConfig(
        dataset=args.dataset,
        scale=args.scale,
        pair_count=args.pairs,
        repeats=args.repeats,
        criterion=ConvergenceCriterion(k_start=250, k_step=250, k_max=args.kmax),
        estimators=tuple(args.estimators),
        seed=args.seed,
    )
    service = _open_service(args)
    try:
        result = service.study(config)
    except ReliabilityError as error:
        raise SystemExit(f"repro study: {error}") from None
    finally:
        service.close()
    print(
        format_dict_rows(
            f"Accuracy, {result.dataset.title} ({args.scale})",
            result.accuracy_rows(),
            ["estimator", "K_conv", "R_conv", "RE_conv_%", "R_1000", "RE_1000_%"],
        )
    )
    print()
    print(
        format_dict_rows(
            f"Running time, {result.dataset.title} ({args.scale})",
            result.runtime_rows(),
            ["estimator", "K_conv", "time_conv_s", "time_1000_s", "ms_per_sample"],
        )
    )
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    # Lazy import: the analyzer is tooling, not the serving path, and
    # the CLI stays a pure facade adapter for everything else.
    from repro.analysis.cli import run_lint

    return run_lint(
        paths=args.paths,
        changed=args.changed,
        output_format=args.output_format,
    )


_COMMANDS = {
    "estimate": _command_estimate,
    "batch": _command_batch,
    "warm": _command_warm,
    "serve": _command_serve,
    "datasets": _command_datasets,
    "topk": _command_topk,
    "bounds": _command_bounds,
    "recommend": _command_recommend,
    "study": _command_study,
    "lint": _command_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
