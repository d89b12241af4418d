"""Command-line interface: run paper experiments from a shell.

Installed as the ``repro`` console script (also runnable as
``python -m repro``). Subcommands:

* ``repro list`` — show the available figures and datasets;
* ``repro table2`` — print the Table 2 analogue;
* ``repro figure fig1 [--datasets cdc,pus] [--scale 0.2] [--targets 2]``
  — run one paper figure and print its series;
* ``repro query topk-entropy --dataset cdc -k 4`` — run a single query
  and print the answer with run statistics; ``--timeout-ms``,
  ``--max-cells``, ``--max-sample`` bound the run (degraded answers are
  labelled with their guarantee status) and ``--strict`` turns budget
  exhaustion into a failure exit. Observability flags: ``--trace-out
  PATH`` streams the structured trace events to a JSONL file,
  ``--metrics-out PATH`` dumps the metrics registry (Prometheus text
  when the path ends in ``.prom``, JSON otherwise), and
  ``--emit-metrics`` prints a one-line metrics summary.
* ``repro query --queries plan.json`` — batch mode: plan the queries
  described in the JSON file (see ``docs/PLANNER.md``) and execute them
  over one shared scan, printing each query's answer plus shared-cost
  accounting. The budget flags apply plan-wide; trace/metrics flags
  capture the whole plan.
* ``repro store build --dataset cdc --out DIR`` / ``repro store info
  DIR`` — materialise a dataset as an on-disk memory-mapped column
  store and inspect its manifest; ``repro query ... --store mmap:DIR``
  then runs any query or plan out-of-core against it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.applications.feature_selection import mrmr_select, top_relevance_select
from repro.core import (
    PlanExecutor,
    QueryBudget,
    QuerySpec,
    load_plan,
    plan_queries,
)
from repro.core.plan import _COMBINED_KINDS
from repro.data.describe import describe_store
from repro.data.mmap_store import MmapStore
from repro.durability.atomic import atomic_write_text
from repro.experiments.figures import FIGURES, run_figure, run_table2
from repro.experiments.latex import figure_latex
from repro.experiments.persistence import load_figure_run, save_figure_run
from repro.experiments.plotting import save_figure_svg
from repro.experiments.regression import compare_runs
from repro.experiments.report import render_figure, render_table2
from repro.exceptions import ParameterError, ReproError
from repro.obs import JsonlSink, MetricsRegistry
from repro.synth.census import (
    SCENARIOS,
    generate_census,
    load_manifest,
    regenerate_from_manifest,
    write_manifest,
)
from repro.synth.datasets import DATASETS, load_dataset

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Efficient Approximate Algorithms for Empirical"
            " Entropy and Mutual Information' (SIGMOD 2021)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available figures and datasets")

    table2 = sub.add_parser("table2", help="print the Table 2 analogue")
    table2.add_argument("--scale", type=float, default=1.0)

    figure = sub.add_parser("figure", help="run one paper figure")
    figure.add_argument("figure_id", choices=sorted(FIGURES))
    figure.add_argument(
        "--datasets",
        default=None,
        help="comma-separated dataset keys (default: all four)",
    )
    figure.add_argument("--scale", type=float, default=1.0)
    figure.add_argument(
        "--targets", type=int, default=2, help="MI targets to average over"
    )
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument(
        "--target-mode", choices=["engineered", "random"], default="engineered",
        help="MI target selection (paper: random; analogues: engineered)",
    )
    figure.add_argument(
        "--svg", default=None, help="also render the series to an SVG file"
    )
    figure.add_argument(
        "--svg-metric",
        default="seconds",
        choices=["seconds", "cells_scanned", "accuracy"],
    )
    figure.add_argument(
        "--save", default=None, help="also save the raw run as JSON"
    )
    figure.add_argument(
        "--latex", default=None, help="also render the series as LaTeX tables"
    )

    compare = sub.add_parser(
        "compare", help="diff a new figure run against a saved reference"
    )
    compare.add_argument("reference", help="reference run JSON (repro figure --save)")
    compare.add_argument("candidate", help="candidate run JSON")
    compare.add_argument("--cells-tolerance", type=float, default=0.25)
    compare.add_argument("--accuracy-tolerance", type=float, default=0.02)

    query = sub.add_parser(
        "query", help="run one SWOPE query (or a --queries plan batch)"
    )
    query.add_argument(
        "kind",
        nargs="?",
        default=None,
        choices=["topk-entropy", "filter-entropy", "topk-mi", "filter-mi"],
    )
    query.add_argument(
        "--queries", default=None, metavar="PATH",
        help="batch mode: execute every query of a JSON plan file over one"
             " shared scan (mutually exclusive with the positional kind)",
    )
    query.add_argument("--dataset", choices=sorted(DATASETS), default="cdc")
    query.add_argument("--scale", type=float, default=1.0)
    query.add_argument("-k", type=int, default=4)
    query.add_argument("--eta", type=float, default=2.0)
    query.add_argument("--epsilon", type=float, default=None)
    query.add_argument("--target", default=None, help="MI target attribute")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--timeout-ms", type=float, default=None,
        help="wall-clock budget; on expiry the query returns its"
             " best-effort answer with guarantee status",
    )
    query.add_argument(
        "--max-cells", type=int, default=None,
        help="cap on attribute cells scanned by the query",
    )
    query.add_argument(
        "--max-sample", type=int, default=None,
        help="cap on the sample size the schedule may grow to",
    )
    query.add_argument(
        "--strict", action="store_true",
        help="fail (exit 2) instead of returning a degraded answer when"
             " a budget limit fires",
    )
    query.add_argument(
        "--store", default=None, metavar="SPEC",
        help="out-of-core dataset: 'mmap:DIR' opens the on-disk column"
             " store built by 'repro store build' instead of"
             " --dataset/--scale; MI queries then need an explicit"
             " --target",
    )
    query.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the query's structured trace events to PATH as JSONL"
             " (byte-stable at a fixed seed)",
    )
    query.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics to PATH (Prometheus text exposition"
             " when PATH ends in .prom, JSON otherwise)",
    )
    query.add_argument(
        "--emit-metrics", action="store_true",
        help="print a one-line metrics summary after the answer",
    )
    query.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="batch mode: durably snapshot plan progress to PATH (atomic"
             " write-rename) at plan start, iteration boundaries, and every"
             " query retirement, so a crash can resume with --resume",
    )
    query.add_argument(
        "--resume", default=None, metavar="PATH",
        help="resume an interrupted --queries batch from the checkpoint at"
             " PATH (verified against the dataset fingerprint); --queries"
             " may be omitted — the plan is recovered from the checkpoint",
    )
    query.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persistent plan cache: serve retired answers (exact and"
             " semantic-dominance matches) without re-scanning, warm-start"
             " counters, and write back converged results (default:"
             " REPRO_CACHE_DIR env var; answers are bit-identical with or"
             " without the cache)",
    )
    query.add_argument(
        "--no-cache", action="store_true",
        help="ignore --cache-dir and REPRO_CACHE_DIR for this run",
    )

    select = sub.add_parser(
        "select", help="run a feature-selection application"
    )
    select.add_argument(
        "method", choices=["relevance", "mrmr"],
        help="selection criterion",
    )
    select.add_argument("--dataset", choices=sorted(DATASETS), default="cdc")
    select.add_argument("--scale", type=float, default=0.2)
    select.add_argument("-k", type=int, default=5)
    select.add_argument("--label", default=None, help="label attribute")
    select.add_argument(
        "--engine", choices=["swope", "exact"], default="swope"
    )
    select.add_argument("--seed", type=int, default=0)

    describe = sub.add_parser(
        "describe", help="per-attribute profile of a dataset"
    )
    describe.add_argument("--dataset", choices=sorted(DATASETS), default="cdc")
    describe.add_argument("--scale", type=float, default=0.1)
    describe.add_argument("--top", type=int, default=20, help="rows to show")
    describe.add_argument("--sort", choices=["entropy", "name"], default="entropy")

    census = sub.add_parser(
        "synth-census",
        help="generate a census workload scenario (and its manifest)",
    )
    census.add_argument(
        "--scenario", choices=sorted(SCENARIOS), default=None,
        help="scenario to generate (omit with --list to browse the catalog)",
    )
    census.add_argument("--seed", type=int, default=0)
    census.add_argument("--scale", type=float, default=1.0)
    census.add_argument(
        "--manifest-out", default=None, metavar="PATH",
        help="write the provenance manifest to PATH (atomic write-rename)",
    )
    census.add_argument(
        "--verify", default=None, metavar="PATH",
        help="instead of generating: load the manifest at PATH, regenerate"
             " from its recorded (scenario, seed, scale), and check the"
             " sha256 round-trips (exit 2 on mismatch)",
    )
    census.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="print the scenario catalog and exit",
    )

    workloads = sub.add_parser(
        "workloads",
        help="run the census accuracy/performance track vs. exact baselines",
    )
    workloads.add_argument(
        "--scenarios", default=None,
        help="comma-separated scenario keys (default: all)",
    )
    workloads.add_argument(
        "--seeds", default="0",
        help="comma-separated dataset/shuffle seeds (default: 0)",
    )
    workloads.add_argument("--scale", type=float, default=1.0)
    workloads.add_argument(
        "--save", default=None, metavar="PATH",
        help="also persist the track report as JSON (atomic write-rename)",
    )
    workloads.add_argument(
        "--applications", action="store_true",
        help="also run the applications layer (feature selection + tree)"
             " on every MI-target scenario",
    )

    store_cmd = sub.add_parser(
        "store", help="build or inspect on-disk memory-mapped column stores"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    build = store_sub.add_parser(
        "build", help="materialise a dataset as an on-disk mmap store"
    )
    build.add_argument("--dataset", choices=sorted(DATASETS), default="cdc")
    build.add_argument("--scale", type=float, default=1.0)
    build.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory for the store (column .npy files + manifest.json)",
    )
    build.add_argument(
        "--chunk-rows", type=int, default=None, metavar="N",
        help="rows copied per chunk while building (bounds peak memory)",
    )
    info = store_sub.add_parser(
        "info", help="print an mmap store's manifest summary"
    )
    info.add_argument("path", metavar="DIR")
    info.add_argument(
        "--verify", action="store_true",
        help="recompute the dataset fingerprint from the column files and"
             " fail (exit 2) on mismatch",
    )
    return parser


def _cmd_list() -> int:
    print("figures:")
    for figure_id in sorted(FIGURES, key=lambda f: int(f[3:])):
        print(f"  {figure_id:6s} {FIGURES[figure_id].title}")
    print("datasets:")
    for key, plan in sorted(DATASETS.items()):
        print(
            f"  {key:5s} {plan.num_rows:>9,} rows x {plan.num_columns} columns"
            f"  (paper: {plan.paper_rows:,} x {plan.paper_columns})"
        )
    return 0


def _cmd_table2(scale: float) -> int:
    print(render_table2(run_table2(scale=scale)))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    datasets = args.datasets.split(",") if args.datasets else None
    run = run_figure(
        args.figure_id,
        datasets=datasets,
        scale=args.scale,
        num_targets=args.targets,
        seed=args.seed,
        target_mode=args.target_mode,
    )
    print(render_figure(run))
    if args.svg:
        save_figure_svg(run, args.svg, metric=args.svg_metric)
        print(f"wrote {args.svg}")
    if args.save:
        save_figure_run(run, args.save)
        print(f"wrote {args.save}")
    if args.latex:
        atomic_write_text(Path(args.latex), figure_latex(run, metric=args.svg_metric))
        print(f"wrote {args.latex}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    reference = load_figure_run(args.reference)
    candidate = load_figure_run(args.candidate)
    comparison = compare_runs(
        reference,
        candidate,
        cells_tolerance=args.cells_tolerance,
        accuracy_tolerance=args.accuracy_tolerance,
    )
    print(comparison.summary())
    return 0 if comparison.ok else 1


def _write_metrics_file(registry: MetricsRegistry, destination: str) -> None:
    """Dump a registry: Prometheus text for ``.prom`` paths, JSON otherwise."""
    path = Path(destination)
    if path.suffix == ".prom":
        atomic_write_text(path, registry.render_prometheus())
    else:
        atomic_write_text(
            path, json.dumps(registry.as_dict(), indent=2, sort_keys=True) + "\n"
        )


def _query_budget(args: argparse.Namespace) -> QueryBudget | None:
    """Assemble the budget from the ``--timeout-ms``-family flags."""
    if (
        args.timeout_ms is None
        and args.max_cells is None
        and args.max_sample is None
    ):
        return None
    return QueryBudget(
        deadline_ms=args.timeout_ms,
        max_cells=args.max_cells,
        max_sample_size=args.max_sample,
    )


def _print_answer(result, *, phases: bool = False) -> None:
    """Print one query's answer block: estimates, stats, guarantee."""
    stats = result.stats
    print(f"answer ({len(result.attributes)} attributes):")
    if isinstance(result.estimates, dict):
        estimates = [result.estimates[a] for a in result.attributes]
    else:
        estimates = result.estimates
    for est in estimates:
        print(
            f"  {est.attribute:20s} estimate={est.estimate:8.4f}"
            f"  bounds=[{est.lower:.4f}, {est.upper:.4f}]"
        )
    print(
        f"stats: M={stats.final_sample_size:,}/{stats.population_size:,}"
        f" ({stats.sample_fraction:.1%}), {stats.iterations} iterations,"
        f" {stats.cells_scanned:,} cells, {stats.wall_seconds:.3f}s"
    )
    if phases:
        print(
            f"phases: counting={stats.counting_seconds:.3f}s"
            f" bounds={stats.bounds_seconds:.3f}s loop={stats.loop_seconds:.3f}s"
        )
    status = result.guarantee
    if status is not None:
        met = "met" if status.guarantee_met else "NOT met"
        print(
            f"guarantee: {met} ({status.stopping_reason}); epsilon"
            f" requested={status.requested_epsilon:g}"
            f" achieved={status.achieved_epsilon:g}"
        )
        if status.undecided:
            print(f"  undecided: {', '.join(status.undecided)}")


def _resolve_store(args: argparse.Namespace):
    """The query's column source: an on-disk mmap store, or a synthetic dataset.

    Returns ``(store, dataset)`` where ``dataset`` is ``None`` for
    ``--store mmap:DIR`` runs (there is no synthetic Dataset wrapper, so
    MI defaults like ``dataset.mi_targets`` are unavailable).
    """
    if args.store is not None:
        kind, _, path = args.store.partition(":")
        if kind != "mmap" or not path:
            raise ParameterError(
                f"--store must look like 'mmap:DIR', got {args.store!r}"
            )
        return MmapStore.open(Path(path)), None
    dataset = load_dataset(args.dataset, scale=args.scale)
    return dataset.store, dataset


def _resolved_cache_dir(args: argparse.Namespace) -> str | None:
    """``--cache-dir`` with the ``REPRO_CACHE_DIR`` fallback, gated by ``--no-cache``."""
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return str(args.cache_dir)
    return os.environ.get("REPRO_CACHE_DIR") or None


def _cmd_query(args: argparse.Namespace) -> int:
    batch = args.queries is not None or args.resume is not None
    if batch and args.kind is not None:
        raise ParameterError(
            "pass either a query kind or a --queries/--resume batch, not both"
        )
    if not batch and args.checkpoint is not None:
        raise ParameterError(
            "--checkpoint applies to --queries batches"
            " (single queries re-run cheaply; plans are what resume saves)"
        )
    if batch:
        return _cmd_query_batch(args)
    if args.kind is None:
        raise ParameterError(
            "query needs a kind (topk-entropy, filter-entropy, topk-mi,"
            " filter-mi) or a --queries plan file"
        )
    store, dataset = _resolve_store(args)
    if dataset is not None:
        target = args.target or dataset.mi_targets[0]
    elif args.kind in ("topk-mi", "filter-mi") and args.target is None:
        raise ParameterError(
            "--store runs have no dataset default for the MI target; pass"
            " --target explicitly"
        )
    else:
        target = args.target
    budget = _query_budget(args)
    sink = JsonlSink(args.trace_out) if args.trace_out else None
    registry = (
        MetricsRegistry() if (args.metrics_out or args.emit_metrics) else None
    )
    kind, score = _COMBINED_KINDS[args.kind]
    spec = QuerySpec(
        kind=kind,
        score=score,
        k=args.k if kind == "top_k" else None,
        threshold=args.eta if kind == "filter" else None,
        epsilon=args.epsilon,
        target=target if score == "mutual_information" else None,
    )
    try:
        executor = PlanExecutor(
            store, seed=args.seed, budget=budget,
            trace=sink, metrics=registry, cache_dir=_resolved_cache_dir(args),
        )
        result = executor.execute_one(spec, strict=args.strict)
    finally:
        # Strict-mode truncation raises after the sink/registry already
        # received the degraded run — flush them so the trace and metrics
        # of a failed query still land on disk.
        if sink is not None:
            sink.close()
        if registry is not None and args.metrics_out:
            _write_metrics_file(registry, args.metrics_out)
    _print_answer(result, phases=True)
    if sink is not None:
        print(f"wrote {args.trace_out} ({sink.event_count} events)")
    if registry is not None and args.metrics_out:
        print(f"wrote {args.metrics_out}")
    if registry is not None and args.emit_metrics:
        print(
            "metrics:"
            f" queries_total={int(registry.counter('queries_total').value)}"
            f" iterations_total={int(registry.counter('iterations_total').value)}"
            " cells_scanned_total="
            f"{int(registry.counter('cells_scanned_total').value)}"
            f" trace_events={result.stats.trace_event_count}"
        )
    return 0


def _cmd_query_batch(args: argparse.Namespace) -> int:
    """Execute a ``--queries`` plan file (or resume one) over one shared scan."""
    store, _ = _resolve_store(args)
    budget = _query_budget(args)
    sink = JsonlSink(args.trace_out) if args.trace_out else None
    registry = (
        MetricsRegistry() if (args.metrics_out or args.emit_metrics) else None
    )
    cache_dir = _resolved_cache_dir(args)
    if args.resume is not None:
        if args.checkpoint is not None:
            raise ParameterError(
                "pass either --checkpoint or --resume, not both: a resumed"
                " run keeps checkpointing to the file it resumed from"
            )
        executor = PlanExecutor.resume(
            args.resume, store, trace=sink, metrics=registry,
            cache_dir=cache_dir,
        )
        plan = (
            plan_queries(store, load_plan(args.queries))
            if args.queries is not None
            else executor.resumed_plan()
        )
    else:
        specs = load_plan(args.queries)
        plan = plan_queries(store, specs)
        executor = PlanExecutor(
            store,
            seed=args.seed,
            budget=budget,
            trace=sink,
            metrics=registry,
            checkpoint_path=args.checkpoint,
            cache_dir=cache_dir,
        )
    try:
        if args.resume is not None and budget is None:
            # Let the residual budget recorded in the checkpoint apply.
            outcome = executor.execute(plan, strict=args.strict)
        else:
            outcome = executor.execute(plan, strict=args.strict, budget=budget)
    finally:
        # As in single-query mode: a strict-mode failure already streamed
        # its partial trace/metrics — flush them before propagating.
        if sink is not None:
            sink.close()
        if registry is not None and args.metrics_out:
            _write_metrics_file(registry, args.metrics_out)
    stats = outcome.stats
    source = args.store if args.store is not None else args.dataset
    print(f"plan: {len(plan)} queries over {source} (N={store.num_rows:,})")
    for spec in plan:
        name = spec.name or ""
        print(f"\n[{name}] {spec.describe()}")
        _print_answer(outcome.results[name])
    print("\nshared-scan accounting:")
    print(f"  cells scanned (plan total): {stats.cells_scanned:,}")
    if cache_dir is not None:
        saved = sum(
            result.stats.cells_saved for result in outcome.results.values()
        )
        print(f"  cells saved by cache: {saved:,}")
    for name in plan.names:
        marginal = stats.per_query_cells.get(name, 0)
        print(f"    {name:20s} +{marginal:,} cells")
    print(
        f"  sample floor reached: {stats.sample_floor:,}"
        f"/{stats.population_size:,} rows"
    )
    print(
        f"  retained counters: {len(executor.sampler.counted_attributes)}"
        " attributes"
    )
    if sink is not None:
        print(f"wrote {args.trace_out} ({sink.event_count} events)")
    if registry is not None and args.metrics_out:
        print(f"wrote {args.metrics_out}")
    if registry is not None and args.emit_metrics:
        print(
            "metrics:"
            f" plans_total={int(registry.counter('plans_total').value)}"
            f" plan_queries_total="
            f"{int(registry.counter('plan_queries_total').value)}"
            " plan_cells_scanned_total="
            f"{int(registry.counter('plan_cells_scanned_total').value)}"
            f" cache_hits_total={int(registry.counter('cache_hits_total').value)}"
            " cache_cells_saved_total="
            f"{int(registry.counter('cache_cells_saved_total').value)}"
        )
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    store = dataset.store
    label = args.label or dataset.mi_targets[0]
    selector = {
        "relevance": top_relevance_select,
        "mrmr": mrmr_select,
    }[args.method]
    result = selector(store, label, args.k, engine=args.engine, seed=args.seed)
    print(
        f"{args.method} selected {len(result.features)} features for label"
        f" {label!r} (engine: {result.engine}):"
    )
    for name in result.features:
        print(f"  {name:20s} relevance~{result.scores[name]:.4f}")
    print(f"cost: {result.cells_scanned:,} cells scanned")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale)
    profiles = describe_store(dataset.store, sort_by=args.sort)
    print(
        f"{args.dataset}: {dataset.store.num_rows:,} rows x"
        f" {dataset.store.num_attributes} attributes"
        f" (showing {min(args.top, len(profiles))})"
    )
    print(
        f"{'attribute':22s} {'support':>7s} {'seen':>6s} {'entropy':>8s}"
        f" {'norm':>5s} {'top%':>6s}"
    )
    for profile in profiles[: args.top]:
        print(
            f"{profile.attribute:22s} {profile.support_size:7d}"
            f" {profile.observed_values:6d} {profile.entropy:8.3f}"
            f" {profile.normalized_entropy:5.2f} {profile.top_share:6.1%}"
        )
    return 0


def _cmd_synth_census(args: argparse.Namespace) -> int:
    from repro.data.filters import PAPER_MAX_SUPPORT

    if args.list_scenarios:
        print("census scenarios:")
        for key in sorted(SCENARIOS):
            scenario = SCENARIOS[key]
            print(
                f"  {key:12s} {scenario.num_rows:>7,} rows x"
                f" {scenario.num_columns} columns, {len(scenario.queries)}"
                f" queries — {scenario.title}"
            )
        return 0
    if args.verify is not None:
        manifest = load_manifest(args.verify)
        dataset = regenerate_from_manifest(manifest)
        print(
            f"ok: {manifest['scenario']} seed={manifest['seed']}"
            f" scale={manifest['scale']} regenerates"
            f" {dataset.store.num_rows:,} rows with matching sha256"
            f" {dataset.fingerprint[:12]}..."
        )
        return 0
    if args.scenario is None:
        raise ParameterError(
            "synth-census needs --scenario (or --list / --verify)"
        )
    dataset = generate_census(args.scenario, seed=args.seed, scale=args.scale)
    over = [
        name
        for name in dataset.store.attributes
        if dataset.store.support_size(name) > PAPER_MAX_SUPPORT
    ]
    print(
        f"{args.scenario}: {dataset.store.num_rows:,} rows x"
        f" {dataset.store.num_attributes} columns (seed={args.seed},"
        f" scale={args.scale:g})"
    )
    print(f"sha256: {dataset.fingerprint}")
    if over:
        print(
            f"over the u={PAPER_MAX_SUPPORT} cutoff (dropped by"
            f" preprocessing): {', '.join(over)}"
        )
    for entry in dataset.manifest["columns"]:  # type: ignore[union-attr]
        print(
            f"  {entry['name']:18s} {entry['family']:15s}"
            f" u={entry['support_size']:<5d} H={entry['entropy']:7.3f}"
            f" missing={entry['missing_rate']:g} noise={entry['noise_rate']:g}"
        )
    if args.manifest_out:
        write_manifest(dataset.manifest, args.manifest_out)
        print(f"wrote {args.manifest_out}")
    return 0


def _cmd_workloads(args: argparse.Namespace) -> int:
    from repro.experiments.workloads import (
        run_census_applications,
        run_census_track,
        render_track,
        save_track_report,
    )
    from repro.synth.census import get_scenario

    scenarios = args.scenarios.split(",") if args.scenarios else None
    seeds = tuple(int(s) for s in args.seeds.split(","))
    report = run_census_track(scenarios, seeds=seeds, scale=args.scale)
    print(render_track(report))
    if args.save:
        save_track_report(report, args.save)
        print(f"wrote {args.save}")
    if args.applications:
        keys = report.scenarios
        for key in keys:
            if not get_scenario(key).mi_targets:
                continue
            apps = run_census_applications(
                key, seed=seeds[0], scale=args.scale
            )
            print(
                f"applications[{key}]: label={apps['label']}"
                f" selection_overlap={apps['selection_overlap']:.2f}"
                f" tree_swope={apps['tree_accuracy_swope']:.3f}"
                f" tree_exact={apps['tree_accuracy_exact']:.3f}"
            )
    return 0 if report.violation_count == 0 else 1


def _cmd_store(args: argparse.Namespace) -> int:
    if args.store_command == "build":
        dataset = load_dataset(args.dataset, scale=args.scale)
        kwargs = {}
        if args.chunk_rows is not None:
            kwargs["chunk_rows"] = args.chunk_rows
        store = MmapStore.from_column_store(
            dataset.store, Path(args.out), **kwargs
        )
        print(
            f"built {args.out}: {store.num_rows:,} rows x"
            f" {store.num_attributes} columns"
            f" ({store.disk_bytes():,} bytes on disk)"
        )
        print(f"fingerprint: {store.fingerprint()}")
        return 0
    store = MmapStore.open(Path(args.path))
    print(
        f"{args.path}: {store.num_rows:,} rows x {store.num_attributes}"
        f" columns ({store.disk_bytes():,} bytes on disk)"
    )
    print(f"fingerprint: {store.fingerprint()}")
    for name in store.attributes:
        print(
            f"  {name:20s} u={store.support_size(name)}"
            f" dtype={store.column_dtype(name).name}"
        )
    if args.verify:
        store.verify_fingerprint()
        print("fingerprint verified: column bytes match the manifest")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "table2":
            return _cmd_table2(args.scale)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "query":
            return _cmd_query(args)
        if args.command == "select":
            return _cmd_select(args)
        if args.command == "describe":
            return _cmd_describe(args)
        if args.command == "synth-census":
            return _cmd_synth_census(args)
        if args.command == "workloads":
            return _cmd_workloads(args)
        if args.command == "store":
            return _cmd_store(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0  # pragma: no cover - argparse enforces a command


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
