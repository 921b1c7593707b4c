"""Command-line front end: ``python -m repro`` / ``repro-knn``.

Subcommands
-----------
``table1``
    print the complexity-results table (paper Table 1);
``figure <id>``
    regenerate one of the paper's runtime figures as a text table
    (``fig5a``, ``fig5b``, ``fig6a``, ``fig6b``), with optional
    ``--repeats``, ``--seed``, ``--workers`` (process-pool grid
    sharding) and ``--json`` (sweep rows as JSON);
``explain``
    run an explanation query on a randomly generated dataset — a smoke
    test showing the three pipelines end to end (``--backend`` selects
    the engine's index backend, ``--solver`` the Minimum-SR pipeline —
    including ``portfolio``, which races every applicable solver under
    the per-method ``--budget`` and falls back to the greedy anytime
    answer on all-timeout);
``bench``
    measure the headline benchmark workloads and gate them: each gated
    workload must reach its floor in ``experiments/bench.py::FLOORS``
    and, with ``--baseline``, stay within ``--max-regression`` of a
    committed baseline — the CI ``bench-baseline`` job runs
    ``bench --json BENCH_pr.json --baseline benchmarks/BENCH_baseline.json``;
``serve``
    start the long-lived explanation service (:mod:`repro.serve`) on a
    stdlib HTTP endpoint: datasets are registered over ``POST
    /v2/datasets``, explanations answered (micro-batched and cached)
    over ``POST /v2/explain``; ``--state-dir`` makes every dataset
    lineage durable (WAL + snapshots, restored on restart) and ``GET
    /metrics`` exposes Prometheus series — see the README's "Serving
    explanations" quickstart, ``docs/architecture.md``, and
    ``docs/operations.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

import numpy as np

from .abductive import minimal_sufficient_reason, minimum_sufficient_reason
from .counterfactual import closest_counterfactual
from .datasets import random_boolean_dataset
from .experiments import bench
from .experiments.figures import ALL_FIGURES, FigureSweepTask
from .experiments.runner import run_sweep
from .experiments.tables import render_results_table, render_table1
from .knn import QueryEngine
from .knn.engine import BACKENDS
from .portfolio import (
    portfolio_closest_counterfactual,
    portfolio_minimum_sufficient_reason,
)

#: Minimum-SR pipelines selectable with ``explain --solver``.
EXPLAIN_SOLVERS = ("auto", "milp", "sat", "brute", "portfolio")


def _cmd_table1(_args) -> int:
    print(render_table1())
    return 0


def _cmd_figure(args) -> int:
    spec = ALL_FIGURES.get(args.figure_id)
    if spec is None:
        print(f"unknown figure {args.figure_id!r}; choose from {sorted(ALL_FIGURES)}")
        return 2
    result = run_sweep(
        f"{spec.figure_id}: {spec.description}",
        spec.grid(),
        FigureSweepTask(args.figure_id, args.seed),
        repeats=args.repeats,
        verbose=True,
        workers=args.workers,
        budget=args.budget,
    )
    print()
    print(render_results_table(result))
    if args.json:
        result.save_json(args.json)
        print(f"\nwrote sweep rows to {args.json}")
    return 0


def _explain_multiclass(args, rng) -> int:
    """The ``explain --classes C`` (C > 2) path: merge-based pipelines.

    Generates a random integer-labeled boolean dataset, classifies the
    query under both vote modes, and runs the one-vs-rest explanation
    pipelines through the shared multiclass engine — the CLI twin of
    the ``/v2`` multiclass serving surface.
    """
    from .knn import MultiClass1NN

    points = rng.integers(0, 2, size=(args.size, args.dimension)).astype(float)
    labels = rng.integers(0, args.classes, size=args.size)
    labels[: args.classes] = np.arange(args.classes)  # every class inhabited
    x = rng.integers(0, 2, size=args.dimension).astype(float)
    clf = MultiClass1NN(points, labels, "hamming", backend=args.backend)
    engine = clf.engine
    print(f"dataset: {clf!r}")
    print(f"engine backend: {engine.backend}")
    print(f"query x: {x.astype(int).tolist()}")
    label = clf.classify(x)
    print(f"predicted label (1-NN): {label}")
    for vote in ("uniform", "distance"):
        marker = " <- --vote" if vote == args.vote else ""
        print(f"k=3 {vote} vote: {engine.classify(x, 3, vote=vote)}{marker}")
    msr = clf.minimal_sufficient_reason(x)
    print(f"minimal sufficient reason for label {label} vs rest "
          f"({len(msr)} of {args.dimension} features): {sorted(msr)}")
    target = args.target_label
    if target is not None and target == label:
        print(f"x already has target label {target}; finding untargeted flip")
        target = None
    cf = clf.closest_counterfactual(x, target=target)
    if cf.found:
        flipped = sorted(int(i) for i in np.flatnonzero(cf.y != x))
        goal = f"label {target}" if target is not None else "any other label"
        print(f"closest counterfactual to {goal} flips "
              f"{int(cf.distance)} feature(s): {flipped}")
    else:
        print("no counterfactual exists")
    return 0


def _cmd_explain(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.classes > 2:
        return _explain_multiclass(args, rng)
    data = random_boolean_dataset(rng, args.dimension, args.size)
    x = rng.integers(0, 2, size=args.dimension).astype(float)
    engine = QueryEngine(data, "hamming", backend=args.backend)
    print(f"dataset: {data!r}")
    print(f"engine backend: {engine.backend}")
    print(f"query x: {x.astype(int).tolist()}")
    msr = minimal_sufficient_reason(data, 1, "hamming", x, engine=engine)
    print(f"minimal sufficient reason ({len(msr)} of {args.dimension} features): "
          f"{sorted(msr)}")
    if args.solver == "portfolio":
        race = portfolio_minimum_sufficient_reason(
            data, 1, "hamming", x, budget=args.budget, engine=engine
        )
        minimum = race.answer
        budget_desc = (
            "no budget" if args.budget is None else f"{args.budget:g}s/method"
        )
        print(
            f"minimum sufficient reason ({minimum.size} features, "
            f"method={race.method}, exact={race.exact}, "
            f"{race.elapsed_s * 1000:.0f} ms, {budget_desc}): "
            f"{sorted(minimum.X)}"
        )
        for attempt in race.attempts:
            print(f"  portfolio attempt {attempt.method}: {attempt.status} "
                  f"({attempt.elapsed_s * 1000:.0f} ms)")
        cf_race = portfolio_closest_counterfactual(
            data, 1, "hamming", x, budget=args.budget, query_engine=engine
        )
        cf = cf_race.answer
        print(f"counterfactual solver: {cf_race.method} (exact={cf_race.exact})")
    else:
        minimum = minimum_sufficient_reason(
            data, 1, "hamming", x, method=args.solver, engine=engine,
            time_limit=args.budget,
        )
        print(f"minimum sufficient reason ({minimum.size} features, "
              f"method={minimum.method}): {sorted(minimum.X)}")
        cf = closest_counterfactual(
            data, 1, "hamming", x, method="hamming-milp", query_engine=engine,
            time_limit=args.budget,
        )
    if cf.found:
        flipped = sorted(int(i) for i in np.flatnonzero(cf.y != x))
        print(f"closest counterfactual flips {int(cf.distance)} feature(s): {flipped}")
    else:
        print("no counterfactual exists (single-class data)")
    return 0


def _load_baseline(path: str) -> dict:
    """Read and structurally validate a committed ``BENCH_*.json`` baseline.

    Raises SystemExit-friendly ``ValueError`` with a one-line message on
    a missing, unreadable, or malformed file — the CLI turns that into
    exit code 2 instead of a traceback.
    """
    try:
        payload = bench.load_json(path)
    except OSError as exc:
        reason = exc.strerror or exc.__class__.__name__
        raise ValueError(f"cannot read baseline {path}: {reason}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"baseline {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or not isinstance(
        payload.get("workloads"), dict
    ):
        raise ValueError(
            f"baseline {path} is not a BENCH payload (no 'workloads' table); "
            "reseed it with: repro bench --json " + path
        )
    return payload


def _cmd_bench(args) -> int:
    baseline = None
    if args.baseline:
        try:
            baseline = _load_baseline(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    payload = bench.collect(
        seed=args.seed,
        repeats=args.repeats,
        workers=args.workers,
        workloads=args.workloads or None,
        train=args.train,
        dim=args.dim,
    )
    failures = bench.compare_with_retry(
        payload, baseline, max_regression=args.max_regression
    )
    report = bench.render_report(
        payload, baseline=baseline, max_regression=args.max_regression
    )
    print(report)
    if args.json:
        bench.save_json(payload, args.json)
        print(f"\nwrote benchmark payload to {args.json}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        with open(summary_path, "a") as handle:
            handle.write("### Benchmark headlines\n\n" + report + "\n")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("\nfloor gate passed (every gated workload met its floors)")
    if baseline is not None:
        print(
            f"regression gate passed (headlines within "
            f"{args.max_regression:.0%} of baseline)"
        )
    return 0


def _build_serve_service(args):
    """The serving target the ``serve`` flags describe.

    ``--workers 1`` (the default) builds exactly the single-process
    :class:`~repro.serve.ExplanationService` this command always built —
    bit-identical behavior, regression-tested — while ``--workers N``
    (N > 1) builds a sharded
    :class:`~repro.serve.ClusterService` with ``--replicas`` read
    replicas per dataset lineage and ``--queue-depth`` admission bounds
    per worker.
    """
    from .serve import ClusterService, ExplanationService

    log_stream = None if args.no_json_logs else sys.stderr
    if args.workers <= 1:
        return ExplanationService(
            backend=args.backend,
            cache_size=args.cache_size,
            cache_dir=args.cache_dir,
            max_batch=args.max_batch,
            max_wait_s=args.max_wait_ms / 1000.0,
            state_dir=args.state_dir,
            snapshot_every=args.snapshot_every,
            log_stream=log_stream,
            solver_pool=args.solver_pool,
            parallel_portfolio=args.parallel_portfolio,
            race_workers=args.race_workers,
        )
    return ClusterService(
        workers=args.workers,
        replicas=args.replicas,
        queue_depth=args.queue_depth,
        backend=args.backend,
        cache_size=args.cache_size,
        cache_dir=args.cache_dir,
        max_batch=args.max_batch,
        state_dir=args.state_dir,
        snapshot_every=args.snapshot_every,
        log_stream=log_stream,
        solver_pool=args.solver_pool,
    )


def _interrupt(signum, frame) -> None:
    """SIGTERM handler: unwind ``repro serve`` exactly as Ctrl-C does."""
    raise KeyboardInterrupt


def _cmd_serve(args) -> int:
    """Run the explanation service until SIGINT or SIGTERM (``repro serve``).

    Both signals run the same shutdown: the HTTP server stops and the
    service closes, which reaps cluster and race workers.
    """
    from .serve import serve_http

    service = _build_serve_service(args)
    if args.workers > 1:
        print(
            f"cluster topology: {args.workers} workers, "
            f"{args.replicas} replicas/dataset, queue depth {args.queue_depth}"
        )
    if args.state_dir:
        restored = getattr(service, "restored", {}) or {}
        recovered = sum(
            1 for info in restored.values() if info.get("recovered", True)
        )
        print(
            f"durable state dir: {args.state_dir} "
            f"(restored {recovered} dataset lineage(s))"
        )
        for base, info in sorted(restored.items()):
            print(f"  {base}... -> v{info['version']}")
    if args.demo_size:
        rng = np.random.default_rng(args.seed)
        data = random_boolean_dataset(rng, args.demo_dimension, args.demo_size)
        fingerprint = service.add_dataset(data)
        print(f"demo dataset registered: {data!r}")
        print(f"  fingerprint: {fingerprint}")
    server = serve_http(service, host=args.host, port=args.port)
    print(f"serving explanations on http://{args.host}:{server.port}")
    print(
        "  POST /v2/datasets | POST /v2/explain | GET /v2/stats "
        "| GET /v2/cluster | GET /metrics | GET /healthz"
    )
    if args.demo_size:
        instance = ", ".join(
            str(int(v)) for v in rng.integers(0, 2, size=args.demo_dimension)
        )
        print(
            f"  try: curl -s http://{args.host}:{server.port}/v2/explain "
            f"-d '{{\"fingerprint\": \"{fingerprint}\", \"method\": \"classify\", "
            f"\"instances\": [[{instance}]], \"params\": {{\"k\": 3}}}}'"
        )
    # Installed after every fork, so workers keep SIGTERM's default action.
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - runs in a subprocess
        print("\nshutting down")
    finally:
        server.shutdown()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-knn",
        description="Abductive and counterfactual explanations for k-NN classifiers",
        epilog="Full docs: docs/architecture.md (module map and request flow) "
               "and docs/paper-map.md (theorem-to-code mapping).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the complexity landscape (Table 1)")

    fig = sub.add_parser("figure", help="regenerate a runtime figure as text")
    fig.add_argument("figure_id", help="fig5a | fig5b | fig6a | fig6b")
    fig.add_argument("--repeats", type=int, default=3)
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument(
        "--workers", type=int, default=1,
        help="process-pool workers sharding the sweep grid (default 1, serial)",
    )
    fig.add_argument("--json", metavar="PATH", help="also write sweep rows as JSON")
    fig.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="per-grid-point repeat budget; slow points run fewer repeats "
             "and are flagged 'truncated' (default: no budget)",
    )

    explain = sub.add_parser("explain", help="explain a random query end to end")
    explain.add_argument("--dimension", type=int, default=12)
    explain.add_argument("--size", type=int, default=30)
    explain.add_argument("--seed", type=int, default=0)
    explain.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="QueryEngine index backend (default: auto)",
    )
    explain.add_argument(
        "--solver", choices=EXPLAIN_SOLVERS, default="auto",
        help="Minimum-SR pipeline; 'portfolio' races every applicable solver "
             "under the per-method --budget (default: auto)",
    )
    explain.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="per-method time budget for --solver portfolio / time limit for "
             "a single solver (default: none)",
    )
    explain.add_argument(
        "--classes", type=int, default=2, metavar="C",
        help="number of labels; C > 2 demonstrates the multiclass merge "
             "reduction on the shared engine (default 2: binary)",
    )
    explain.add_argument(
        "--target-label", type=int, default=None, metavar="L",
        help="counterfactual target label for --classes > 2 "
             "(default: flip to any other label)",
    )
    explain.add_argument(
        "--vote", choices=("uniform", "distance"), default="uniform",
        help="k-NN vote mode highlighted in the --classes > 2 demo "
             "(default: uniform)",
    )

    bench_p = sub.add_parser(
        "bench", help="measure benchmark headlines and gate them against their "
                      "floors (and a baseline, when given)"
    )
    bench_p.add_argument("--json", metavar="PATH", help="write the BENCH payload here")
    bench_p.add_argument(
        "--baseline", metavar="PATH",
        help="gate the headline against this committed BENCH_*.json",
    )
    bench_p.add_argument(
        "--max-regression", type=float, default=bench.DEFAULT_MAX_REGRESSION,
        help="tolerated relative headline-speedup drop (default 0.25)",
    )
    bench_p.add_argument("--repeats", type=int, default=3)
    bench_p.add_argument("--seed", type=int, default=20250601)
    bench_p.add_argument(
        "--workers", type=int, default=1,
        help="process-pool workers sharding the workloads (default 1, serial)",
    )
    bench_p.add_argument(
        "--workloads", nargs="*", metavar="NAME",
        help=f"subset of workloads to run (default: all of {sorted(bench.WORKLOADS)})",
    )
    bench_p.add_argument(
        "--train", type=int, default=None, metavar="N",
        help="training-set size override for scalable workloads (currently "
             "million_point; the nightly job passes 1000000)",
    )
    bench_p.add_argument(
        "--dim", type=int, default=None, metavar="D",
        help="dimensionality override for scalable workloads (see --train)",
    )

    serve_p = sub.add_parser(
        "serve",
        help="start the batched explanation service on an HTTP endpoint",
        description="Long-lived explanation service: one warm QueryEngine per "
                    "registered dataset fingerprint, micro-batched requests, "
                    "LRU-cached answers (see docs/architecture.md).",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=8000,
        help="TCP port (0 binds an ephemeral port, printed at startup)",
    )
    serve_p.add_argument(
        "--backend", choices=BACKENDS, default="auto",
        help="QueryEngine index backend for served datasets (default: auto)",
    )
    serve_p.add_argument(
        "--cache-size", type=int, default=2048,
        help="result-cache entries kept in memory (0 disables caching)",
    )
    serve_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist cached answers here (they survive restarts)",
    )
    serve_p.add_argument(
        "--max-batch", type=int, default=256,
        help="largest micro-batch stacked into one vectorized engine call",
    )
    serve_p.add_argument(
        "--max-wait-ms", type=float, default=2.0,
        help="batching window: how long concurrent requests accumulate "
             "before a flush (default 2 ms; single-process mode only)",
    )
    serve_p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes sharding dataset lineages by fingerprint "
             "(default 1: the classic single-process service, unchanged)",
    )
    serve_p.add_argument(
        "--replicas", type=int, default=1,
        help="read replicas per dataset lineage when --workers > 1 "
             "(clamped to the worker count)",
    )
    serve_p.add_argument(
        "--queue-depth", type=int, default=64,
        help="admitted-but-unanswered requests each worker holds before "
             "shedding load with HTTP 429 (requires --workers > 1)",
    )
    serve_p.add_argument(
        "--solver-pool", type=int, default=32, metavar="N",
        help="warm cross-query SAT solvers kept per worker for the "
             "portfolio solver (0 disables pooling)",
    )
    serve_p.add_argument(
        "--parallel-portfolio", action="store_true",
        help="race the portfolio's exact methods concurrently in a "
             "process pool (first exact answer wins; answers stay "
             "bit-identical to the sequential race; single-process only)",
    )
    serve_p.add_argument(
        "--race-workers", type=int, default=None, metavar="N",
        help="race worker processes when --parallel-portfolio is set "
             "(default: min(3, cpu count))",
    )
    serve_p.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="durable state root: every registration/mutation is WAL-logged "
             "and snapshotted there, and the service restores all dataset "
             "lineages from it on startup (see docs/operations.md)",
    )
    serve_p.add_argument(
        "--snapshot-every", type=int, default=64, metavar="N",
        help="mutations between dataset+engine snapshots per lineage "
             "(0 disables snapshots; the WAL alone still restores)",
    )
    serve_p.add_argument(
        "--no-json-logs", action="store_true",
        help="suppress the structured JSON log records written to stderr",
    )
    serve_p.add_argument(
        "--demo-size", type=int, default=0, metavar="N",
        help="preload a random boolean demo dataset with N points and "
             "print its fingerprint plus a ready-to-run curl example",
    )
    serve_p.add_argument("--demo-dimension", type=int, default=12)
    serve_p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    """CLI entry point: dispatch the parsed subcommand, return its exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and args.workers > 1 and (
        args.parallel_portfolio or args.race_workers is not None
    ):
        # Cluster workers are daemonic and cannot fork race workers.
        parser.error(
            "serve: --parallel-portfolio and --race-workers are single-process "
            "only; drop them or use --workers 1"
        )
    handlers = {
        "table1": _cmd_table1,
        "figure": _cmd_figure,
        "explain": _cmd_explain,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
