"""Per-layer metrics from the spans of a traced run.

A layer's self time is its span's duration minus its child spans on
the same thread.  Per-request and per-answer figures cover the measured
phase only: spans that start and end inside it.  Set-up figures
(``register_s``, ``build_s``) cover the whole server lifetime.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

MSR_METHODS = ("milp", "sat", "brute")
CF_METHODS = ("hamming-milp", "hamming-sat", "hamming-brute", "l2-qp")

#: every per-layer metric and its unit.
METRICS = {
    "cli.boot_s": "s",
    "serve.service.register_s": "s",
    "knn.build_s": "s",
    "serve.http.wire_ms": "ms",
    "serve.http.self_ms": "ms",
    "serve.metrics.log_us": "us",
    "serve.service.wait_ms": "ms",
    "serve.service.self_us_per_answer": "us",
    "serve.service.occupancy": "answers/call",
    "serve.cache.get_us": "us",
    "serve.cache.put_us": "us",
    "serve.cache.hits": "count",
    "serve.cache.misses": "count",
    "serve.cache.invalidate_ms": "ms",
    "knn.self_us_per_answer": "us",
    "knn.batch_calls": "count",
    "knn.mutate_ms": "ms",
    "neighbors.kernel_us_per_answer": "us",
    "neighbors.kernel_calls": "count",
    "neighbors.kernel_bytes": "B",
    "portfolio.self_ms": "ms",
    "portfolio.attempts": "count",
    "portfolio.exact_attempt_ratio": "ratio",
    **{f"portfolio.wins.{m}": "count" for m in MSR_METHODS + CF_METHODS},
    **{f"abductive.solve_ms.{m}": "ms" for m in MSR_METHODS},
    **{f"counterfactual.solve_ms.{m}": "ms" for m in CF_METHODS},
    "abductive.canonical_ms": "ms",
    "counterfactual.canonical_ms": "ms",
    "solvers.sat_pool_hits": "count",
    "solvers.sat_pool_misses": "count",
    "serve.durability.append_ms": "ms",
    "serve.durability.snapshot_ms": "ms",
    "serve.durability.appends": "count",
    "serve.durability.snapshots": "count",
    "serve.cluster.pipe_ms": "ms",
    "serve.cluster.broadcast_ms": "ms",
}

#: counts that two traced runs of one seed must repeat exactly.
DETERMINISTIC = (
    "serve.cache.hits",
    "serve.cache.misses",
    "knn.batch_calls",
    "neighbors.kernel_calls",
    "portfolio.attempts",
    *(f"portfolio.wins.{m}" for m in MSR_METHODS + CF_METHODS),
    "solvers.sat_pool_hits",
    "solvers.sat_pool_misses",
    "serve.durability.appends",
    "serve.durability.snapshots",
)


class Span(NamedTuple):
    pid: int
    id: int
    name: str
    start: int
    end: int
    thread: int
    parent: int
    request: str | None
    info: object

    @property
    def dur(self) -> int:
        return self.end - self.start


class Trace:
    """Every process's spans from one traced run, indexed for analysis."""

    def __init__(self, directory: Path):
        self.spans: list[Span] = []
        self.waits: list[tuple[int, int]] = []
        for path in sorted(Path(directory).glob("spans-*.json")):
            data = json.loads(path.read_text())
            self.spans += [Span(data["pid"], *row) for row in data["spans"]]
            self.waits += [tuple(w) for w in data["waits"]]
        self.names = {(s.pid, s.id): s.name for s in self.spans}
        self.child_ns: dict[tuple[int, int], int] = defaultdict(int)
        for s in self.spans:
            if s.parent:
                self.child_ns[(s.pid, s.parent)] += s.dur

    def self_ns(self, span: Span) -> int:
        """The span's duration minus its children's."""
        return span.dur - self.child_ns[(span.pid, span.id)]

    def is_root(self, span: Span) -> bool:
        """Whether the span is not nested in a span of the same name."""
        return self.names.get((span.pid, span.parent)) != span.name


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    trace: Trace,
    front_pid: int,
    window: tuple[int, int],
    requests: list[tuple[str, int, int]],
    answers: int,
    boot_s: float,
) -> dict[str, float]:
    """Every metric of :data:`METRICS` (0 where a workload never reaches it).

    ``requests`` holds ``(request id, sent ns, reply read ns)`` for each
    client request of the measured ``window``; ``answers`` counts its
    answers.
    """
    start, end = window
    spans: dict[str, list[Span]] = defaultdict(list)
    for s in trace.spans:
        if s.start >= start and s.end <= end:
            spans[s.name].append(s)
    out = dict.fromkeys(METRICS, 0.0)
    out["cli.boot_s"] = boot_s
    out["serve.service.register_s"] = sum(
        s.dur for s in trace.spans
        if s.pid == front_pid
        and s.name in ("serve.service.add_dataset", "serve.cluster.add_dataset")
    ) / 1e9
    out["knn.build_s"] = sum(
        s.dur for s in trace.spans if s.name == "knn.build" and trace.is_root(s)
    ) / 1e9

    handles = {
        s.request: s for s in spans["serve.http.handle"] if s.pid == front_pid
    }
    out["serve.http.wire_ms"] = _mean(
        (read - sent) - handles[rid].dur
        for rid, sent, read in requests if rid in handles
    ) / 1e6
    out["serve.http.self_ms"] = _mean(trace.self_ns(s) for s in handles.values()) / 1e6
    out["serve.metrics.log_us"] = (
        sum(s.dur for s in spans["serve.metrics.log"]) / max(1, len(requests)) / 1e3
    )
    out["serve.service.wait_ms"] = _mean(
        wait for at, wait in trace.waits if start <= at <= end
    ) / 1e6
    service = [
        s for name in ("serve.service.make_request", "serve.service.submit_requests",
                       "serve.service.explain", "serve.service.mutate")
        for s in spans[name]
    ]
    out["serve.service.self_us_per_answer"] = (
        sum(trace.self_ns(s) for s in service) / max(1, answers) / 1e3
    )

    batches = spans["knn.batch"]
    roots = [s for s in batches if trace.is_root(s)]
    rows = sum(s.info for s in roots)
    out["knn.batch_calls"] = len(roots)
    out["serve.service.occupancy"] = rows / len(roots) if roots else 0.0
    out["knn.self_us_per_answer"] = (
        sum(trace.self_ns(s) for s in batches) / rows / 1e3 if rows else 0.0
    )
    out["knn.mutate_ms"] = _mean(
        s.dur for s in spans["knn.mutate"] if trace.is_root(s)
    ) / 1e6

    gets = spans["serve.cache.get"]
    out["serve.cache.get_us"] = _mean(s.dur for s in gets) / 1e3
    out["serve.cache.hits"] = sum(1 for s in gets if s.info == 1)
    out["serve.cache.misses"] = sum(1 for s in gets if s.info == 0)
    out["serve.cache.put_us"] = _mean(s.dur for s in spans["serve.cache.put"]) / 1e3
    out["serve.cache.invalidate_ms"] = _mean(
        s.dur for s in spans["serve.cache.invalidate"]
    ) / 1e6

    kernels = spans["neighbors.kernel"]
    out["neighbors.kernel_us_per_answer"] = (
        sum(s.dur for s in kernels) / max(1, answers) / 1e3
    )
    out["neighbors.kernel_calls"] = len(kernels)
    out["neighbors.kernel_bytes"] = sum(s.info or 0 for s in kernels)

    races = [s for s in spans["portfolio.race"] if s.info]
    attempts = sum(s.info[1] for s in races)
    out["portfolio.self_ms"] = _mean(trace.self_ns(s) for s in races) / 1e6
    out["portfolio.attempts"] = attempts
    out["portfolio.exact_attempt_ratio"] = (
        sum(s.info[2] for s in races) / attempts if attempts else 0.0
    )
    for method in MSR_METHODS + CF_METHODS:
        out[f"portfolio.wins.{method}"] = sum(1 for s in races if s.info[0] == method)
    for layer, methods in (("abductive", MSR_METHODS), ("counterfactual", CF_METHODS)):
        solves = spans[f"{layer}.solve"]
        for method in methods:
            out[f"{layer}.solve_ms.{method}"] = _mean(
                s.dur for s in solves if s.info == method
            ) / 1e6
        out[f"{layer}.canonical_ms"] = _mean(
            s.dur for s in spans[f"{layer}.canonical"]
        ) / 1e6

    leases = spans["solvers.lease"]
    out["solvers.sat_pool_hits"] = sum(1 for s in leases if s.info == 1)
    out["solvers.sat_pool_misses"] = sum(1 for s in leases if s.info == 0)

    for kind in ("append", "snapshot"):
        done = spans[f"serve.durability.{kind}"]
        out[f"serve.durability.{kind}_ms"] = _mean(s.dur for s in done) / 1e6
        out[f"serve.durability.{kind}s"] = len(done)

    out.update(_cluster_metrics(spans, front_pid))
    return out


def _cluster_metrics(spans: dict[str, list[Span]], front_pid: int) -> dict[str, float]:
    """Pipe time (front call minus worker service time) and broadcast time.

    A front ``explain`` is matched to its worker spans by request id; a
    front mutation, which calls the owner and then each replica, to the
    worker mutation spans inside its interval.
    """
    worker_explain: dict[str, int] = defaultdict(int)
    for s in spans["serve.service.explain"]:
        if s.pid != front_pid:
            worker_explain[s.request] += s.dur
    worker_mutate = [s for s in spans["serve.service.mutate"] if s.pid != front_pid]
    pipes = [s.dur - worker_explain[s.request] for s in spans["serve.cluster.explain"]]
    mutations = spans["serve.cluster.mutate"]
    for front in mutations:
        inside = sum(
            w.dur for w in worker_mutate if w.start >= front.start and w.end <= front.end
        )
        pipes.append(front.dur - inside)
    return {
        "serve.cluster.pipe_ms": _mean(pipes) / 1e6,
        "serve.cluster.broadcast_ms": _mean(s.dur for s in mutations) / 1e6,
    }
