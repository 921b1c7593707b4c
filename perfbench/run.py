"""Layered benchmark of ``repro serve``: closed-loop HTTP workloads.

Run from the repository root::

    python3 perfbench/run.py --workload bulk_classify --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 16

One run of one workload:

1. builds the workload's inputs from ``--seed`` and encodes every
   request body (``workloads.py``);
2. boots ``repro serve --port 0`` once and discards it: first boots run
   on cold page and bytecode caches;
3. boots it ``SETUP_BOOTS`` times and takes the median set-up time:
   spawn, listening, lineages registered over HTTP, one warm-up answer
   per lineage; the last boot serves the measured phase;
4. drives the measured phase in a closed loop over one persistent
   keep-alive connection per client;
5. reads the server tree's peak RSS, stops it with SIGINT and checks
   that no process of its tree survives;
6. checks every answer against in-process references.

The last line of output is one JSON object: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the measured server is started through
``launcher.py``, which records spans at every layer's entry points, and
the line carries the per-layer metrics (``layers.py``) while the traced
run's end-to-end figures are printed above it.  ``--workload all`` runs
every workload untraced and then traced, prints the tracing overhead,
and repeats the traced run of the deterministic workloads to check
that their per-layer counts repeat exactly; it exits nonzero when they
do not, or when any answer is wrong or any server process leaks.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import ExitStack
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench"

#: timed boots per run; the reported set-up time is their median.
SETUP_BOOTS = 3

#: workloads whose traced per-layer counts must repeat exactly.
GUARDED = ("bulk_classify", "solver_mix", "mutate_stream")

#: end-to-end metric units, in report order.
E2E_UNITS = {
    "setup_s": "s",
    "answers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _server_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1"}


def quantile(values: list[float], p: float) -> float:
    """Harrell–Davis estimate of the *p*-quantile of *values*.

    A Beta-weighted mean of all order statistics.  While replies wait on
    the server's delayed ACK, latencies fall on the kernel's 4 ms timer
    grid; a single order statistic then jumps a whole grid step when
    the quantile sits near a step, while this estimate moves with the
    share of requests on each side of it.
    """
    ordered = np.sort(np.asarray(values, dtype=float))
    n = ordered.shape[0]
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


class Session:
    """A booted server with every lineage registered and warmed up."""

    def __init__(self, plan, argv: list[str], workdir: Path):
        from client import Connection, Server

        argv = list(argv)
        if plan.durable:
            argv += ["--state-dir", tempfile.mkdtemp(prefix="state-", dir=workdir)]
        self.server = Server(argv, cwd=ROOT, env=_server_env())
        self.conns = []
        self.stopped = False
        try:
            self.conns = [Connection(self.server.port) for _ in plan.clients]
            setup = self.conns[0]
            for lineage in plan.lineages.values():
                status, body = setup.send(lineage.register)
                if status != 200 or json.loads(body)["fingerprint"] != lineage.fingerprint:
                    raise RuntimeError(f"registering {lineage.name}: {status} {body[:300]!r}")
            for lineage in plan.lineages.values():
                status, body = setup.send(lineage.warmup)
                if status != 200 or "error" in json.loads(body)["results"][0]["result"]:
                    raise RuntimeError(f"warm-up of {lineage.name}: {status} {body[:300]!r}")
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - self.server.spawned_at
        self.boot_s = self.server.listening_at - self.server.spawned_at

    def stop(self) -> list[int]:
        """Close the connections and stop the server (once); returns leaked pids."""
        if self.stopped:
            return []
        self.stopped = True
        for conn in self.conns:
            conn.close()
        return self.server.stop()


def drive(session: Session, plan) -> tuple[int, int, list[list[tuple]]]:
    """The measured phase: each client sends its ops back to back.

    Returns ``(start_ns, end_ns, records)`` with one
    ``(sent_ns, read_ns, status, body)`` record per answered op.
    """
    records: list[list[tuple]] = [[] for _ in plan.clients]

    def client(index: int) -> None:
        conn, out = session.conns[index], records[index]
        try:
            for op in plan.clients[index]:
                sent = time.monotonic_ns()
                status, body = conn.send(op.raw)
                out.append((sent, time.monotonic_ns(), status, body))
        except (OSError, ValueError) as exc:
            print(f"perfbench: client {index} stopped: {exc}", file=sys.stderr)

    gc.collect()
    gc.disable()
    try:
        start = time.monotonic_ns()
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(plan.clients))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.monotonic_ns()
    finally:
        gc.enable()
    return start, end, records


def run(name: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    """One run of one workload; see the module docstring for its steps."""
    import layers
    from workloads import WORKLOADS, References

    # numpy seeds take non-negative entropy; this is the identity on them.
    plan = WORKLOADS[name](seed % 2**63, seconds)
    serve = [sys.executable, "-m", "repro", "serve", "--port", "0", *plan.flags]
    with ExitStack() as cleanup:

        def boot(argv: list[str]) -> Session:
            session = Session(plan, argv, workdir)
            cleanup.callback(session.stop)
            return session

        leaked = boot(serve).stop()
        sessions: list[Session] = []
        if trace:
            spans_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=workdir))
            launcher = [sys.executable, str(HERE / "launcher.py"), str(spans_dir),
                        "serve", "--port", "0", *plan.flags]
            sessions.append(boot(launcher))
        else:
            for _ in range(SETUP_BOOTS):
                if sessions:
                    leaked += sessions[-1].stop()
                sessions.append(boot(serve))
        session = sessions[-1]
        start, end, records = drive(session, plan)
        peak_rss_mb = session.server.peak_rss_mb()
        front_pid = session.server.proc.pid
        leaked += session.stop()

    references = References(plan)
    attempted = failed = answers = 0
    latencies, requests = [], []
    for ops, done in zip(plan.clients, records):
        for op, record in zip(ops, done):
            sent, read, status, body = record
            failed += references.failed(op, status, body)
            answers += op.answers
            latencies.append((read - sent) / 1e6)
            requests.append((op.request_id, sent, read))
        attempted += sum(op.answers for op in ops)
    failed += attempted - answers
    result = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "requests": len(latencies),
        "attempted": attempted,
        "failed": failed,
        "leaked": leaked,
        "e2e": {
            "setup_s": statistics.median(s.setup_s for s in sessions),
            "answers_per_s": answers / ((end - start) / 1e9),
            "latency_p50_ms": quantile(latencies, 0.5),
            "latency_p90_ms": quantile(latencies, 0.9),
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        result["layers"] = layers.layer_metrics(
            layers.Trace(spans_dir), front_pid, (start, end), requests, answers,
            session.boot_s,
        )
    return result


def final_line(result: dict) -> dict:
    """The benchmark's last output line for one run."""
    if result["trace"]:
        from layers import METRICS

        metrics = {
            name: {"value": value, "unit": METRICS[name]}
            for name, value in result["layers"].items()
        }
    else:
        metrics = {
            name: {"value": value, "unit": E2E_UNITS[name]}
            for name, value in result["e2e"].items()
        }
    return {
        "correct": result["failed"] == 0 and not result["leaked"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def report(result: dict, untraced: dict | None = None) -> None:
    """Print one run's figures by name, with units."""
    kind = "traced" if result["trace"] else "untraced"
    print(
        f"{result['workload']} seed {result['seed']} ({kind}): "
        f"{result['requests']} requests, {result['attempted']} answers attempted, "
        f"{result['failed']} failed, {len(result['leaked'])} leaked processes"
    )
    for name, value in result["e2e"].items():
        line = f"  {name:<16} {value:12.4f} {E2E_UNITS[name]}"
        if untraced is not None:
            base = untraced["e2e"][name]
            line += f"   untraced {base:12.4f}   tracing overhead {value / base - 1:+.1%}"
        print(line)
    if result["trace"]:
        from layers import METRICS

        for name, value in result["layers"].items():
            print(f"  {name:<40} {value:14.4f} {METRICS[name]}")


def run_all(seed: int, seconds: int, workdir: Path) -> int:
    """Every workload untraced, then traced; guard the deterministic counts."""
    from layers import DETERMINISTIC
    from workloads import WORKLOADS

    ok = True
    summary = {}
    for name in WORKLOADS:
        untraced = run(name, seed, seconds, False, workdir)
        report(untraced)
        traced = [
            run(name, seed, seconds, True, workdir)
            for _ in range(2 if name in GUARDED else 1)
        ]
        report(traced[0], untraced)
        drift = {}
        if len(traced) == 2:
            drift = {
                metric: [t["layers"][metric] for t in traced]
                for metric in DETERMINISTIC
                if traced[0]["layers"][metric] != traced[1]["layers"][metric]
            }
            print(f"  determinism guard: {'counts repeat exactly' if not drift else drift}")
        runs = [untraced, *traced]
        ok &= not drift and all(r["failed"] == 0 and not r["leaked"] for r in runs)
        summary[name] = {
            "e2e": untraced["e2e"],
            "traced_e2e": traced[0]["e2e"],
            "layers": traced[0]["layers"],
            "failed": sum(r["failed"] for r in runs),
            "drift": drift,
        }
    print(json.dumps({"correct": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    """Parse the arguments and run one workload (or all of them)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["bulk_classify", "lone_classify", "solver_mix",
                                 "mutate_stream", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=RUNS))
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, workdir)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        report(result)
        print(json.dumps(final_line(result)))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            RUNS.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
