"""The four workloads: served data, request streams and answer references.

Each workload is a pure function of ``(seed, seconds)``: the datasets,
the operation sequence and every request body are fixed by them and
encoded before the server starts.  ``seconds`` only scales how many
operations a run holds (each rate below is calibrated to fill about
``seconds`` on a 2-CPU machine), so nothing that depends on timing
decides how much work a run does.  Every run holds at least
``MIN_REQUESTS`` requests, so at least ten latency samples lie beyond
p90.

After the measured phase, :class:`References` recomputes every answer
in-process with independent pipelines and counts each mismatch,
non-200 reply or in-band error as a failed answer.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from client import encode_request
from repro.abductive import minimum_sufficient_reason
from repro.counterfactual import closest_counterfactual
from repro.knn import Dataset, MultiClassDataset, MultiClassEngine, QueryEngine
from repro.serve.cache import dataset_fingerprint
from repro.serve.http import jsonable

#: fewest requests in a run: ten samples beyond p90.
MIN_REQUESTS = 100

#: batch methods the bulk envelopes rotate through.
BATCH_ROTATION = ("classify", "margin", "radii")

#: fixed seed of solver_mix's served data and instance pools (see there).
SOLVER_DATA_SEED = 20250601


@dataclass
class Lineage:
    """One registered dataset: its reference copy and setup requests."""

    name: str
    dataset: Dataset | MultiClassDataset
    metric: str
    fingerprint: str
    register: bytes
    warmup: bytes


@dataclass
class Op:
    """One request of the measured phase and what checking it needs.

    ``version`` is the lineage version a query reads, or the version a
    mutation creates.
    """

    raw: bytes
    request_id: str
    lineage: str
    kind: str  # "explain", "add" or "remove"
    answers: int
    method: str = ""
    params: dict = field(default_factory=dict)
    instances: np.ndarray | None = None
    points: list | None = None
    labels: list | None = None
    version: int = 0


@dataclass
class Plan:
    """A workload instance: server flags, lineages, one op list per client."""

    flags: list[str]
    durable: bool
    lineages: dict[str, Lineage]
    clients: list[list[Op]]


def _count(rate: float, seconds: int) -> int:
    return max(MIN_REQUESTS, round(rate * seconds))


def _lineage(name: str, dataset, metric: str, body: dict, warm: np.ndarray) -> Lineage:
    fingerprint = dataset_fingerprint(dataset)
    warmup = {
        "fingerprint": fingerprint,
        "method": "classify",
        "instances": warm.tolist(),
        "params": {"k": 1, "metric": metric},
    }
    return Lineage(
        name,
        dataset,
        metric,
        fingerprint,
        encode_request("POST", "/v2/datasets", body, f"register-{name}"),
        encode_request("POST", "/v2/explain", warmup, f"warmup-{name}"),
    )


def _binary_lineage(name: str, rng, rows: int, dim: int) -> Lineage:
    """A binary Hamming lineage, half positives and half negatives."""
    points = rng.integers(0, 2, size=(rows, dim))
    pos, neg = points[: rows // 2].tolist(), points[rows // 2 :].tolist()
    dataset = Dataset(pos, neg, discrete=True)
    body = {"positives": pos, "negatives": neg, "discrete": True}
    return _lineage(name, dataset, "hamming", body, rng.integers(0, 2, size=(1, dim)))


def _l2_lineage(name: str, rng, rows: int, dim: int) -> Lineage:
    """A continuous l2 lineage, half positives and half negatives."""
    points = rng.normal(size=(rows, dim))
    pos, neg = points[: rows // 2].tolist(), points[rows // 2 :].tolist()
    dataset = Dataset(pos, neg)
    body = {"positives": pos, "negatives": neg}
    return _lineage(name, dataset, "l2", body, rng.normal(size=(1, dim)))


def _multiclass_lineage(name: str, rng, rows: int, dim: int, classes: int) -> Lineage:
    """A binary-feature multiclass lineage with uniformly drawn labels."""
    points = rng.integers(0, 2, size=(rows, dim)).tolist()
    labels = rng.integers(0, classes, size=rows).tolist()
    dataset = MultiClassDataset(points, labels, discrete=True)
    body = {"points": points, "labels": labels, "discrete": True}
    return _lineage(name, dataset, "hamming", body, rng.integers(0, 2, size=(1, dim)))


def _explain(lineage: Lineage, method: str, params: dict, instances, request_id: str,
             version: int = 0) -> Op:
    instances = np.asarray(instances)
    body = {
        "fingerprint": lineage.fingerprint,
        "method": method,
        "instances": instances.tolist(),
        "params": params,
    }
    return Op(
        encode_request("POST", "/v2/explain", body, request_id),
        request_id,
        lineage.name,
        "explain",
        len(instances),
        method=method,
        params=params,
        instances=instances,
        version=version,
    )


def bulk_classify(seed: int, seconds: int) -> Plan:
    """512-instance envelopes rotating classify, margin and radii at k=3.

    A quarter of every envelope is a fixed hot set, so the result cache
    serves hits beside misses; per-instance work dominates.
    """
    rng = np.random.default_rng([seed, 1])
    lineage = _binary_lineage("bulk", rng, 5000, 64)
    hot = rng.integers(0, 2, size=(128, 64))
    ops = []
    for i in range(_count(10.5, seconds)):
        instances = np.vstack([hot, rng.integers(0, 2, size=(384, 64))])
        ops.append(
            _explain(lineage, BATCH_ROTATION[i % 3], {"k": 3},
                     instances[rng.permutation(512)], f"bulk-{i}")
        )
    return Plan([], False, {lineage.name: lineage}, [ops])


def lone_classify(seed: int, seconds: int) -> Plan:
    """Two clients, one connection each, sending single fresh classifies.

    Per-request fixed costs dominate; the two clients let the server
    coalesce concurrent requests into one engine call.
    """
    rng = np.random.default_rng([seed, 2])
    lineage = _binary_lineage("lone", rng, 5000, 64)
    per_client = (_count(41.0, seconds) + 1) // 2
    clients = [
        [
            _explain(lineage, "classify", {"k": 3},
                     rng.integers(0, 2, size=(1, 64)), f"lone-{c}-{i}")
            for i in range(per_client)
        ]
        for c in range(2)
    ]
    return Plan([], False, {lineage.name: lineage}, clients)


def solver_mix(seed: int, seconds: int) -> Plan:
    """Single-instance portfolio solves of the paper's hard cells.

    Minimum-SR and Hamming counterfactuals at k=1 on three 10-feature
    lineages (16 points per class) and l2 counterfactuals on a 6-feature
    lineage (30 per class), plus exact repeats answered from the cache.
    One solve costs from a few ms to over a second depending on the
    instance, so the served data and the instance pools are fixed
    (``SOLVER_DATA_SEED``) and every run solves the same multiset;
    ``seed`` draws the order and which earlier requests repeat.  The
    class shares put p50 inside the Hamming counterfactuals and p90
    inside the l2 counterfactuals.
    """
    data = np.random.default_rng(SOLVER_DATA_SEED)
    hamming = [_binary_lineage(f"hamming{j}", data, 32, 10) for j in range(3)]
    l2 = _l2_lineage("l2", data, 60, 6)
    pools = [data.permutation(1024) for _ in hamming]
    scale = max(1.0, seconds / 11.0)  # at 1.0 a run holds 104 requests
    n_msr, n_hcf = round(4 * scale), round(60 * scale)
    n_l2, n_repeat = round(15 * scale), round(25 * scale)
    bits = 1 << np.arange(9, -1, -1)
    params = {"k": 1, "metric": "hamming", "solver": "portfolio"}
    base = []
    for i in range(n_msr + n_hcf):
        j = i % 3
        code = pools[j][i // 3]
        method = "minimum_sr" if i < n_msr else "counterfactual"
        base.append((hamming[j], method, params, ((code & bits) > 0).astype(int)[None, :]))
    l2_params = {"k": 1, "metric": "l2", "solver": "portfolio"}
    base += [(l2, "counterfactual", l2_params, data.normal(size=(1, 6))) for _ in range(n_l2)]
    rng = np.random.default_rng([seed, 3])
    sequence = [base[i] for i in rng.permutation(len(base))]
    for _ in range(n_repeat):
        at = int(rng.integers(1, len(sequence) + 1))
        sequence.insert(at, sequence[int(rng.integers(0, at))])
    ops = [
        _explain(lineage, method, p, x, f"solver-{i}")
        for i, (lineage, method, p, x) in enumerate(sequence)
    ]
    lineages = {lin.name: lin for lin in (*hamming, l2)}
    return Plan([], False, lineages, [ops])


def mutate_stream(seed: int, seconds: int) -> Plan:
    """Reads beside writes on a 2-worker, 2-replica durable cluster.

    A fixed interleaving of three 32-instance classify/radii envelopes
    per 4-point mutation batch, over a binary and a 5-class lineage.
    Two additions per removal; each removal takes back the oldest
    outstanding addition.  Half of each envelope is a per-lineage hot
    set, so hits sit beside the misses that each ``@vN`` bump causes.
    """
    rng = np.random.default_rng([seed, 4])
    lineages = [
        _binary_lineage("binary", rng, 4000, 64),
        _multiclass_lineage("multiclass", rng, 3000, 48, 5),
    ]
    dims = {"binary": 64, "multiclass": 48}
    classes = {"binary": 2, "multiclass": 5}
    hot = {lin.name: rng.integers(0, 2, size=(16, dims[lin.name])) for lin in lineages}
    version = {lin.name: 0 for lin in lineages}
    mutations = {lin.name: 0 for lin in lineages}
    outstanding = {lin.name: deque() for lin in lineages}
    queries = 0
    ops = []
    for i in range(_count(19.0, seconds)):
        if i % 4 == 3:
            lineage = lineages[(i // 4) % 2]
            name = lineage.name
            if mutations[name] % 3 == 2:
                kind, verb = "remove", "DELETE"
                points, labels = outstanding[name].popleft()
            else:
                kind, verb = "add", "POST"
                points = rng.integers(0, 2, size=(4, dims[name])).tolist()
                labels = rng.integers(0, classes[name], size=4).tolist()
                outstanding[name].append((points, labels))
            mutations[name] += 1
            version[name] += 1
            body = {"points": points, "labels": labels}
            path = f"/v2/datasets/{lineage.fingerprint}/points"
            ops.append(Op(
                encode_request(verb, path, body, f"mutate-{i}"), f"mutate-{i}",
                name, kind, 1, points=points, labels=labels, version=version[name],
            ))
        else:
            lineage = lineages[queries % 2]
            method = ("classify", "radii")[(queries // 2) % 2]
            queries += 1
            fresh = rng.integers(0, 2, size=(16, dims[lineage.name]))
            instances = np.vstack([hot[lineage.name], fresh])[rng.permutation(32)]
            ops.append(_explain(lineage, method, {"k": 3}, instances, f"query-{i}",
                                version=version[lineage.name]))
    flags = ["--workers", "2", "--replicas", "2", "--snapshot-every", "16"]
    return Plan(flags, True, {lin.name: lin for lin in lineages}, [ops])


WORKLOADS = {
    "bulk_classify": bulk_classify,
    "lone_classify": lone_classify,
    "solver_mix": solver_mix,
    "mutate_stream": mutate_stream,
}


def _canon(payload) -> str:
    return json.dumps(jsonable(payload), sort_keys=True)


class References:
    """Independent in-process answers for every op of a plan.

    * batch methods: a dense-backend engine (the server auto-selects
      bitpack for binary Hamming data, so this is a cross-backend check);
    * Hamming Minimum-SR and counterfactuals: the brute pipelines, which
      the portfolio's canonical witness must equal bit for bit;
    * l2 counterfactuals: the ``l2-qp`` pipeline;
    * mutations: a ``with_added``/``with_removed`` fold of the lineage,
      with fresh engines per version and the returned ``@vN`` checked.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.folds = {name: [lin.dataset] for name, lin in plan.lineages.items()}
        self.engines: dict[str, tuple[int, object]] = {}
        self.solved: dict[tuple, dict] = {}

    def failed(self, op: Op, status: int, body: bytes) -> int:
        """How many of *op*'s answers are wrong (all of them on a bad reply)."""
        if op.kind != "explain":
            return int(not self._mutation_ok(op, status, body))
        if status != 200:
            return op.answers
        results = json.loads(body).get("results")
        if not isinstance(results, list) or len(results) != op.answers:
            return op.answers
        wrong = 0
        for item, want in zip(results, self._expected(op)):
            got = item.get("result", {})
            if "error" in got:
                wrong += 1
            elif op.method in BATCH_ROTATION:
                wrong += _canon(got) != _canon(want)
            else:
                subset = {key: got.get(key) for key in want}
                wrong += _canon(subset) != _canon(want) or got.get("exact") is not True
        return wrong

    def _mutation_ok(self, op: Op, status: int, body: bytes) -> bool:
        """Fold the mutation into the reference, then check the reply."""
        fold = self.folds[op.lineage]
        step = fold[-1].with_added if op.kind == "add" else fold[-1].with_removed
        fold.append(step(op.points, op.labels))
        if status != 200:
            return False
        reply = json.loads(body)
        data = fold[op.version]
        if isinstance(data, MultiClassDataset):
            counts = {"counts": {str(c): int(n) for c, n in data.counts.items()}}
        else:
            counts = {"n_positive": data.n_positive, "n_negative": data.n_negative}
        base = self.plan.lineages[op.lineage].fingerprint
        return (
            reply.get("fingerprint") == f"{base}@v{op.version}"
            and reply.get("version") == op.version
            and all(reply.get(key) == value for key, value in counts.items())
        )

    def _engine(self, name: str, version: int):
        cached = self.engines.get(name)
        if cached is None or cached[0] != version:
            data = self.folds[name][version]
            metric = self.plan.lineages[name].metric
            cls = MultiClassEngine if isinstance(data, MultiClassDataset) else QueryEngine
            cached = self.engines[name] = (version, cls(data, metric, backend="dense"))
        return cached[1]

    def _expected(self, op: Op) -> list[dict]:
        if op.method in BATCH_ROTATION:
            return _batch_payloads(self._engine(op.lineage, op.version), op)
        lineage = self.plan.lineages[op.lineage]
        return [self._solve(lineage, op.method, x) for x in op.instances]

    def _solve(self, lineage: Lineage, method: str, x: np.ndarray) -> dict:
        key = (lineage.name, method, x.tobytes())
        if key not in self.solved:
            data = lineage.dataset
            if method == "minimum_sr":
                answer = minimum_sufficient_reason(data, 1, "hamming", x, method="brute")
                payload = {"X": sorted(int(i) for i in answer.X), "size": int(answer.size)}
            else:
                solver = "hamming-brute" if lineage.metric == "hamming" else "l2-qp"
                answer = closest_counterfactual(data, 1, lineage.metric, x, method=solver)
                payload = {
                    "found": answer.found,
                    "y": None if answer.y is None else [float(v) for v in answer.y],
                    "distance": float(answer.distance),
                    "label_from": int(answer.label_from),
                }
            self.solved[key] = payload
        return self.solved[key]


def _batch_payloads(engine, op: Op) -> list[dict]:
    """The service's payload shapes for a classify, margin or radii envelope."""
    x, k = op.instances, op.params["k"]
    if op.method == "classify":
        return [{"label": int(v)} for v in engine.classify_batch(x, k)]
    if isinstance(engine, MultiClassEngine):
        classes = [str(c) for c in engine.classes]
        if op.method == "margin":
            return [{"margins": dict(zip(classes, map(float, row)))}
                    for row in engine.class_margins_batch(x, k)]
        radii, rest = engine.class_radii_batch(x, k)
        return [
            {"r_pos": dict(zip(classes, map(float, r))),
             "r_neg": dict(zip(classes, map(float, s)))}
            for r, s in zip(radii, rest)
        ]
    if op.method == "margin":
        return [{"margin": float(v)} for v in engine.margins_batch(x, k)]
    r_pos, r_neg = engine.radii_batch(x, k)
    return [{"r_pos": float(p), "r_neg": float(n)} for p, n in zip(r_pos, r_neg)]
