"""The O(batch) mutation path: engines' stores as state, a running WAL hash.

A mutation on the serve path must cost O(batch): the engines absorb the
batch incrementally, and each WAL record commits to a running multiset
hash updated from the batch alone, so neither the functional fold nor
a whole-dataset hash runs per batch.  The fold stays the reference:
everything restored from disk is held to it bit for bit.  Also pinned
here: the WAL ends at its last good record before every append (torn
tails, refused appends), a failed compaction never fails an applied
mutation, state dirs written before the hash existed still restore, and
cluster replicas take each batch together and stay in lockstep.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import sys
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.exceptions import DurabilityError, ValidationError
from repro.knn import Dataset, MultiClassDataset, MultiClassEngine, QueryEngine
from repro.knn import dataset as dataset_module
from repro.knn import multiclass_data
from repro.serve import (
    ClusterService,
    DurableStore,
    ExplanationService,
    dataset_fingerprint,
    versioned_fingerprint,
)
from repro.serve import durability
from repro.serve.durability import (
    MULTISET_SCHEME,
    WAL_NAME,
    _batch_digest,
    _multiset_digest,
    _record_checksum,
)

DIM = 6


@pytest.fixture
def binary(rng):
    return Dataset(
        rng.integers(0, 3, size=(14, DIM)).astype(float),
        rng.integers(0, 3, size=(12, DIM)).astype(float),
    )


@pytest.fixture
def multiclass(rng):
    return MultiClassDataset(
        rng.integers(0, 3, size=(30, DIM)).astype(float),
        rng.integers(0, 3, size=30),
    )


def _script(rng, data, n):
    """*n* add/remove batches over *data*: ``[(op, points, labels, mults)]``.

    Removals take back rows that exist in the fold at that point, so
    every batch applies.
    """
    n_labels = 2 if isinstance(data, Dataset) else 4  # 4: a new class appears
    script, folded = [], data
    for step in range(n):
        if step % 3 == 2:
            points, labels = _rows_of(folded, rng, 2)
            mults = [1, 1]
            folded = folded.with_removed(points, labels, mults)
            script.append(("remove", points, labels, mults))
        else:
            points = rng.integers(0, 3, size=(3, DIM)).astype(float)
            labels, mults = rng.integers(0, n_labels, size=3), rng.integers(1, 3, size=3)
            folded = folded.with_added(points, labels, mults)
            script.append(("add", points, labels, mults))
    return script


def _rows_of(data, rng, k):
    """*k* distinct (row, label) pairs present in *data*."""
    if isinstance(data, Dataset):
        pairs = [(r, 1) for r in data.positives] + [(r, 0) for r in data.negatives]
    else:
        pairs = list(zip(data.points, data.row_labels.tolist()))
    rows = list({(r.tobytes(), c): (r, c) for r, c in pairs}.values())
    picks = rng.choice(len(rows), size=k, replace=False)
    return np.array([rows[i][0] for i in picks]), [rows[i][1] for i in picks]


def _fold(data, script):
    for op, points, labels, mults in script:
        step = data.with_added if op == "add" else data.with_removed
        data = step(points, labels, mults)
    return data


def _apply(service, fp, script):
    out = None
    for op, points, labels, mults in script:
        mutate = service.add_points if op == "add" else service.remove_points
        out = mutate(fp, points, labels, mults)
    return out


def _assert_same_contents(got, want):
    assert dataset_fingerprint(got) == dataset_fingerprint(want)
    if isinstance(want, Dataset):
        np.testing.assert_array_equal(got.positives, want.positives)
        np.testing.assert_array_equal(got.negatives, want.negatives)
        np.testing.assert_array_equal(
            got.positive_multiplicities, want.positive_multiplicities
        )
    else:
        np.testing.assert_array_equal(got.points, want.points)
        np.testing.assert_array_equal(got.row_labels, want.row_labels)
        np.testing.assert_array_equal(got.multiplicities, want.multiplicities)


def _wal(state, base):
    return state / base / WAL_NAME


# -- no O(N) work per mutation ---------------------------------------------


def test_mutations_make_no_fold_and_no_whole_dataset_hash(
    rng, binary, multiclass, tmp_path, monkeypatch
):
    state = tmp_path / "state"
    service = ExplanationService(state_dir=state, snapshot_every=0)
    lineages = []
    for data in (binary, multiclass):
        fp = service.add_dataset(data)
        service.submit(fp, "classify", np.zeros(DIM), k=3)  # a warm engine
        lineages.append((fp, data, _script(rng, data, 6)))

    calls = {"fold": 0, "fingerprint": 0, "seed": 0}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    with monkeypatch.context() as patch:
        for module in (dataset_module, multiclass_data):
            patch.setattr(module, "fold_batch", counting("fold", module.fold_batch))
        patch.setattr(
            durability, "dataset_fingerprint",
            counting("fingerprint", durability.dataset_fingerprint),
        )
        patch.setattr(
            durability, "_multiset_digest",
            counting("seed", durability._multiset_digest),
        )
        for fp, _, script in lineages:
            out = _apply(service, fp, script)
            assert out["version"] == len(script)
    assert calls == {"fold": 0, "fingerprint": 0, "seed": 0}
    service.close()

    revived = ExplanationService(state_dir=state)
    for fp, data, script in lineages:
        assert versioned_fingerprint(fp, len(script)) in revived.fingerprints()
        _assert_same_contents(revived.dataset(fp), _fold(data, script))
    revived.close()


def test_mutation_without_an_engine_answers_like_the_fold(rng, binary, multiclass):
    for data in (binary, multiclass):
        service = ExplanationService()
        fp = service.add_dataset(data)  # never queried: no engine yet
        script = _script(rng, data, 5)
        replies = []
        for i in range(len(script)):
            replies.append(_apply(service, fp, script[i : i + 1]))
            folded = _fold(data, script[: i + 1])
            expected = (
                {"n_positive": folded.n_positive, "n_negative": folded.n_negative}
                if isinstance(data, Dataset)
                else {
                    "classes": [int(c) for c in folded.classes],
                    "counts": {str(c): n for c, n in folded.counts.items()},
                }
            )
            assert replies[-1] == {
                "fingerprint": versioned_fingerprint(fp, i + 1),
                "version": i + 1,
                "invalidated": 0,
                **expected,
            }
        folded = _fold(data, script)
        _assert_same_contents(service.dataset(fp), folded)
        assert service.describe(fp)["version"] == len(script)
        with pytest.raises(ValidationError, match="absent"):
            service.remove_points(fp, [[9.0] * DIM], [1])
        assert service.describe(fp)["version"] == len(script)
        engine_cls = QueryEngine if isinstance(data, Dataset) else MultiClassEngine
        reference = engine_cls(folded, "l2")
        queries = rng.integers(0, 3, size=(8, DIM)).astype(float)
        got = [service.submit(fp, "classify", x, k=3).payload["label"] for x in queries]
        assert got == [int(v) for v in reference.classify_batch(queries, 3)]
        service.close()


def test_reads_during_mutations_see_one_version_each(rng, binary):
    """Materializing readers never see a half-applied batch.

    A mutator streams batches while readers call ``dataset()``,
    ``describe()`` and ``classify`` and a late ``hamming`` engine build
    races the first batches.  Every dataset a reader gets must be one
    of the fold's versions, and every ``describe`` must report the
    counts of the version it names.
    """
    service = ExplanationService()
    fp = service.add_dataset(binary)
    script = _script(rng, binary, 24)
    folds = [binary]
    for step in script:
        folds.append(_fold(folds[-1], [step]))
    prints = {dataset_fingerprint(d): v for v, d in enumerate(folds)}
    failures: list[str] = []
    done = threading.Event()

    def reader(worker: int) -> None:
        local = np.random.default_rng(worker)
        while not done.is_set():
            try:
                if dataset_fingerprint(service.dataset(fp)) not in prints:
                    failures.append("dataset() returned no fold version")
                described = service.describe(fp)
                want = folds[described["version"]]
                if (described["n_positive"], described["n_negative"]) != (
                    want.n_positive, want.n_negative
                ):
                    failures.append(f"describe() tore v{described['version']}")
                x = local.integers(0, 3, size=DIM).astype(float)
                metric = ("l2", "hamming")[worker % 2]
                if not service.submit(fp, "classify", x, k=1, metric=metric).ok:
                    failures.append("classify failed")
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader, args=(w,)) for w in range(3)]
    try:
        for thread in threads:
            thread.start()
        _apply(service, fp, script)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
    _assert_same_contents(service.dataset(fp), folds[-1])
    assert service.stats()["engines"] == 2
    service.close()


# -- the running multiset hash ---------------------------------------------


def test_running_hash_is_a_multiset_homomorphism(rng, binary, multiclass):
    for data in (binary, multiclass):
        is_binary = isinstance(data, Dataset)
        seed = _multiset_digest(data)
        for op, points, labels, mults in _script(rng, data, 6):
            batch = _batch_digest(points, labels, mults, binary=is_binary)
            step = data.with_added if op == "add" else data.with_removed
            data = step(points, labels, mults)
            seed = seed + batch if op == "add" else seed - batch
            # The running hash equals the seed of the folded contents.
            np.testing.assert_array_equal(seed, _multiset_digest(data))


def test_running_hash_add_then_remove_restores_the_digest(rng, binary):
    seed = _multiset_digest(binary)
    points = rng.normal(size=(3, DIM))
    batch = _batch_digest(points, [1, 0, 1], [2, 1, 1], binary=True)
    np.testing.assert_array_equal((seed + batch) - batch, seed)
    folded = binary.with_added(points, [1, 0, 1], [2, 1, 1])
    back = folded.with_removed(points, [1, 0, 1], [2, 1, 1])
    np.testing.assert_array_equal(_multiset_digest(back), seed)


def test_running_hash_ignores_batch_order_but_not_contents(rng):
    points = rng.normal(size=(4, DIM))
    labels, mults = np.array([1, 0, 0, 1]), np.array([1, 2, 1, 3])
    digest = _batch_digest(points, labels, mults, binary=True)
    order = np.array([2, 0, 3, 1])
    np.testing.assert_array_equal(
        _batch_digest(points[order], labels[order], mults[order], binary=True), digest
    )
    nudged = points.copy()
    nudged[2, 4] = np.nextafter(nudged[2, 4], np.inf)
    relabeled = labels.copy()
    relabeled[0] = 0
    heavier = mults.copy()
    heavier[3] += 1
    for variant in (
        _batch_digest(nudged, labels, mults, binary=True),
        _batch_digest(points, relabeled, mults, binary=True),
        _batch_digest(points, labels, heavier, binary=True),
    ):
        assert not np.array_equal(variant, digest)
    # A binary lineage reads any truthy label as positive, as the fold does.
    np.testing.assert_array_equal(
        _batch_digest(points, np.where(labels == 1, -1, 0), mults, binary=True), digest
    )


# -- the WAL ends at its last good record ------------------------------------


def test_torn_tail_is_cut_before_the_next_append(rng, binary, tmp_path):
    state = tmp_path / "state"
    script = _script(rng, binary, 4)
    service = ExplanationService(state_dir=state, snapshot_every=0)
    fp = service.add_dataset(binary)
    _apply(service, fp, script[:2])
    service.close()
    with open(_wal(state, fp), "ab") as wal:  # a crash mid-append
        wal.write(b'{"op":"add","version":3,"points":[[0.0,')

    first = ExplanationService(state_dir=state, snapshot_every=0)
    assert first.fingerprints() == [versioned_fingerprint(fp, 2)]
    assert first.stats()["restored"][fp[:16]]["truncated"]
    _apply(first, fp, script[2:])  # acknowledged as v3 and v4
    first.close()

    second = ExplanationService(state_dir=state, snapshot_every=0)
    assert second.fingerprints() == [versioned_fingerprint(fp, 4)]
    assert not second.stats()["restored"][fp[:16]]["truncated"]
    _assert_same_contents(second.dataset(fp), _fold(binary, script))
    second.close()


def test_refused_append_leaves_no_record_behind(rng, binary, tmp_path, monkeypatch):
    state = tmp_path / "state"
    script = _script(rng, binary, 3)
    service = ExplanationService(state_dir=state, snapshot_every=0)
    fp = service.add_dataset(binary)
    _apply(service, fp, script[:1])
    real_fsync, failures = os.fsync, []

    def failing_fsync(fd):
        if not failures:
            failures.append(fd)
            raise OSError(5, "Input/output error")
        return real_fsync(fd)

    refused = (rng.integers(0, 3, size=(2, DIM)).astype(float), [1, 0])
    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(DurabilityError, match="WAL append failed"):
            service.add_points(fp, *refused)
    assert failures and service.describe(fp)["version"] == 1
    out = _apply(service, fp, script[1:])  # acknowledged as v2 and v3
    assert out["fingerprint"] == versioned_fingerprint(fp, 3)
    service.close()

    revived = ExplanationService(state_dir=state)
    assert revived.fingerprints() == [versioned_fingerprint(fp, 3)]
    assert not revived.stats()["restored"][fp[:16]]["truncated"]
    _assert_same_contents(revived.dataset(fp), _fold(binary, script))
    revived.close()


def test_append_that_cannot_be_cut_back_refuses_until_restart(
    rng, binary, tmp_path, monkeypatch
):
    state = tmp_path / "state"
    script = _script(rng, binary, 2)
    service = ExplanationService(state_dir=state, snapshot_every=0)
    fp = service.add_dataset(binary)

    def broken(*args):
        raise OSError(28, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, "fsync", broken)
        patch.setattr(os, "ftruncate", broken)
        with pytest.raises(DurabilityError):
            _apply(service, fp, script[:1])
    with pytest.raises(DurabilityError, match="refused"):
        _apply(service, fp, script[1:])
    assert service.describe(fp)["version"] == 0
    service.close()

    # The refused batch's bytes stayed on disk, so restore may replay it:
    # never acknowledged, it is legally durable, like a batch whose ack
    # a crash swallowed.  What matters is that no other batch was
    # acknowledged as its version.
    revived = ExplanationService(state_dir=state, snapshot_every=0)
    assert revived.fingerprints() == [versioned_fingerprint(fp, 1)]
    _assert_same_contents(revived.dataset(fp), _fold(binary, script[:1]))
    _apply(revived, fp, script[1:])
    revived.close()
    again = ExplanationService(state_dir=state)
    _assert_same_contents(again.dataset(fp), _fold(binary, script))
    again.close()


def test_records_past_a_snapshot_gap_stay_and_appends_are_refused(rng, binary, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=2, keep_snapshots=2)
    base = dataset_fingerprint(binary)
    store.register(base, binary)
    script, folded = _script(rng, binary, 6), binary
    for version, (op, points, labels, mults) in enumerate(script, start=1):
        folded = _fold(folded, [(op, points, labels, mults)])
        store.append_mutation(base, version, op, points, labels, mults)
        if version in (2, 4):
            store.snapshot(base, folded, version)
    store.close()
    (tmp_path / base / "snapshot-v4.pkl").write_bytes(b"not a pickle")
    wal = _wal(tmp_path, base).read_bytes()  # v5 and v6 only

    revived = DurableStore(tmp_path)
    restored = revived.restore(base)
    assert restored.version == 2 and "gap" in restored.warning
    assert _wal(tmp_path, base).read_bytes() == wal  # kept for repair
    with pytest.raises(DurabilityError, match="refused"):
        revived.append_mutation(base, 3, *script[2])
    assert _wal(tmp_path, base).read_bytes() == wal


# -- compaction ---------------------------------------------------------------


def test_failed_compaction_does_not_fail_the_mutation(rng, binary, tmp_path, monkeypatch):
    state = tmp_path / "state"
    script = _script(rng, binary, 4)
    log = io.StringIO()
    service = ExplanationService(state_dir=state, snapshot_every=2, log_stream=log)
    fp = service.add_dataset(binary)
    _apply(service, fp, script[:1])
    real_replace = os.replace

    def full_disk(src, dst):
        if os.path.basename(dst) == WAL_NAME:
            raise OSError(28, "No space left on device")
        return real_replace(src, dst)

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", full_disk)
        out = _apply(service, fp, script[1:2])  # v2: snapshot due
    assert out["fingerprint"] == versioned_fingerprint(fp, 2)
    records = [json.loads(line) for line in log.getvalue().splitlines()]
    failed = [r for r in records if r["event"] == "snapshot_failed"]
    assert failed and "compaction" in failed[0]["error"]
    assert not list((state / fp).glob("*.tmp"))
    _apply(service, fp, script[2:])  # v4: the next snapshot compacts
    service.close()

    revived = ExplanationService(state_dir=state)
    assert revived.fingerprints() == [versioned_fingerprint(fp, 4)]
    _assert_same_contents(revived.dataset(fp), _fold(binary, script))
    revived.close()


def test_compaction_reads_no_dropped_record(rng, binary, tmp_path, monkeypatch):
    state = tmp_path / "state"
    script = _script(rng, binary, 4)
    log = io.StringIO()
    service = ExplanationService(state_dir=state, snapshot_every=2, log_stream=log)
    fp = service.add_dataset(binary)

    def no_reading(self, base):
        raise AssertionError("compaction re-read the WAL")

    with monkeypatch.context() as patch:
        patch.setattr(DurableStore, "_read_records", no_reading)
        _apply(service, fp, script)
    events = [json.loads(line)["event"] for line in log.getvalue().splitlines()]
    assert "snapshot_failed" not in events
    assert service.stats()["durability"]["compactions"] == 2
    assert _wal(state, fp).read_bytes() == b""  # v4 snapshot covers it all
    service.close()
    revived = ExplanationService(state_dir=state)
    _assert_same_contents(revived.dataset(fp), _fold(binary, script))
    revived.close()


# -- state dirs written before the scheme tag --------------------------------


def _old_format_state(state, data, script, *, snapshot_at=None):
    """A state dir as written before the multiset hash: untagged records.

    Every add/remove record commits to the ordered fingerprint of the
    folded dataset; with *snapshot_at* the records up to that version
    are replaced by a snapshot of the fold there.
    """
    base = dataset_fingerprint(data)
    directory = state / base
    directory.mkdir(parents=True)
    records = [{
        "op": "register", "version": 0, "content": base,
        "dataset": {
            "positives": data.positives.tolist(),
            "negatives": data.negatives.tolist(),
            "positive_multiplicities": data.positive_multiplicities.tolist(),
            "negative_multiplicities": data.negative_multiplicities.tolist(),
            "discrete": bool(data.discrete),
        },
    }]
    folded = data
    for version, (op, points, labels, mults) in enumerate(script, start=1):
        step = folded.with_added if op == "add" else folded.with_removed
        folded = step(points, labels, mults)
        records.append({
            "op": op, "version": version, "content": dataset_fingerprint(folded),
            "points": np.asarray(points, dtype=float).tolist(),
            "labels": np.asarray(labels).astype(int).tolist(),
            "multiplicities": np.asarray(mults).tolist(),
        })
        if version == snapshot_at:
            with open(directory / f"snapshot-v{version}.pkl", "wb") as handle:
                pickle.dump({
                    "version": version, "content": dataset_fingerprint(folded),
                    "dataset": folded, "engines": {},
                }, handle)
            records = []
    lines = []
    for record in records:
        record["checksum"] = _record_checksum(record)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    (directory / WAL_NAME).write_text("".join(lines))
    return base


@pytest.mark.parametrize("snapshot_at", [None, 2], ids=["wal-only", "snapshot"])
def test_old_state_dir_restores_and_takes_tagged_records(
    rng, binary, tmp_path, snapshot_at
):
    state = tmp_path / "state"
    script = _script(rng, binary, 5)
    fp = _old_format_state(state, binary, script[:4], snapshot_at=snapshot_at)
    service = ExplanationService(state_dir=state, snapshot_every=0)
    assert service.fingerprints() == [versioned_fingerprint(fp, 4)]
    assert not service.stats()["restored"][fp[:16]]["truncated"]
    _assert_same_contents(service.dataset(fp), _fold(binary, script[:4]))
    _apply(service, fp, script[4:])  # a tagged v5 after the untagged ones
    service.close()
    tagged = json.loads(_wal(state, fp).read_bytes().splitlines()[-1])
    assert tagged["scheme"] == MULTISET_SCHEME and tagged["version"] == 5

    revived = ExplanationService(state_dir=state)
    assert revived.fingerprints() == [versioned_fingerprint(fp, 5)]
    assert not revived.stats()["restored"][fp[:16]]["truncated"]
    _assert_same_contents(revived.dataset(fp), _fold(binary, script))
    revived.close()


# -- cluster lockstep ---------------------------------------------------------


def _worker_versions(cluster):
    return [w.call("stats", force=True)["versions"] for w in cluster._workers]


def test_replicas_stay_in_lockstep_through_refused_batches(rng, binary):
    with ClusterService(workers=2, replicas=2) as cluster:
        fp = cluster.add_dataset(binary)
        script = _script(rng, binary, 4)
        _apply(cluster, fp, script[:2])
        with pytest.raises(ValidationError, match="absent"):
            cluster.remove_points(fp, [[9.0] * DIM], [1])
        with pytest.raises(ValidationError):
            cluster.add_points(fp, [[0.0] * (DIM + 1)], [1])
        out = _apply(cluster, fp, script[2:])
        assert out["fingerprint"] == versioned_fingerprint(fp, 4)
        versions = _worker_versions(cluster)
        assert versions == [{fp[:16]: 4}] * 2
        assert cluster.stats()["versions"] == {fp[:16]: 4}
        single = ExplanationService()
        single.add_dataset(binary)
        _apply(single, fp, script)
        queries = rng.integers(0, 3, size=(6, DIM)).astype(float).tolist()
        assert [r["result"] for r in cluster.explain(fp, "margin", queries, {"k": 3})] == [
            r["result"] for r in single.explain(fp, "margin", queries, {"k": 3})
        ]
        single.close()


class _Watched(Future):
    """A settled future that records whether its result was read."""

    def __init__(self, *, result=None, error=None):
        super().__init__()
        self.read = False
        if error is not None:
            self.set_exception(error)
        else:
            self.set_result(result)

    def result(self, timeout=None):
        self.read = True
        return super().result(timeout)


@pytest.mark.parametrize("failing", ["owner", "replica", "both"])
def test_divergent_replica_outcomes_warn_and_raise(binary, failing):
    log = io.StringIO()
    cluster = ClusterService(workers=2, replicas=2, log_stream=log)
    try:
        fp = cluster.add_dataset(binary)
        owner, replica = (cluster._workers[i] for i in cluster.replica_set(fp))
        errors = {
            "owner": DurabilityError("owner disk full"),
            "replica": ValidationError("replica refused"),
        }
        futures = {
            "owner": _Watched(error=errors["owner"]) if failing in ("owner", "both")
            else _Watched(result={"version": 1}),
            "replica": _Watched(error=errors["replica"]) if failing in ("replica", "both")
            else _Watched(result={"version": 1}),
        }
        owner.submit = lambda *args, **kwargs: futures["owner"]
        replica.submit = lambda *args, **kwargs: futures["replica"]
        expected = errors["replica"] if failing == "replica" else errors["owner"]
        with pytest.raises(type(expected)) as raised:
            cluster.add_points(fp, [[1.0] * DIM], [1])
        assert raised.value is expected
        assert futures["owner"].read and futures["replica"].read
        del owner.submit, replica.submit
        warnings = [
            json.loads(line) for line in log.getvalue().splitlines()
            if json.loads(line)["event"] == "replica_divergence"
        ]
        assert len(warnings) == 1
        assert warnings[0]["workers"] == [replica.index]
        assert warnings[0]["owner"] == owner.index
    finally:
        cluster.close()
