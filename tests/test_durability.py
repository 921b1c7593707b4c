"""Durability layer: WAL append/replay, snapshots, and restore edge cases.

The correctness anchor throughout is the snapshot == functional-fold
fingerprint invariant from the streaming PR (``tests/test_fuzz_parity.py``):
a lineage restored from disk must carry *bit-for-bit* the same versioned
fingerprint — and answer queries identically — as a dataset built by
folding the same mutation batches through ``Dataset.with_added`` /
``Dataset.with_removed`` in memory.  The edge-case tests pin the recovery
contract: damaged tails degrade to the last good record with a structured
warning, and restore never crashes the boot.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.knn import Dataset
from repro.serve import (
    DurableStore,
    ExplanationService,
    dataset_fingerprint,
    versioned_fingerprint,
)
from repro.serve.durability import WAL_NAME, _record_checksum


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def data(rng):
    return Dataset(rng.normal(size=(12, 4)), rng.normal(size=(10, 4)))


def _batches(rng, n, dim=4, size=2):
    """Deterministic add batches: ``[(points, labels), ...]``."""
    out = []
    for _ in range(n):
        points = rng.normal(size=(size, dim))
        labels = rng.choice([1, -1], size=size)
        if not (labels == 1).any():
            labels[0] = 1
        out.append((points, labels))
    return out


def _fold(data, batches):
    """The in-memory functional reference: fold every batch in order."""
    for points, labels in batches:
        data = data.with_added(points, labels, None)
    return data


def _wal_lines(store, base):
    return (store.root / base / WAL_NAME).read_bytes().splitlines()


# -- store units -----------------------------------------------------------


def test_register_then_restore_without_snapshot(data, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=0)
    base = dataset_fingerprint(data)
    store.register(base, data)
    restored = store.restore(base)
    assert restored.dataset is not None
    assert not restored.truncated
    assert restored.version == 0
    assert dataset_fingerprint(restored.dataset) == base


def test_register_is_idempotent(data, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=0)
    base = dataset_fingerprint(data)
    store.register(base, data)
    store.register(base, data)
    assert len(_wal_lines(store, base)) == 1


def test_wal_replay_matches_functional_fold(rng, data, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=0)
    base = dataset_fingerprint(data)
    store.register(base, data)
    batches = _batches(rng, 5)
    folded = data
    for version, (points, labels) in enumerate(batches, start=1):
        folded = folded.with_added(points, labels, None)
        store.append_mutation(base, version, "add", points, labels, None)
    restored = store.restore(base)
    assert restored.replayed == len(batches)
    assert restored.fingerprint == versioned_fingerprint(base, len(batches))
    reference = _fold(data, batches)
    assert dataset_fingerprint(restored.dataset) == dataset_fingerprint(reference)
    np.testing.assert_array_equal(restored.dataset.positives, reference.positives)
    np.testing.assert_array_equal(restored.dataset.negatives, reference.negatives)


def test_remove_batches_replay_too(rng, data, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=0)
    base = dataset_fingerprint(data)
    store.register(base, data)
    points, labels = data.positives[:2], [1, 1]
    folded = data.with_removed(points, labels, None)
    store.append_mutation(base, 1, "remove", points, labels, None)
    restored = store.restore(base)
    assert restored.version == 1
    assert dataset_fingerprint(restored.dataset) == dataset_fingerprint(folded)


def test_snapshot_compacts_wal_and_prunes_old_snapshots(rng, data, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=2, keep_snapshots=1)
    base = dataset_fingerprint(data)
    store.register(base, data)
    folded = data
    for version, (points, labels) in enumerate(_batches(rng, 4), start=1):
        folded = folded.with_added(points, labels, None)
        store.append_mutation(base, version, "add", points, labels, None)
        if store.snapshot_due(version):
            store.snapshot(base, folded, version)
    # v2 and v4 snapshots were due; keep_snapshots=1 leaves only v4, and
    # the WAL holds no records at or below the covered version.
    snaps = sorted(p.name for p in (store.root / base).glob("snapshot-v*.pkl"))
    assert snaps == ["snapshot-v4.pkl"]
    records = [json.loads(line) for line in _wal_lines(store, base)]
    assert all(record["version"] > 4 for record in records)
    restored = store.restore(base)
    assert restored.version == 4
    assert restored.replayed == 0  # nothing left to replay: snapshot is current
    assert dataset_fingerprint(restored.dataset) == dataset_fingerprint(folded)


def test_snapshot_plus_tail_replay(rng, data, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=0)
    base = dataset_fingerprint(data)
    store.register(base, data)
    batches = _batches(rng, 5)
    folded = data
    for version, (points, labels) in enumerate(batches, start=1):
        folded = folded.with_added(points, labels, None)
        store.append_mutation(base, version, "add", points, labels, None)
        if version == 2:
            store.snapshot(base, folded, version)
    restored = store.restore(base)
    assert restored.version == 5
    assert restored.replayed == 3  # v3..v5 on top of the v2 snapshot
    assert dataset_fingerprint(restored.dataset) == dataset_fingerprint(
        _fold(data, batches)
    )


def test_retire_removes_lineage(data, tmp_path):
    store = DurableStore(tmp_path, snapshot_every=0)
    base = dataset_fingerprint(data)
    store.register(base, data)
    assert store.lineages() == [base]
    store.retire(base)
    assert store.lineages() == []
    assert not (store.root / base).exists()


def test_snapshot_due_cadence(tmp_path):
    store = DurableStore(tmp_path, snapshot_every=3)
    assert [v for v in range(1, 10) if store.snapshot_due(v)] == [3, 6, 9]
    assert not DurableStore(tmp_path, snapshot_every=0).snapshot_due(3)


def test_append_unknown_op_raises(data, tmp_path):
    from repro.exceptions import DurabilityError

    store = DurableStore(tmp_path, snapshot_every=0)
    base = dataset_fingerprint(data)
    with pytest.raises(DurabilityError):
        store.append_mutation(base, 1, "replace", data.positives[:1], [1], None)


# -- restore edge cases ----------------------------------------------------


def _durable_history(rng, data, tmp_path, n=4, **kwargs):
    """A store with a registered lineage and *n* applied add batches."""
    store = DurableStore(tmp_path, **kwargs)
    base = dataset_fingerprint(data)
    store.register(base, data)
    folded, folds = data, [data]
    for version, (points, labels) in enumerate(_batches(rng, n), start=1):
        folded = folded.with_added(points, labels, None)
        folds.append(folded)
        store.append_mutation(base, version, "add", points, labels, None)
    store.close()
    return store, base, folds


def test_truncated_tail_degrades_to_last_good_record(rng, data, tmp_path):
    store, base, folds = _durable_history(rng, data, tmp_path, snapshot_every=0)
    wal = store.root / base / WAL_NAME
    # Simulate a crash mid-append: cut the last line in half.
    raw = wal.read_bytes()
    wal.write_bytes(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])
    restored = store.restore(base)
    assert restored.truncated
    assert "truncated or non-JSON" in restored.warning
    assert restored.version == 3  # the last *whole* record
    assert dataset_fingerprint(restored.dataset) == dataset_fingerprint(folds[3])


def test_corrupt_checksum_degrades_with_warning(rng, data, tmp_path):
    store, base, folds = _durable_history(rng, data, tmp_path, snapshot_every=0)
    wal = store.root / base / WAL_NAME
    lines = wal.read_bytes().splitlines()
    # Flip a digit inside record v2's committed content hash: the line
    # stays valid JSON but its checksum no longer matches.
    record = json.loads(lines[2])
    record["content"] = ("0" if record["content"][0] != "0" else "1") + record["content"][1:]
    lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    wal.write_bytes(b"\n".join(lines) + b"\n")
    restored = store.restore(base)
    assert restored.truncated
    assert "checksum mismatch" in restored.warning
    assert restored.version == 1
    assert dataset_fingerprint(restored.dataset) == dataset_fingerprint(folds[1])


def test_tampered_record_with_recomputed_checksum_fails_fold_check(rng, data, tmp_path):
    store, base, folds = _durable_history(rng, data, tmp_path, snapshot_every=0)
    wal = store.root / base / WAL_NAME
    lines = wal.read_bytes().splitlines()
    # A smarter corruption: change the batch *and* recompute the checksum.
    # The per-record checksum passes, but replay diverges from the
    # committed content hash — the functional-fold invariant catches it.
    record = json.loads(lines[2])
    record["points"][0][0] += 1.0
    record["checksum"] = _record_checksum(record)
    lines[2] = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    wal.write_bytes(b"\n".join(lines) + b"\n")
    restored = store.restore(base)
    assert restored.truncated
    assert "diverged" in restored.warning
    assert restored.version == 1


def test_empty_state_dir_boots_clean(tmp_path):
    store = DurableStore(tmp_path / "fresh")
    assert store.restore_all() == {}
    service = ExplanationService(state_dir=tmp_path / "fresh2")
    assert service.fingerprints() == []
    assert service.stats()["restored"] == {}
    service.close()


def test_snapshot_newer_than_wal_restores(rng, data, tmp_path):
    # Compaction can leave the WAL entirely *behind* the snapshot (empty
    # tail); the snapshot alone must restore, replaying nothing.
    store, base, folds = _durable_history(
        rng, data, tmp_path, snapshot_every=0, keep_snapshots=1
    )
    store.snapshot(base, folds[4], 4)
    assert _wal_lines(store, base) == []
    restored = store.restore(base)
    assert not restored.truncated
    assert restored.version == 4 and restored.replayed == 0
    assert dataset_fingerprint(restored.dataset) == dataset_fingerprint(folds[4])


def test_unrecoverable_lineage_reports_and_never_raises(data, tmp_path):
    store = DurableStore(tmp_path)
    base = dataset_fingerprint(data)
    (store.root / base).mkdir()
    (store.root / base / WAL_NAME).write_bytes(b"not json at all\n")
    restored = store.restore(base)
    assert restored.dataset is None
    assert restored.truncated and "unrecoverable" in restored.warning


def test_restore_logs_structured_warning(rng, data, tmp_path):
    from repro.serve import StructuredLogger

    log_stream = io.StringIO()
    store, base, _ = _durable_history(rng, data, tmp_path, snapshot_every=0)
    store.log = StructuredLogger(log_stream, component="durability")
    wal = store.root / base / WAL_NAME
    wal.write_bytes(wal.read_bytes()[:-10])
    store.restore(base)
    records = [json.loads(line) for line in log_stream.getvalue().splitlines()]
    assert any(
        r["event"] == "lineage_restored" and r["level"] == "warning" for r in records
    )


# -- service-level restore -------------------------------------------------


def test_service_restores_lineage_and_answers_identically(rng, data, tmp_path):
    state = tmp_path / "state"
    batches = _batches(rng, 6)
    queries = rng.normal(size=(5, 4))

    durable = ExplanationService(state_dir=state, snapshot_every=4)
    fp = durable.add_dataset(data)
    for points, labels in batches:
        result = durable.add_points(fp, points, labels)
    pre_crash = result["fingerprint"]
    durable.close()
    del durable  # no clean shutdown protocol beyond close(): WAL is the truth

    # An uninterrupted in-memory reference over the same history.
    reference = ExplanationService()
    reference.add_dataset(data)
    for points, labels in batches:
        reference.add_points(fp, points, labels)

    revived = ExplanationService(state_dir=state)
    assert revived.fingerprints() == [pre_crash] == reference.fingerprints()
    for x in queries:
        a = revived.submit(fp, "margin", x, k=3).payload
        b = reference.submit(fp, "margin", x, k=3).payload
        assert a == b
    restored = revived.stats()["restored"]
    assert list(restored.values())[0]["version"] == 6
    revived.close()


def test_service_restores_warm_engines_from_current_snapshot(rng, data, tmp_path):
    state = tmp_path / "state"
    service = ExplanationService(state_dir=state, snapshot_every=2)
    fp = service.add_dataset(data)
    service.submit(fp, "classify", rng.normal(size=4), k=3)  # warms an engine
    for points, labels in _batches(rng, 2):
        service.add_points(fp, points, labels)  # snapshot lands at v2
    service.close()

    revived = ExplanationService(state_dir=state)
    # v2 snapshot is current (empty tail) and carried the warm engine.
    assert revived.stats()["engines"] == 1
    assert revived.submit(fp, "classify", rng.normal(size=4), k=3).ok
    revived.close()


def test_old_layout_warm_engine_restores_cold(rng, data, tmp_path, monkeypatch):
    """A snapshot engine pickled in an older attribute layout is refused.

    Engines now keep their rows in a labeled store; one pickled before
    (rows in per-side ``_pos_store``/``_neg_store`` attributes) must not
    be adopted.  Restore logs it as unloadable and the lineage comes
    back cold — dataset and ``@vN`` from the snapshot — answering like
    a service that never crashed.
    """
    import pickle
    from collections import OrderedDict

    from repro.knn import QueryEngine
    from repro.metrics import get_metric
    from repro.neighbors.brute import GrowableMatrix

    state = tmp_path / "state"
    batches = _batches(rng, 2)
    service = ExplanationService(state_dir=state, snapshot_every=2)
    fp = service.add_dataset(data)
    service.submit(fp, "classify", rng.normal(size=4), k=3)  # warms an engine
    for points, labels in batches:
        service.add_points(fp, points, labels)  # snapshot lands at v2
    current = service.dataset(fp)
    old_state = {
        "metric": get_metric("l2"),
        "_dim": 4,
        "_discrete": False,
        "_pos_store": GrowableMatrix(np.array(current.positives)),
        "_neg_store": GrowableMatrix(np.array(current.negatives)),
        "_pos_mult_store": GrowableMatrix(np.array(current.positive_multiplicities)),
        "_neg_mult_store": GrowableMatrix(np.array(current.negative_multiplicities)),
        "_cache": OrderedDict(),
        "_radii_cache": OrderedDict(),
        "_cache_size": 1024,
        "version": 2,
        "backend": "dense",
    }
    with monkeypatch.context() as patch:
        patch.setattr(QueryEngine, "__getstate__", lambda self: old_state)
        blob = pickle.dumps(QueryEngine(current))
    service.durability.snapshot(fp, current, 2, {"l2": blob})
    service.close()

    stream = io.StringIO()
    revived = ExplanationService(state_dir=state, log_stream=stream)
    records = [json.loads(line) for line in stream.getvalue().splitlines()]
    restored = [r for r in records if r["event"] == "lineage_restored"]
    assert restored and "warm engine 'l2' unloadable" in restored[0]["warning"]
    assert revived.stats()["engines"] == 0  # cold: rebuilt on first use
    assert revived.fingerprints() == [versioned_fingerprint(fp, 2)]
    reference = ExplanationService()
    reference.add_dataset(data)
    for points, labels in batches:
        reference.add_points(fp, points, labels)
    for x in rng.normal(size=(5, 4)):
        for method in ("classify", "margin"):
            got = revived.submit(fp, method, x, k=3).payload
            assert got == reference.submit(fp, method, x, k=3).payload
    revived.close()


def test_engine_pickled_with_query_caches_restores_warm(rng, data, tmp_path, monkeypatch):
    """A snapshot engine that still carries per-query cache state loads warm.

    Engines once kept an LRU of per-query distance vectors and radii;
    their pickles carried ``_cache`` and ``_radii_cache`` (emptied),
    ``_cache_size``, ``_hits`` and ``_misses`` beside the labeled store.
    A ``--state-dir`` written then must still adopt its engine warm and
    answer like a service that never crashed.
    """
    import pickle
    from collections import OrderedDict

    from repro.knn import QueryEngine

    state = tmp_path / "state"
    batches = _batches(rng, 2)
    service = ExplanationService(state_dir=state, snapshot_every=2)
    fp = service.add_dataset(data)
    service.submit(fp, "classify", rng.normal(size=4), k=3)  # warms an engine
    for points, labels in batches:
        service.add_points(fp, points, labels)  # snapshot lands at v2
    current = service.dataset(fp)
    engine = QueryEngine(current, "l2")
    cached_state = {
        **engine.__dict__,
        "_cache": OrderedDict(),
        "_radii_cache": OrderedDict(),
        "_cache_size": 1024,
        "_hits": 0,
        "_misses": 0,
    }
    with monkeypatch.context() as patch:
        patch.setattr(QueryEngine, "__getstate__", lambda self: cached_state)
        blob = pickle.dumps(engine)
    service.durability.snapshot(fp, current, 2, {"l2": blob})
    service.close()

    revived = ExplanationService(state_dir=state)
    assert revived.stats()["engines"] == 1  # adopted warm
    reference = ExplanationService()
    reference.add_dataset(data)
    for points, labels in batches:
        reference.add_points(fp, points, labels)
    for x in rng.normal(size=(4, 4)):
        for method, k in (("classify", 3), ("margin", 3), ("minimal_sr", 1)):
            got = revived.submit(fp, method, x, k=k).payload
            assert got == reference.submit(fp, method, x, k=k).payload
    revived.close()


def test_service_mutation_is_on_disk_before_ack(rng, data, tmp_path):
    service = ExplanationService(state_dir=tmp_path, snapshot_every=0)
    fp = service.add_dataset(data)
    points, labels = rng.normal(size=(2, 4)), [1, -1]
    result = service.add_points(fp, points, labels)
    # The acknowledged version's record is already durable: a copy of the
    # store restores it without the service shutting down at all.
    restored = DurableStore(tmp_path, snapshot_every=0).restore(fp)
    assert restored.fingerprint == result["fingerprint"]
    service.close()


def test_service_retires_durable_state_on_remove(rng, data, tmp_path):
    service = ExplanationService(state_dir=tmp_path)
    fp = service.add_dataset(data)
    service.remove_dataset(fp)
    service.close()
    assert ExplanationService(state_dir=tmp_path).fingerprints() == []


def test_cluster_restores_owned_lineages(rng, data, tmp_path):
    from repro.serve import ClusterService

    state = tmp_path / "cluster-state"
    batches = _batches(rng, 3)
    with ClusterService(workers=2, state_dir=state, snapshot_every=2) as cluster:
        fp = cluster.add_dataset(data)
        for points, labels in batches:
            cluster.add_points(fp, points, labels)
        pre_crash = cluster.fingerprints()
        answer = cluster.explain(fp, "margin", [np.zeros(4)], {"k": 3})

    with ClusterService(workers=2, state_dir=state) as revived:
        assert revived.fingerprints() == pre_crash
        assert revived.restored  # the adoption record is surfaced
        again = revived.explain(fp, "margin", [np.zeros(4)], {"k": 3})
        assert again[0]["result"] == answer[0]["result"]
