"""Durable streaming datasets: mutation WAL, snapshots, replay-on-boot.

Everything the serving layer holds — dataset lineages, their ``@vN``
version history, warm engines — is process-lifetime state; this module
is what survives a crash.  A :class:`DurableStore` owns one **state
directory** with one subdirectory per dataset lineage (named by the
lineage's base content fingerprint)::

    state-dir/
      <base fingerprint, 64 hex>/
        wal.jsonl           append-only mutation log (one record/line)
        snapshot-v<N>.pkl   periodic dataset(+engine) snapshot

**The WAL** is an append-only JSON-lines file.  The first record of a
lineage is its ``register`` record (the full registered contents and
their ordered SHA-256 fingerprint, so a WAL with no snapshot still
restores); every applied add/remove batch appends one ``add``/``remove``
record carrying the batch, the version it creates, and a commitment to
the contents after the batch.  That commitment is a running **multiset
hash** (tagged ``"scheme": "mset-blake2b-8x64"``): the lane-wise sum,
mod 2**64, of one BLAKE2b-512 digest per (label, row bytes) pair,
weighted by multiplicity — the additive construction of Bellare and
Micciancio (EUROCRYPT 1997), as in LtHash (Lewi et al., IACR ePrint
2019/227).  It is updated from the batch alone, O(batch·d), and seeded
once per lineage from the registered or restored dataset.  It does not
commit to row order, which is a deterministic function of the replayed
fold.  Records without a scheme tag (written before it existed) commit
to :func:`~repro.serve.cache.dataset_fingerprint` of the post-batch
dataset and still verify.  Each line embeds a checksum over its own
canonical JSON and is written and ``fsync``'d before the in-memory
version bump — a mutation is acknowledged only after it is durable —
and the fsync latency feeds the ``repro_wal_fsync_seconds`` metric.  A
failed append is cut back off the WAL, so the file always ends at its
last good record; if even that fails, the lineage refuses appends until
restart.

**Snapshots** are atomic (unique temp file + ``os.replace``) pickles of
the dataset at one version, written every ``snapshot_every`` mutations,
optionally with the lineage's warm engines riding along (pickled per
metric) so a restart boots warm.  After a snapshot lands, the WAL is
**compacted**: records the snapshot covers are dropped (atomically, by
rewrite — the store knows where each record starts, so only the kept
tail is copied) and snapshots older than ``keep_snapshots`` are deleted.

**Restore** (:meth:`DurableStore.restore` / ``restore_all``) replays the
newest loadable snapshot plus the WAL tail through the functional fold
(:meth:`Dataset.with_added <repro.knn.dataset.Dataset.with_added>` /
``with_removed``).  The recovery contract:

* every record's checksum and version continuity is verified; a
  truncated or corrupt tail **degrades to the last good record** with a
  structured warning — it never crashes the boot — and the WAL is cut
  back to that record before the lineage accepts appends;
* every replayed record must reproduce the content commitment it
  carries — the running multiset hash, or for untagged records the
  snapshot == functional-fold fingerprint invariant the streaming fuzz
  harness pins (``tests/test_fuzz_parity.py``), checked bit-for-bit;
* an empty state directory restores to an empty registry, and a
  lineage with neither a loadable snapshot nor a register record is
  reported (structured error) and skipped.

`docs/operations.md` is the operator-facing companion: state-dir
layout, retention knobs, and the kill-and-restore walkthrough.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from ..exceptions import DurabilityError
from ..knn.dataset import Dataset
from ..knn.multiclass_data import MultiClassDataset
from .cache import dataset_fingerprint, versioned_fingerprint
from .metrics import MetricsRegistry, StructuredLogger

#: WAL filename inside each lineage directory.
WAL_NAME = "wal.jsonl"

#: snapshot filename pattern (``N`` is the dataset version it captures).
SNAPSHOT_PATTERN = "snapshot-v{version}.pkl"

#: record kinds a WAL may legally contain.
RECORD_OPS = ("register", "add", "remove")

#: ``scheme`` tag of an add/remove record whose ``content`` is the
#: running multiset hash (untagged records commit to the ordered
#: :func:`~repro.serve.cache.dataset_fingerprint` instead).
MULTISET_SCHEME = "mset-blake2b-8x64"


def _record_checksum(record: dict) -> str:
    """SHA-256 over the canonical JSON of *record* (checksum field excluded)."""
    body = {key: value for key, value in record.items() if key != "checksum"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _lane_sum(rows, labels: list[int], multiplicities) -> np.ndarray:
    """``Σ m · BLAKE2b-512(label ‖ row bytes)`` as 8 uint64 lanes mod 2**64.

    *labels* holds one integer per row (a binary lineage's ``True`` /
    ``False`` as 1 / 0); the row bytes are its float64 buffer, the same
    identity the engines' row lookups use.
    """
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    raw, step = rows.tobytes(), rows.shape[1] * 8
    digests = b"".join(
        hashlib.blake2b(
            label.to_bytes(8, "little", signed=True) + raw[i * step : (i + 1) * step]
        ).digest()
        for i, label in enumerate(labels)
    )
    lanes = np.frombuffer(digests, dtype="<u8").reshape(-1, 8)
    weights = np.asarray(multiplicities, dtype=np.uint64)[:, None]
    return (lanes * weights).sum(axis=0, dtype=np.uint64)


def _multiset_digest(dataset) -> np.ndarray:
    """The multiset hash of *dataset*'s contents (a lineage's seed)."""
    if isinstance(dataset, MultiClassDataset):
        blocks = [
            (c, dataset.class_points(c), dataset.class_multiplicities(c))
            for c in dataset.classes
        ]
    else:
        blocks = [
            (1, dataset.positives, dataset.positive_multiplicities),
            (0, dataset.negatives, dataset.negative_multiplicities),
        ]
    total = np.zeros(8, dtype=np.uint64)
    for label, rows, mults in blocks:
        total += _lane_sum(rows, [int(label)] * rows.shape[0], mults)
    return total


def _batch_digest(points, labels, multiplicities, *, binary: bool) -> np.ndarray:
    """The multiset hash of one mutation batch, labels read as the lineage does."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    lab = np.asarray(labels).ravel()
    lab = (lab.astype(bool) if binary else lab).astype(np.int64).tolist()
    mult = np.ones(len(lab), dtype=np.int64) if multiplicities is None else multiplicities
    return _lane_sum(pts, lab, mult)


def _advance(digest: np.ndarray, op: str, batch: np.ndarray) -> np.ndarray:
    """The running hash after an ``add`` or ``remove`` of a batch hashing to *batch*."""
    return digest - batch if op == "remove" else digest + batch


def _digest_hex(digest: np.ndarray) -> str:
    """The ``content`` string of a multiset hash (128 hex digits)."""
    return digest.astype("<u8").tobytes().hex()


def _dataset_payload(dataset) -> dict:
    """JSON-able full contents of *dataset* (the ``register`` record body).

    Multiclass lineages carry a ``"kind": "multiclass"`` tag plus their
    canonical row stack (points, per-row integer labels and
    multiplicities in class-ascending, insertion order); binary ones
    keep the original untagged positives/negatives shape, so WALs
    written before multiclass serving existed replay unchanged.
    """
    if isinstance(dataset, MultiClassDataset):
        return {
            "kind": "multiclass",
            "points": dataset.points.tolist(),
            "labels": dataset.row_labels.tolist(),
            "multiplicities": dataset.multiplicities.tolist(),
            "discrete": bool(dataset.discrete),
        }
    return {
        "positives": dataset.positives.tolist(),
        "negatives": dataset.negatives.tolist(),
        "positive_multiplicities": dataset.positive_multiplicities.tolist(),
        "negative_multiplicities": dataset.negative_multiplicities.tolist(),
        "discrete": bool(dataset.discrete),
    }


def _dataset_from_payload(payload: dict) -> Dataset | MultiClassDataset:
    """Rebuild either dataset kind from a ``register`` record body."""
    if payload.get("kind") == "multiclass":
        return MultiClassDataset(
            np.asarray(payload["points"], dtype=float),
            np.asarray(payload["labels"], dtype=np.int64),
            multiplicities=payload["multiplicities"],
            discrete=bool(payload["discrete"]),
        )
    return Dataset(
        np.asarray(payload["positives"], dtype=float),
        np.asarray(payload["negatives"], dtype=float),
        positive_multiplicities=payload["positive_multiplicities"],
        negative_multiplicities=payload["negative_multiplicities"],
        discrete=bool(payload["discrete"]),
    )


@dataclass
class RestoredLineage:
    """One lineage as reconstructed from disk by :meth:`DurableStore.restore`.

    ``dataset``/``version`` are the recovered state (``None`` dataset
    means the lineage was unrecoverable); ``engines`` maps metric names
    to unpickled warm :class:`~repro.knn.QueryEngine` objects when the
    loaded snapshot was current and carried them; ``replayed`` counts
    WAL records applied on top of the snapshot; ``truncated`` is True
    when a damaged tail was dropped, with ``warning`` holding the
    structured reason.
    """

    base: str
    dataset: Dataset | None
    version: int = 0
    engines: dict = field(default_factory=dict)
    replayed: int = 0
    truncated: bool = False
    warning: str | None = None

    @property
    def fingerprint(self) -> str:
        """The restored ``<fp>@vN`` versioned fingerprint."""
        return versioned_fingerprint(self.base, self.version)


class _Lineage:
    """Store-internal per-lineage state: paths, the WAL's layout, the running hash.

    ``size`` is the byte length of the WAL's good records — where the
    next append starts — and ``starts`` holds each one's ``(version,
    offset)``, so a failed append can be cut back off and compaction
    can find its tail without reading the records it drops.  ``digest``
    is the running multiset hash at the last record (None until the
    lineage was registered or restored by this store), ``binary`` the
    label rule of its dataset kind, and ``refused`` the reason appends
    are refused until restart (None while they are not).
    """

    def __init__(self, directory: Path):
        self.directory = directory
        self.wal_path = directory / WAL_NAME
        self.fd: int | None = None  # lazily opened O_APPEND descriptor
        self.size = 0
        self.starts: list[tuple[int, int]] = []
        self.digest: np.ndarray | None = None
        self.binary = True
        self.refused: str | None = None

    def open(self) -> int:
        """The append-mode WAL descriptor, opened on first use."""
        if self.fd is None:
            self.fd = os.open(self.wal_path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        return self.fd

    def close(self) -> None:
        """Close the WAL descriptor (reopened automatically when appended to)."""
        if self.fd is not None:
            fd, self.fd = self.fd, None
            os.close(fd)


class DurableStore:
    """The write side and boot side of the durability layer.

    Parameters
    ----------
    root:
        the state directory (created if missing).  One subdirectory per
        lineage, named by the base content fingerprint.
    snapshot_every:
        mutations between snapshots (and WAL compactions).  ``0``
        disables periodic snapshots — the WAL alone still restores.
    keep_snapshots:
        snapshot files retained per lineage after a new one lands.
    fsync:
        whether WAL appends and snapshot writes are ``fsync``'d.
        Leave True in production; tests may disable it for speed.
    metrics:
        optional :class:`~repro.serve.metrics.MetricsRegistry` receiving
        the WAL/snapshot series (a private registry is created
        otherwise, so the counters always exist).
    logger:
        optional :class:`~repro.serve.metrics.StructuredLogger` for the
        recovery warnings; silent when omitted.
    """

    def __init__(
        self,
        root,
        *,
        snapshot_every: int = 64,
        keep_snapshots: int = 2,
        fsync: bool = True,
        metrics: MetricsRegistry | None = None,
        logger: StructuredLogger | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = max(0, int(snapshot_every))
        self.keep_snapshots = max(1, int(keep_snapshots))
        self.fsync = bool(fsync)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.log = logger if logger is not None else StructuredLogger(None, component="durability")
        self._lineages: dict[str, _Lineage] = {}
        self._lock = threading.Lock()
        self._appends = 0
        self._snapshots = 0
        self._compactions = 0
        self._restores = 0
        self._truncated_tails = 0
        self._fsync_s = 0.0
        self._fsync_hist = self.metrics.histogram(
            "repro_wal_fsync_seconds",
            "Latency of one fsync'd WAL append (write + flush + fsync).",
        )
        self._append_counter = self.metrics.counter(
            "repro_wal_appends_total", "WAL records appended.", ("op",)
        )
        self._snapshot_counter = self.metrics.counter(
            "repro_snapshots_total", "Lineage snapshots written."
        )

    # -- write path ------------------------------------------------------

    def _lineage(self, base: str) -> _Lineage:
        """The (created-on-demand) handle of one lineage directory."""
        with self._lock:
            lineage = self._lineages.get(base)
            if lineage is None:
                directory = self.root / base
                directory.mkdir(parents=True, exist_ok=True)
                lineage = self._lineages[base] = _Lineage(directory)
            return lineage

    def has_lineage(self, base: str) -> bool:
        """Whether *base* already has durable state on disk (a WAL or a snapshot)."""
        directory = self.root / base
        return (directory / WAL_NAME).exists() or any(directory.glob("snapshot-v*.pkl"))

    def register(self, base: str, dataset: Dataset) -> None:
        """Make a fresh registration durable (idempotent).

        Appends the lineage's ``register`` record — the full dataset
        contents at version 0 — and seeds its running multiset hash,
        unless the lineage already has durable state, in which case
        re-registering bit-identical data is a no-op (matching
        :meth:`ExplanationService.add_dataset
        <repro.serve.service.ExplanationService.add_dataset>`).
        """
        if self.has_lineage(base):
            return
        lineage = self._lineage(base)
        lineage.close()
        lineage.size, lineage.starts, lineage.refused = 0, [], None
        digest = _multiset_digest(dataset)
        record = {
            "op": "register",
            "version": 0,
            "content": base,
            "dataset": _dataset_payload(dataset),
        }
        self._append(base, lineage, record)
        lineage.digest, lineage.binary = digest, not isinstance(dataset, MultiClassDataset)

    def append_mutation(
        self, base: str, version: int, op: str, points, labels, multiplicities,
    ) -> None:
        """Durably log one validated mutation batch *before* the version bump.

        ``version`` is the version the batch **creates** (old + 1).  The
        record commits to the lineage's running multiset hash advanced
        by the batch — O(batch·d), no post-batch dataset needed — and
        the hash advances only once the record is durable; restore
        verifies replay reproduces it.  Raises
        :class:`~repro.exceptions.DurabilityError` on any I/O failure
        (the WAL is cut back to its last good record), in which case
        the caller must leave the in-memory state untouched (the
        mutation never happened).
        """
        if op not in ("add", "remove"):
            raise DurabilityError(f"unknown WAL op {op!r}")
        lineage = self._verified(base)
        mult = None if multiplicities is None else np.asarray(multiplicities).tolist()
        digest = _advance(
            lineage.digest, op,
            _batch_digest(points, labels, mult, binary=lineage.binary),
        )
        record = {
            "op": op,
            "version": int(version),
            "scheme": MULTISET_SCHEME,
            "content": _digest_hex(digest),
            "points": np.asarray(points, dtype=float).tolist(),
            "labels": np.asarray(labels).astype(int).tolist(),
            "multiplicities": mult,
        }
        self._append(base, lineage, record)
        lineage.digest = digest

    def _verified(self, base: str) -> _Lineage:
        """The state of a lineage this store registered or restored.

        Only those have a seeded running hash and a known WAL layout;
        any other raises :class:`~repro.exceptions.DurabilityError`.
        """
        with self._lock:
            lineage = self._lineages.get(base)
        if lineage is None or lineage.digest is None:
            raise DurabilityError(
                f"lineage {base[:16]}... was neither registered nor restored "
                "by this store"
            )
        return lineage

    def _append(self, base: str, lineage: _Lineage, record: dict) -> None:
        """Checksum, write and fsync one WAL record; cut it back off on failure."""
        if lineage.refused is not None:
            raise DurabilityError(
                f"WAL appends refused for lineage {base[:16]}...: {lineage.refused}"
            )
        record["checksum"] = _record_checksum(record)
        line = (json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n").encode()
        start = perf_counter()
        try:
            fd = lineage.open()
            view = memoryview(line)
            while view:
                view = view[os.write(fd, view) :]
            if self.fsync:
                os.fsync(fd)
        except OSError as exc:
            self._rewind(base, lineage)
            raise DurabilityError(
                f"WAL append failed for lineage {base[:16]}...: {exc}"
            ) from exc
        elapsed = perf_counter() - start
        lineage.starts.append((record["version"], lineage.size))
        lineage.size += len(line)
        self._fsync_hist.observe(elapsed)
        self._append_counter.labels(op=record["op"]).inc()
        with self._lock:
            self._appends += 1
            self._fsync_s += elapsed

    def _rewind(self, base: str, lineage: _Lineage) -> None:
        """Cut a failed append's bytes off the WAL, or refuse further appends.

        A record whose bytes reached the file but whose fsync failed was
        never acknowledged; left in place, the next batch would be
        acknowledged as the same version after it, and replay would
        restore the refused batch instead.
        """
        if lineage.fd is None:  # the open failed: nothing reached the file
            return
        try:
            os.ftruncate(lineage.fd, lineage.size)
            if self.fsync:
                os.fsync(lineage.fd)
        except OSError as exc:
            lineage.refused = f"a failed append could not be cut back off ({exc})"
            self.log.log(
                "wal_appends_refused", level="warning", base=base[:16], reason=lineage.refused
            )

    def snapshot(
        self, base: str, dataset: Dataset, version: int, engine_blobs: dict | None = None
    ) -> Path:
        """Write one atomic snapshot of (*dataset*, *version*) and compact.

        ``engine_blobs`` optionally maps metric names to pickled warm
        engines (serialized by the caller under its engine locks).  The
        snapshot is written to a unique temp file and ``os.replace``'d
        into place, so a crash mid-write never damages an older
        snapshot; afterwards the WAL is compacted to the records the
        snapshot does not cover and old snapshots beyond
        ``keep_snapshots`` are removed.  Raises
        :class:`~repro.exceptions.DurabilityError` if either step fails;
        the WAL still covers every appended version then.
        """
        lineage = self._verified(base)
        payload = {
            "version": int(version),
            "content": dataset_fingerprint(dataset),
            "dataset": dataset,
            "engines": dict(engine_blobs or {}),
        }
        path = lineage.directory / SNAPSHOT_PATTERN.format(version=int(version))
        tmp = path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(payload, handle)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise DurabilityError(
                f"snapshot write failed for lineage {base[:16]}...: {exc}"
            ) from exc
        self._snapshot_counter.inc()
        with self._lock:
            self._snapshots += 1
        self._compact(base, lineage, covered_version=int(version))
        return path

    def snapshot_due(self, version: int) -> bool:
        """Whether *version* hits the ``snapshot_every`` cadence.

        A pure check so callers can decide before paying the snapshot's
        serialization cost (the service pickles its warm engines only
        when a snapshot is actually due).
        """
        if self.snapshot_every <= 0 or version <= 0:
            return False
        return version % self.snapshot_every == 0

    def _compact(self, base: str, lineage: _Lineage, covered_version: int) -> None:
        """Drop WAL records (and old snapshots) a new snapshot covers.

        The records to keep start at the first offset the store knows
        for a version above ``covered_version``; only those bytes are
        copied, into a temp file that atomically replaces the WAL.
        Raises :class:`~repro.exceptions.DurabilityError` (and removes
        the temp file) when the rewrite fails; the old WAL then stays.
        """
        keep_from = next(
            (offset for version, offset in lineage.starts if version > covered_version),
            lineage.size,
        )
        tmp = lineage.wal_path.with_suffix(f".{os.getpid()}-{threading.get_ident()}.tmp")
        try:
            tail = b""
            if lineage.size > keep_from:
                with open(lineage.wal_path, "rb") as wal:
                    wal.seek(keep_from)
                    tail = wal.read(lineage.size - keep_from)
            with open(tmp, "wb") as handle:
                handle.write(tail)
                handle.flush()
                if self.fsync:
                    os.fsync(handle.fileno())
            lineage.close()
            os.replace(tmp, lineage.wal_path)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise DurabilityError(
                f"WAL compaction failed for lineage {base[:16]}...: {exc}"
            ) from exc
        lineage.starts = [
            (version, offset - keep_from)
            for version, offset in lineage.starts
            if version > covered_version
        ]
        lineage.size -= keep_from
        for path in sorted(
            lineage.directory.glob("snapshot-v*.pkl"),
            key=self._snapshot_version,
        )[: -self.keep_snapshots]:
            path.unlink(missing_ok=True)
        with self._lock:
            self._compactions += 1

    def retire(self, base: str) -> None:
        """Remove a lineage's durable state (dataset removal is forever)."""
        with self._lock:
            lineage = self._lineages.pop(base, None)
        if lineage is not None:
            lineage.close()
        directory = self.root / base
        if directory.exists():
            for path in directory.iterdir():
                path.unlink(missing_ok=True)
            directory.rmdir()

    # -- boot path -------------------------------------------------------

    @staticmethod
    def _snapshot_version(path: Path) -> int:
        """The version captured by a ``snapshot-v<N>.pkl`` file."""
        stem = path.name[len("snapshot-v") : -len(".pkl")]
        try:
            return int(stem)
        except ValueError:
            return -1

    def lineages(self) -> list[str]:
        """Base fingerprints with durable state under the root (sorted)."""
        return sorted(
            child.name
            for child in self.root.iterdir()
            if child.is_dir()
            and ((child / WAL_NAME).exists() or any(child.glob("snapshot-v*.pkl")))
        )

    def _read_records(
        self, base: str
    ) -> tuple[list[dict], list[tuple[int, int]], str | None, int | None]:
        """``(records, spans, tail warning, bytes read)`` of one lineage's WAL.

        Reads until the first damaged line — truncated JSON, a missing
        final newline, checksum mismatch, unknown op, or non-contiguous
        version — and reports it as the warning; everything before it is
        returned verified, with each record's ``(start, end)`` byte
        span.  The byte count is None when the WAL could not be read.
        """
        wal_path = self.root / base / WAL_NAME
        if not wal_path.exists():
            return [], [], None, 0
        records: list[dict] = []
        spans: list[tuple[int, int]] = []
        try:
            raw = wal_path.read_bytes()
        except OSError as exc:
            return [], [], f"WAL unreadable: {exc}", None
        end = 0
        for index, line in enumerate(raw.split(b"\n")):
            start, end = end, end + len(line) + 1
            if not line.strip():
                continue
            try:
                record = json.loads(line.decode("utf-8"))
                if end > len(raw):  # torn before its newline
                    raise ValueError
            except (UnicodeDecodeError, ValueError):
                return records, spans, f"record {index}: truncated or non-JSON line", len(raw)
            if not isinstance(record, dict) or record.get("op") not in RECORD_OPS:
                return records, spans, f"record {index}: unknown record shape", len(raw)
            if record.get("checksum") != _record_checksum(record):
                return records, spans, f"record {index}: checksum mismatch", len(raw)
            if records and record["version"] != records[-1]["version"] + 1:
                return records, spans, (
                    f"record {index}: version gap "
                    f"(v{records[-1]['version']} -> v{record['version']})"
                ), len(raw)
            records.append(record)
            spans.append((start, end))
        return records, spans, None, len(raw)

    def _load_snapshot(self, base: str) -> tuple[dict | None, list[str]]:
        """Newest loadable snapshot payload of *base* (or None) + warnings."""
        directory = self.root / base
        warnings: list[str] = []
        for path in sorted(
            directory.glob("snapshot-v*.pkl"), key=self._snapshot_version, reverse=True
        ):
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
                dataset = payload["dataset"]
                if dataset_fingerprint(dataset) != payload["content"]:
                    raise DurabilityError("snapshot content hash mismatch")
            except Exception as exc:
                warnings.append(f"snapshot {path.name} unloadable ({exc}); trying older")
                continue
            return payload, warnings
        return None, warnings

    def restore(self, base: str) -> RestoredLineage:
        """Reconstruct one lineage: newest snapshot + verified WAL tail.

        Never raises for damaged state — the result carries
        ``truncated``/``warning`` instead, and a totally unrecoverable
        lineage comes back with ``dataset=None``.  A recovered lineage
        becomes this store's to append to: its WAL is cut back to the
        last record the restored version covers and its running
        multiset hash is seeded.
        """
        with self._lock:
            self._restores += 1
        records, spans, tail_warning, wal_bytes = self._read_records(base)
        snapshot, snap_warnings = self._load_snapshot(base)
        warnings = list(snap_warnings)
        dataset: Dataset | None = None
        version = 0
        engines: dict = {}
        replayed = 0
        if snapshot is not None:
            dataset = snapshot["dataset"]
            version = int(snapshot["version"])
            tail = [r for r in records if r["version"] > version]
        else:
            # No snapshot: the whole WAL is the tail, and its first
            # record must be the lineage's register record (version 0,
            # which a ``> version`` filter would wrongly drop).
            tail = list(records)
        if dataset is None:
            if tail and tail[0]["op"] == "register":
                register, tail = tail[0], tail[1:]
                dataset = _dataset_from_payload(register["dataset"])
                if dataset_fingerprint(dataset) != register["content"]:
                    return self._report(RestoredLineage(
                        base, None,
                        warning="register record content hash mismatch",
                        truncated=True,
                    ))
                version = 0
            else:
                reason = tail_warning or "no snapshot and no register record"
                return self._report(RestoredLineage(
                    base, None, warning=f"lineage unrecoverable: {reason}",
                    truncated=True,
                ))
        binary = not isinstance(dataset, MultiClassDataset)
        digest = None  # seeded on the first tagged record
        refused = None if wal_bytes is not None else "the WAL could not be read"
        for record in tail:
            if record["op"] == "register":
                warnings.append(f"unexpected register record at v{record['version']}")
                break
            if record["version"] != version + 1:
                warnings.append(
                    f"WAL tail starts at v{record['version']} but the newest "
                    f"loadable snapshot is v{version} (gap)"
                )
                # Good records no loaded snapshot reaches: keep them for
                # repair rather than cut them off.
                refused = f"the WAL holds records past v{version} no loadable snapshot reaches"
                break
            scheme = record.get("scheme")
            if scheme not in (None, MULTISET_SCHEME):
                warnings.append(
                    f"record v{record['version']} has unknown content scheme {scheme!r}"
                )
                break
            folder = "with_added" if record["op"] == "add" else "with_removed"
            batch = (record["points"], record["labels"], record["multiplicities"])
            try:
                folded = getattr(dataset, folder)(*batch)
                if scheme is None:
                    advanced = None
                    content = dataset_fingerprint(folded)
                else:
                    if digest is None:
                        digest = _multiset_digest(dataset)
                    advanced = _advance(
                        digest, record["op"], _batch_digest(*batch, binary=binary)
                    )
                    content = _digest_hex(advanced)
            except Exception as exc:
                warnings.append(f"replay of v{record['version']} failed ({exc})")
                break
            if content != record["content"]:
                warnings.append(
                    f"replay of v{record['version']} diverged from the "
                    "committed content hash"
                )
                break
            dataset, digest = folded, advanced
            version = record["version"]
            replayed += 1
        if snapshot is not None and replayed == 0 and not warnings:
            # The snapshot IS the current state: its warm engines are valid.
            for metric, blob in (snapshot.get("engines") or {}).items():
                try:
                    engines[metric] = pickle.loads(blob)
                except Exception as exc:  # engines are an optimization only
                    warnings.append(f"warm engine {metric!r} unloadable ({exc})")
        if tail_warning is not None:
            warnings.append(tail_warning)
        kept = [span for record, span in zip(records, spans) if record["version"] <= version]
        self._resume(base, dataset, records[: len(kept)], kept, wal_bytes, digest, refused)
        result = RestoredLineage(
            base, dataset, version, engines, replayed,
            truncated=bool(warnings),
            warning="; ".join(warnings) or None,
        )
        return self._report(result)

    def _resume(
        self, base: str, dataset, records: list[dict], spans: list[tuple[int, int]],
        wal_bytes: int | None, digest: np.ndarray | None, refused: str | None,
    ) -> None:
        """Make a restored lineage appendable after its kept *records*.

        Cuts the WAL (fsync'd) after the last record the restored
        version covers — a torn or unreplayable tail left in place
        would sit between the acknowledged records and the next append
        — and seeds the running multiset hash from *digest* or, when no
        tagged record was replayed, from *dataset*.  With a *refused*
        reason, or when the cut fails, the WAL stays as it is and the
        lineage refuses appends until restart.
        """
        lineage = self._lineage(base)
        lineage.close()
        keep = spans[-1][1] if spans else 0
        lineage.refused = refused
        if refused is None and wal_bytes > keep:
            try:
                fd = os.open(lineage.wal_path, os.O_WRONLY)
                try:
                    os.ftruncate(fd, keep)
                    if self.fsync:
                        os.fsync(fd)
                finally:
                    os.close(fd)
            except OSError as exc:
                lineage.refused = f"the WAL could not be cut back to its last good record ({exc})"
        if lineage.refused is not None:
            self.log.log(
                "wal_appends_refused", level="warning", base=base[:16], reason=lineage.refused
            )
        lineage.size = keep
        lineage.starts = [(r["version"], start) for r, (start, _) in zip(records, spans)]
        lineage.digest = digest if digest is not None else _multiset_digest(dataset)
        lineage.binary = not isinstance(dataset, MultiClassDataset)

    def _report(self, result: RestoredLineage) -> RestoredLineage:
        """Log the structured restore outcome (warning level if degraded)."""
        if result.truncated:
            with self._lock:
                self._truncated_tails += 1
        self.log.log(
            "lineage_restored" if result.dataset is not None else "lineage_unrecoverable",
            level="warning" if result.truncated else "info",
            base=result.base[:16],
            version=result.version,
            replayed=result.replayed,
            truncated=result.truncated,
            warning=result.warning,
        )
        return result

    def restore_all(self) -> dict[str, RestoredLineage]:
        """Restore every lineage under the root (empty dir → empty dict).

        Unrecoverable lineages are included with ``dataset=None`` so the
        caller can surface them; recoverable ones carry their datasets,
        versions, and (when current) warm engines.
        """
        return {base: self.restore(base) for base in self.lineages()}

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict:
        """Write/boot counters: appends, fsync seconds, snapshots, restores."""
        with self._lock:
            return {
                "appends": self._appends,
                "fsync_s": self._fsync_s,
                "snapshots": self._snapshots,
                "compactions": self._compactions,
                "restores": self._restores,
                "truncated_tails": self._truncated_tails,
                "snapshot_every": self.snapshot_every,
                "keep_snapshots": self.keep_snapshots,
            }

    def close(self) -> None:
        """Close every open WAL handle (the store stays usable)."""
        with self._lock:
            lineages = list(self._lineages.values())
        for lineage in lineages:
            lineage.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DurableStore(root={str(self.root)!r}, lineages={len(self.lineages())})"
