"""Sharded corpus federation: a corpus of corpora behind one manifest.

A single :class:`~repro.storage.store.TraceStore` is one manifest plus
one set of column files — perfect up to the scale one process happily
maps, and a wall right past it: a "city-scale" corpus (10⁴–10⁶
stations) cannot be built, shipped, or evaluated as one monolithic
directory.  This module federates N member stores under a **shard-set
manifest** (``repro-shardset`` v1):

* **Placement is a pure hash.**  Every trace routes to shard
  ``sha256(station_key) % shards`` (:func:`shard_for_key`) — the same
  station always lands in the same shard, in any process, on any
  platform, exactly like hash-based file placement spreads files over
  storage targets in HPC placement simulators.  No directory lookup,
  no rebalancing state.
* **Building is out-of-core.**  :class:`ShardSetWriter` streams each
  trace into its member :class:`~repro.storage.store.TraceStoreWriter`
  the moment it is routed; resident memory never exceeds one trace's
  chunk no matter how many shards or stations the federation holds.
* **Opening is O(manifests).**  :class:`ShardSet.open` reads the
  federation manifest plus each member's JSON manifest — no column
  file is mapped until a trace from that shard is actually requested
  (lazy per-shard ``TraceStore.open``), so a worker that only touches
  its own shard only ever maps one shard's bytes.
* **Views merge.**  ``entries()`` / ``select()`` / ``labels()`` /
  ``traces_by_label()`` present the federation as one corpus (shard-
  major order, globally re-indexed), so scenario hydration, streaming
  replay, and the CLI treat a shard-set directory exactly like a
  single store.

Layout on disk (a directory)::

    corpus.shards/
        shardset.json        # federation manifest (written last, atomic)
        shard-0000.store/    # ordinary TraceStore directories
        shard-0001.store/
        ...

Crash safety mirrors the store: member manifests commit first, the
federation manifest last via atomic rename — an interrupted build is
"not a shard set", never a federation silently missing members.  See
``docs/trace-format.md`` for the format specification.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from collections.abc import Mapping, Sequence

from repro import obs
from repro.storage.store import (
    _ROW_BYTES,
    MANIFEST_NAME,
    SHARDSET_MANIFEST_NAME,
    Corpus,
    StoreFormatError,
    TraceEntry,
    TraceStore,
    TraceStoreWriter,
    _check_trace,
    _parse_traces,
    _read_manifest,
    load_manifest,
)
from repro.traffic.trace import Trace

__all__ = [
    "SHARDSET_FORMAT_NAME",
    "SHARDSET_VERSION",
    "PLACEMENT_RULE",
    "ShardSet",
    "ShardSetWriter",
    "corpus_manifest",
    "is_shardset",
    "load_shardset_manifest",
    "open_corpus",
    "shard_for_key",
]

#: Federation manifest ``format`` discriminator — never reuse.
SHARDSET_FORMAT_NAME = "repro-shardset"

#: Highest federation manifest ``version`` this reader understands.
SHARDSET_VERSION = 1

#: The only placement rule version 1 defines.  Readers refuse unknown
#: rules loudly: silently mis-routing a station lookup would be worse
#: than failing to open.
PLACEMENT_RULE = "station-hash-sha256"


def shard_for_key(key: str, shards: int) -> int:
    """The shard a routing key hashes to — stable across processes.

    Python's builtin ``hash`` is salted per interpreter, so placement
    uses SHA-256 (like :func:`repro.util.rng.derive_seed`): the same
    ``key`` maps to the same shard on any platform, under any
    ``multiprocessing`` start method, forever.  This function *is* the
    ``station-hash-sha256`` placement rule recorded in the manifest.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shards


def _shard_dirname(index: int) -> str:
    return f"shard-{index:04d}.store"


def _shardset_manifest_path(root: str) -> str:
    return os.path.join(root, SHARDSET_MANIFEST_NAME)


def is_shardset(path: str) -> bool:
    """True when ``path`` holds a shard-set federation manifest."""
    return os.path.exists(_shardset_manifest_path(str(path)))


def load_shardset_manifest(path: str) -> dict:
    """Read and structurally validate a federation's manifest.

    Cheap (one small JSON file): the way to inspect a federation's
    provenance — scenario recipe, scheme recipe, member list — without
    touching any member store.
    """
    manifest = _read_manifest(
        path, SHARDSET_MANIFEST_NAME, SHARDSET_FORMAT_NAME, SHARDSET_VERSION,
        "shard set",
    )
    placement = manifest.get("placement")
    rule = placement.get("rule") if isinstance(placement, Mapping) else None
    if rule != PLACEMENT_RULE:
        raise StoreFormatError(
            f"{path!r}: unknown placement rule {rule!r} (this reader "
            f"implements only {PLACEMENT_RULE!r}); station routing would "
            "silently disagree with the builder — rebuild or upgrade"
        )
    return manifest


def corpus_manifest(path: str) -> dict:
    """The manifest of the corpus at ``path`` — store or shard set.

    Both formats carry the same provenance keys (``scenario``,
    ``schemes``, ``meta``), so callers that only need the recipe —
    :meth:`~repro.experiments.registry.ScenarioParams.for_corpus` —
    can stay format-agnostic.
    """
    path = str(path)
    if is_shardset(path):
        return load_shardset_manifest(path)
    return load_manifest(path)


def open_corpus(path: str) -> Corpus:
    """Open the corpus at ``path``, whichever format it is.

    Returns a :class:`ShardSet` for a federation directory and a
    :class:`~repro.storage.store.TraceStore` for a single store.  Both
    are a :class:`~repro.storage.store.Corpus`, whose read API every
    consumer above this seam (scenario hydration, streaming replay,
    ``repro corpus info``) uses, so a shard-set directory works
    wherever a store does.
    """
    path = str(path)
    if is_shardset(path):
        return ShardSet.open(path)
    return TraceStore.open(path)


# ----------------------------------------------------------------------
# Peak concurrently-mapped bytes (process-local).
#
# ``store.bytes_mapped`` is an idempotent per-store high-water mark
# (max-merge), so it cannot distinguish "one shard mapped at a time"
# from "every shard mapped at once" — their maxima agree.  This tracker
# measures what the out-of-core contract actually promises: the SUM of
# member-store bytes mapped *simultaneously* in this process, reported
# as the ``shards.bytes_mapped_peak`` gauge (max-merge across cells and
# workers yields the worst per-process peak of the run).
# ----------------------------------------------------------------------


class _MappedBytesTracker:
    """Running total of member bytes this process has mapped."""

    def __init__(self) -> None:
        self.current = 0

    def acquire(self, nbytes: int) -> None:
        self.current += int(nbytes)
        obs.gauge("shards.bytes_mapped_peak", self.current)

    def release(self, nbytes: int) -> None:
        self.current -= int(nbytes)


_TRACKER = _MappedBytesTracker()


class ShardSetWriter:
    """Routes traces to member stores by station hash; commits on close.

    Every member :class:`~repro.storage.store.TraceStoreWriter` is
    created up front (so an empty shard still yields a valid empty
    store), but traces stream straight through: one :meth:`add` call
    writes one trace's columns into exactly one member and drops it —
    resident memory is bounded by a single trace regardless of the
    federation's size.

    Closing commits member manifests first, then writes the federation
    manifest atomically — the same "manifest last" crash-safety rule
    the single store follows, one level up.
    """

    def __init__(
        self,
        path: str,
        shards: int,
        scenario: Mapping[str, object] | None = None,
        meta: Mapping[str, object] | None = None,
        schemes: Sequence[Mapping[str, object]] | None = None,
        overwrite: bool = False,
    ):
        path = str(path)
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if os.path.exists(os.path.join(path, MANIFEST_NAME)):
            raise FileExistsError(
                f"{path!r} already holds a single trace store; a shard set "
                "cannot replace it in place — remove it or pick another path"
            )
        if os.path.exists(_shardset_manifest_path(path)):
            if not overwrite:
                raise FileExistsError(
                    f"{path!r} already holds a shard set; pass overwrite=True "
                    "to replace it"
                )
            # Invalidate the old federation before touching any member:
            # a crash mid-overwrite must leave "not a shard set", never
            # a stale federation manifest over half-rebuilt members.
            os.remove(_shardset_manifest_path(path))
        os.makedirs(path, exist_ok=True)
        self._path = path
        self._shards = shards
        self._scenario = dict(scenario) if scenario is not None else None
        self._meta = dict(meta) if meta is not None else {}
        self._schemes = (
            [dict(spec) for spec in schemes] if schemes is not None else None
        )
        self._writers = [
            TraceStoreWriter(
                os.path.join(path, _shard_dirname(index)), overwrite=True
            )
            for index in range(shards)
        ]
        self._counts = [0] * shards
        self._added = 0
        self._closed = False

    @property
    def shards(self) -> int:
        """Number of member stores in the federation."""
        return self._shards

    def add(
        self,
        trace: Trace,
        role: str | None = None,
        station: str | None = None,
        key: str | None = None,
    ) -> tuple[int, TraceEntry]:
        """Route one trace to its shard and append it there.

        The routing key is, in order of preference: ``key`` (an explicit
        placement identity that does not need to be stored), the entry's
        ``station``, or — for anonymous traces — a stable positional
        fallback (``trace-<n>`` in insertion order, so a deterministic
        build sequence shards deterministically).

        Returns ``(shard_index, member_entry)``; the entry's ``index``
        and ``offset`` are member-local.
        """
        if self._closed:
            raise RuntimeError("shard-set writer is closed")
        routing = key if key is not None else station
        if routing is None:
            routing = f"trace-{self._added}"
        shard = shard_for_key(routing, self._shards)
        entry = self._writers[shard].add(trace, role=role, station=station)
        self._counts[shard] += 1
        self._added += 1
        return shard, entry

    def close(self) -> None:
        """Commit every member manifest, then the federation manifest."""
        if self._closed:
            return
        for writer in self._writers:
            writer.close()
        manifest = {
            "format": SHARDSET_FORMAT_NAME,
            "version": SHARDSET_VERSION,
            "placement": {"rule": PLACEMENT_RULE, "shards": self._shards},
            "shards": [_shard_dirname(index) for index in range(self._shards)],
            "traces": self._added,
            "packets": sum(writer.packets for writer in self._writers),
            "scenario": self._scenario,
            "meta": self._meta,
        }
        # Optional additive key, mirroring the member-store manifest
        # rule: omitted entirely when absent so scheme-less federations
        # stay byte-stable.
        if self._schemes is not None:
            manifest["schemes"] = self._schemes
        try:
            text = json.dumps(manifest, indent=2, allow_nan=False)
        except ValueError as error:
            raise ValueError(
                "shard-set metadata must be JSON-serializable (finite "
                f"numbers, strings, lists, dicts): {error}"
            ) from None
        temporary = _shardset_manifest_path(self._path) + ".tmp"
        with open(temporary, "w", encoding="utf-8") as stream:
            stream.write(text + "\n")
        os.replace(temporary, _shardset_manifest_path(self._path))
        self._closed = True
        obs.add("shardset.shards_built", self._shards)
        obs.add("shardset.traces_routed", self._added)

    def abort(self) -> None:
        """Abort every member writer; no manifest is committed."""
        if self._closed:
            return
        for writer in self._writers:
            writer.abort()
        self._closed = True

    def __enter__(self) -> "ShardSetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Same contract as TraceStoreWriter: only a clean exit commits.
        if exc_type is None:
            self.close()
        else:
            self.abort()


class ShardSet(Corpus):
    """A read-only federation of member stores, opened lazily.

    Construction reads the federation manifest plus every member's JSON
    manifest — O(manifests), no column file is mapped.  The merged
    views re-index member entries globally in **shard-major order**
    (all of shard 0, then shard 1, ...), with ``offset`` rewritten to
    the federation-wide cumulative packet offset so entries tile the
    corpus contiguously, exactly like a single store's do.

    Member stores open (``np.memmap``) on first access to one of their
    traces and stay open until :meth:`release` or :meth:`close`; a
    consumer that walks shard by shard and releases in between keeps
    peak mapped bytes at one shard's size (the
    ``shards.bytes_mapped_peak`` gauge asserts this in the benchmarks).
    """

    def _parse(self) -> dict:
        path = self.path
        manifest = load_shardset_manifest(path)
        self.shard_count = int(manifest["placement"]["shards"])
        members = manifest["shards"]
        if not isinstance(members, list) or len(members) != self.shard_count:
            raise StoreFormatError(
                f"{path!r}: manifest lists {len(members)} member store(s) "
                f"but declares {self.shard_count} shards"
            )
        self._member_names = [str(name) for name in members]
        self._member_packets: list[int] = []
        self._entries = []
        self._locator: list[tuple[int, int]] = []
        offset = 0
        for shard, name in enumerate(self._member_names):
            member_path = os.path.join(path, name)
            member = load_manifest(member_path)
            entries = _parse_traces(
                member, member_path, "member", len(self._entries), offset
            )
            self._entries += entries
            self._locator += [(shard, local) for local in range(len(entries))]
            self._member_packets.append(int(member["packets"]))
            offset += self._member_packets[-1]
        declared_traces = int(manifest["traces"])
        declared_packets = int(manifest["packets"])
        if declared_traces != len(self._entries) or declared_packets != offset:
            raise StoreFormatError(
                f"{path!r}: members hold {len(self._entries)} traces / "
                f"{offset} packets but the federation manifest declares "
                f"{declared_traces} / {declared_packets}"
            )
        self.packets = offset
        self._stores: dict[int, TraceStore] = {}
        self._open = True
        obs.add("proc.shardset.opens")
        self.record_gauges()
        return manifest

    def record_gauges(self) -> None:
        """The federation's gauges, and those of each member mapped now."""
        obs.gauge("shardset.shards", self.shard_count)
        obs.gauge("shardset.traces_stored", len(self._entries))
        obs.gauge("shardset.packets_stored", self.packets)
        for store in self._stores.values():
            store.record_gauges()

    # -- member access -----------------------------------------------------

    @property
    def shard_paths(self) -> tuple[str, ...]:
        """Member store directories, in shard order."""
        return tuple(
            os.path.join(self.path, name) for name in self._member_names
        )

    def shard_nbytes(self, index: int) -> int:
        """Column payload size of one member, from its manifest alone."""
        return self._member_packets[index] * _ROW_BYTES

    def shard(self, index: int) -> TraceStore:
        """Member store ``index``, memory-mapped on first request."""
        if not self._open:
            raise RuntimeError(f"shard set at {self.path!r} is closed")
        store = self._stores.get(index)
        if store is None:
            store = TraceStore.open(self.shard_paths[index])
            self._stores[index] = store
            _TRACKER.acquire(store.nbytes)
            obs.add("proc.shard.opens")
        return store

    def shard_of(self, index: int) -> int:
        """The member shard holding global trace ``index``."""
        return self._locator[index][0]

    def station_shard(self, key: str) -> int:
        """Where the placement rule routes ``key`` in this federation."""
        return shard_for_key(key, self.shard_count)

    def release(self) -> None:
        """Close every currently mapped member store.

        Keeps the manifests (the merged views stay usable); the next
        trace access re-opens its shard.  Walk-and-release is how a
        shard-by-shard sweep keeps peak mapped bytes at O(one shard).
        Note trace identity is only stable *between* releases — callers
        holding identity-keyed caches must not release mid-use.
        """
        for store in self._stores.values():
            _TRACKER.release(store.nbytes)
            store.close()
        self._stores.clear()

    def trace(self, index: int) -> Trace:
        """Global trace ``index``, served zero-copy by its member store."""
        shard, local = self._locator[index]
        return self.shard(shard).trace(local)

    def evict(self, index: int) -> None:
        """:meth:`Corpus.evict`, delegated to the trace's member store.

        A member that is not mapped holds no pages, so it is not opened
        just to evict.
        """
        shard, local = self._locator[index]
        store = self._stores.get(shard)
        if store is not None:
            store.evict(local)

    def validate(self) -> None:
        """:meth:`Corpus.validate`, one member at a time: each member is
        released once its traces are checked, so the scan maps one
        shard's bytes at most.  Errors name the global trace index."""
        for _, indices in itertools.groupby(range(len(self)), self.shard_of):
            try:
                for index in indices:
                    _check_trace(index, self.trace(index))
            finally:
                self.release()

    def close(self) -> None:
        """Release every member store and refuse further access."""
        self.release()
        self._open = False
