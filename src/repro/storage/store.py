"""The columnar on-disk trace corpus: contiguous column blocks + manifest.

The paper's eavesdropping attack is evaluated on captured 802.11
traces; at production scale those corpora are orders of magnitude too
large to re-parse row by row (CSV) or regenerate in-process for every
run.  A :class:`TraceStore` persists a corpus of labeled
:class:`~repro.traffic.trace.Trace` objects as **one contiguous binary
block per column** (times, sizes, directions, ifaces, channels, rssi)
plus a JSON manifest recording per-trace offsets and metadata.

Why columnar + memory-mapped:

* **Zero-copy open.**  ``TraceStore.open`` memory-maps each column once
  and reconstructs every trace through
  :meth:`~repro.traffic.trace.Trace._trusted` as *views* into the maps
  — no parsing, no per-packet objects, no RAM proportional to corpus
  size.  The OS pages data in as the featurizer touches it.
* **Bounded-memory build.**  The writer streams: columns are appended
  chunk by chunk (:meth:`TraceStoreWriter.append_columns`), so a corpus
  larger than RAM can be converted from CSV or generated incrementally.
* **Bit-exact round trip.**  Columns are written as raw little-endian
  numpy bytes (the same dtypes :class:`~repro.traffic.trace.Trace`
  uses in memory), so ``trace -> store -> trace`` preserves every
  packet bit for bit — including NaN RSSI payloads — which the
  property suite asserts.

Layout on disk (a directory)::

    corpus.store/
        manifest.json   # format/version, per-trace offsets, metadata
        times.bin       # float64 LE, all traces concatenated
        sizes.bin       # int64 LE
        directions.bin  # int8
        ifaces.bin      # int16 LE
        channels.bin    # int8
        rssi.bin        # float32 LE

The manifest is written last (atomically, via rename), so a crashed or
interrupted build never masquerades as a valid store.  See
``docs/trace-format.md`` for the full format specification and the
versioning/compatibility rules.
"""

from __future__ import annotations

import json
import mmap
import os
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.traffic.trace import Trace, column_problem

__all__ = [
    "COLUMN_DTYPES",
    "Corpus",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "SHARDSET_MANIFEST_NAME",
    "StoreFormatError",
    "TraceEntry",
    "TraceStore",
    "TraceStoreWriter",
    "load_manifest",
]

#: Manifest ``format`` discriminator — never reuse for a different layout.
FORMAT_NAME = "repro-tracestore"

#: Highest manifest ``version`` this reader understands.  Bump only for
#: layout changes an old reader would misinterpret; readers accept any
#: version ``<= FORMAT_VERSION`` and refuse newer ones loudly.
FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"

#: Federation manifest filename (see :mod:`repro.storage.shards`).
#: Declared here so the writer can refuse to bury a shard set under a
#: single-store manifest without importing the shards module.
SHARDSET_MANIFEST_NAME = "shardset.json"

#: Column name -> on-disk dtype (explicitly little-endian; these match
#: the in-memory dtypes of :class:`~repro.traffic.trace.Trace`).
COLUMN_DTYPES: Mapping[str, str] = {
    "times": "<f8",
    "sizes": "<i8",
    "directions": "|i1",
    "ifaces": "<i2",
    "channels": "|i1",
    "rssi": "<f4",
}

#: Bytes one packet occupies across all six column files.
_ROW_BYTES = sum(np.dtype(dtype).itemsize for dtype in COLUMN_DTYPES.values())

#: Defaults for optional columns, mirroring ``Trace.from_arrays``.
_COLUMN_DEFAULTS: Mapping[str, float] = {
    "directions": 0,
    "ifaces": 0,
    "channels": 1,
    "rssi": np.nan,
}


class StoreFormatError(ValueError):
    """The on-disk data is not a readable trace store (wrong format,
    unsupported version, or column files inconsistent with the
    manifest)."""


def _column_path(root: str, name: str) -> str:
    return os.path.join(root, f"{name}.bin")


def _manifest_path(root: str) -> str:
    return os.path.join(root, MANIFEST_NAME)


def _read_manifest(
    path: str, filename: str, format_name: str, version: int, kind: str
) -> dict:
    """Read the JSON manifest ``filename`` under ``path`` and check its
    ``format`` discriminator and ``version`` (``1..version``).

    The one manifest reader of both corpus formats; ``kind`` names the
    format in errors ("trace store", "shard set").
    """
    manifest_path = os.path.join(str(path), filename)
    if not os.path.exists(manifest_path):
        raise StoreFormatError(
            f"{path!r} is not a {kind}: no {filename} found "
            "(an interrupted build never writes one)"
        )
    with open(manifest_path, encoding="utf-8") as stream:
        try:
            manifest = json.load(stream)
        except ValueError as error:
            raise StoreFormatError(
                f"{path!r}: {filename} is not valid JSON: {error}"
            ) from None
    declared = manifest.get("format") if isinstance(manifest, dict) else None
    if declared != format_name:
        raise StoreFormatError(
            f"{path!r}: {filename} format is {declared!r}, "
            f"expected {format_name!r}"
        )
    declared = manifest.get("version")
    if not isinstance(declared, int) or not 1 <= declared <= version:
        raise StoreFormatError(
            f"{path!r}: {kind} version {declared!r} is not supported by this "
            f"reader (understands 1..{version}); upgrade the package or "
            f"rebuild the {kind}"
        )
    return manifest


def load_manifest(path: str) -> dict:
    """Read and structurally validate a store's manifest.

    Cheap (one small JSON file) — the way to inspect a corpus's
    provenance without mapping its columns.
    """
    return _read_manifest(
        path, MANIFEST_NAME, FORMAT_NAME, FORMAT_VERSION, "trace store"
    )


@dataclass(frozen=True)
class TraceEntry:
    """One trace's manifest record.

    Attributes:
        index: position in the store (stable iteration order).
        offset: first packet's row in the column blocks.
        count: number of packets.
        label: application label (classifier ground truth), or None.
        role: corpus role (``"train"`` / ``"eval"``), or None for
            stores that are not scenario splits.
        station: observed flow identity for streaming replay, or None.
        meta: the trace's free-form metadata (JSON-safe values).
    """

    index: int
    offset: int
    count: int
    label: str | None = None
    role: str | None = None
    station: str | None = None
    meta: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "offset": self.offset,
            "count": self.count,
            "label": self.label,
            "role": self.role,
            "station": self.station,
            "meta": self.meta,
        }


class TraceStoreWriter:
    """Streams traces into a new store; the manifest commits on close.

    Use either the one-shot :meth:`add` (a whole validated trace) or
    the chunked protocol — :meth:`begin_trace`, repeated
    :meth:`append_columns`, :meth:`end_trace` — which never holds more
    than one chunk in memory and is how the CSV converter ingests
    corpora larger than RAM.

    The writer enforces the :class:`~repro.traffic.trace.Trace`
    invariants (equal column lengths, finite non-negative sorted times,
    strictly positive sizes) on every chunk, so readers can rebuild
    traces through the unchecked ``Trace._trusted`` fast path.
    """

    def __init__(
        self,
        path: str,
        scenario: Mapping[str, object] | None = None,
        meta: Mapping[str, object] | None = None,
        schemes: Sequence[Mapping[str, object]] | None = None,
        overwrite: bool = False,
    ):
        path = str(path)
        if os.path.exists(os.path.join(path, SHARDSET_MANIFEST_NAME)):
            # Even with overwrite=True: a single store written into a
            # federation directory would leave the shard-set manifest
            # pointing at clobbered members.
            raise FileExistsError(
                f"{path!r} already holds a shard-set federation; a single "
                "trace store cannot replace it in place — remove it or "
                "pick another path"
            )
        if os.path.exists(_manifest_path(path)):
            if not overwrite:
                raise FileExistsError(
                    f"{path!r} already holds a trace store; pass overwrite=True "
                    "to replace it"
                )
            # Invalidate the old store *before* touching its column
            # files: a crash mid-overwrite must leave "not a trace
            # store", never the stale manifest over fresh column bytes.
            os.remove(_manifest_path(path))
        os.makedirs(path, exist_ok=True)
        self._path = path
        self._scenario = dict(scenario) if scenario is not None else None
        self._schemes = [dict(spec) for spec in schemes] if schemes is not None else None
        self._meta = dict(meta) if meta is not None else {}
        # "wb" truncates: overwriting an existing store can never leave
        # stale column bytes behind the new manifest.
        self._files = {
            name: open(_column_path(path, name), "wb") for name in COLUMN_DTYPES
        }
        self._entries: list[TraceEntry] = []
        self._packets = 0
        self._pending: dict | None = None
        self._closed = False

    # -- chunked protocol --------------------------------------------------

    def begin_trace(
        self,
        label: str | None = None,
        role: str | None = None,
        station: str | None = None,
        meta: Mapping[str, object] | None = None,
    ) -> None:
        """Open a new trace; subsequent chunks append to it."""
        self._require_open()
        if self._pending is not None:
            raise RuntimeError("previous trace is still open; call end_trace()")
        self._pending = {
            "label": label,
            "role": role,
            "station": station,
            "meta": dict(meta) if meta is not None else {},
            "count": 0,
            "last_time": None,
        }

    def append_columns(
        self,
        times: Sequence[float],
        sizes: Sequence[int],
        directions: Sequence[int] | None = None,
        ifaces: Sequence[int] | None = None,
        channels: Sequence[int] | None = None,
        rssi: Sequence[float] | None = None,
    ) -> None:
        """Append one chunk of packets to the open trace.

        Chunks must arrive in time order (within and across chunks);
        omitted optional columns take the ``Trace.from_arrays``
        defaults.  Validation failures name the trace being written.
        """
        self._require_open()
        if self._pending is None:
            raise RuntimeError("no open trace; call begin_trace() first")
        who = f"trace {len(self._entries)}"
        columns = {
            "times": np.ascontiguousarray(times, dtype=COLUMN_DTYPES["times"]),
            "sizes": np.ascontiguousarray(sizes, dtype=COLUMN_DTYPES["sizes"]),
        }
        n = len(columns["times"])
        for name, values in (
            ("directions", directions),
            ("ifaces", ifaces),
            ("channels", channels),
            ("rssi", rssi),
        ):
            dtype = COLUMN_DTYPES[name]
            if values is None:
                columns[name] = np.full(n, _COLUMN_DEFAULTS[name], dtype=dtype)
            else:
                columns[name] = np.ascontiguousarray(values, dtype=dtype)
        for name, column in columns.items():
            if len(column) != n:
                raise ValueError(
                    f"{who}: column {name!r} has length {len(column)}, "
                    f"expected {n}"
                )
        if n:
            t = columns["times"]
            boundary = self._pending["last_time"]
            if boundary is not None and float(t[0]) < boundary:
                raise ValueError(
                    f"{who}: chunk starts at {float(t[0])}, before the "
                    f"previous chunk's last packet at {boundary}"
                )
            problem = column_problem(t, columns["sizes"])
            if problem is not None:
                raise ValueError(f"{who}: {problem}")
            self._pending["last_time"] = float(t[-1])
        for name, column in columns.items():
            self._files[name].write(column.tobytes())
        self._pending["count"] += n

    def end_trace(self) -> TraceEntry:
        """Seal the open trace and record its manifest entry."""
        self._require_open()
        if self._pending is None:
            raise RuntimeError("no open trace; call begin_trace() first")
        pending, self._pending = self._pending, None
        entry = TraceEntry(
            index=len(self._entries),
            offset=self._packets,
            count=pending["count"],
            label=pending["label"],
            role=pending["role"],
            station=pending["station"],
            meta=pending["meta"],
        )
        self._entries.append(entry)
        self._packets += entry.count
        return entry

    # -- one-shot ----------------------------------------------------------

    def add(
        self,
        trace: Trace,
        role: str | None = None,
        station: str | None = None,
    ) -> TraceEntry:
        """Append a whole trace (label and meta taken from the trace)."""
        self.begin_trace(
            label=trace.label, role=role, station=station, meta=trace.meta
        )
        self.append_columns(
            trace.times, trace.sizes, trace.directions,
            trace.ifaces, trace.channels, trace.rssi,
        )
        return self.end_trace()

    # -- lifecycle ---------------------------------------------------------

    @property
    def packets(self) -> int:
        """Packets sealed so far (open-trace chunks not included)."""
        return self._packets

    def close(self) -> None:
        """Flush columns and commit the manifest (atomically).

        Refuses while a trace is still open: silently sealing it would
        commit a possibly half-written trace as valid.  Call
        :meth:`end_trace` (or :meth:`abort` to discard the build).
        """
        if self._closed:
            return
        if self._pending is not None:
            raise RuntimeError(
                "a trace is still open; call end_trace() to seal it or "
                "abort() to discard the build"
            )
        for handle in self._files.values():
            handle.close()
        manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "packets": self._packets,
            "columns": dict(COLUMN_DTYPES),
            "scenario": self._scenario,
            "meta": self._meta,
            "traces": [entry.to_json() for entry in self._entries],
        }
        # Optional key: a defense-scheme recipe attached to the corpus
        # (see docs/trace-format.md).  Omitted entirely when absent so
        # pre-scheme manifests stay byte-stable; old readers ignore it,
        # hence no version bump.
        if self._schemes is not None:
            manifest["schemes"] = self._schemes
        try:
            text = json.dumps(manifest, indent=2, allow_nan=False)
        except ValueError as error:
            raise ValueError(
                "trace metadata must be JSON-serializable (finite numbers, "
                f"strings, lists, dicts): {error}"
            ) from None
        temporary = _manifest_path(self._path) + ".tmp"
        with open(temporary, "w", encoding="utf-8") as stream:
            stream.write(text + "\n")
        os.replace(temporary, _manifest_path(self._path))
        self._closed = True
        obs.add("store.traces_written", len(self._entries))
        obs.add("store.packets_written", self._packets)

    def abort(self) -> None:
        """Close file handles without committing a manifest."""
        if self._closed:
            return
        for handle in self._files.values():
            handle.close()
        self._closed = True

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("writer is closed")

    def __enter__(self) -> "TraceStoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A failed build must not look like a finished corpus: only a
        # clean exit commits the manifest.
        if exc_type is None:
            self.close()
        else:
            self.abort()


def _parse_traces(
    manifest: dict, path: str, noun: str, index: int = 0, offset: int = 0
) -> list[TraceEntry]:
    """Entries for a store manifest's ``traces`` records.

    Checks that no count is negative, that the records tile the store's
    columns from offset 0 and that they add up to the declared
    ``packets``; errors name ``path`` and the record's position there.
    ``noun`` is what the records tile ("columns", or "member" for a
    shard-set member).  ``index`` and ``offset`` are where the first
    entry lands in the corpus being read: a shard set re-indexes its
    members' entries globally.
    """
    packets = int(manifest["packets"])
    entries: list[TraceEntry] = []
    tiled = 0
    for position, record in enumerate(manifest.get("traces", [])):
        count = int(record["count"])
        if count < 0:
            raise StoreFormatError(
                f"{path!r}: trace {position} declares a negative packet "
                f"count ({count})"
            )
        if int(record["offset"]) != tiled:
            raise StoreFormatError(
                f"{path!r}: trace {position} claims offset {record['offset']}, "
                f"expected {tiled} (entries must tile the {noun} contiguously)"
            )
        entries.append(
            TraceEntry(
                index=index + position,
                offset=offset + tiled,
                count=count,
                label=record.get("label"),
                role=record.get("role"),
                station=record.get("station"),
                meta=record.get("meta") or {},
            )
        )
        tiled += count
    if tiled != packets:
        raise StoreFormatError(
            f"{path!r}: manifest counts {tiled} packets across traces but "
            f"declares {packets}"
        )
    return entries


class Corpus:
    """The read API a corpus offers, whatever its on-disk format.

    A subclass reads its manifest in ``_parse`` (setting ``packets``,
    the provenance attributes and ``_entries``, globally indexed and
    tiling the corpus contiguously), and serves :meth:`trace` and
    :meth:`close`; everything else here works off the entries.
    :class:`TraceStore` and :class:`~repro.storage.ShardSet` are the
    two formats.
    """

    path: str
    packets: int
    scenario: dict | None
    schemes: list | None
    meta: dict
    _entries: list[TraceEntry]

    def __init__(self, path: str):
        self.path = str(path)
        try:
            manifest = self._parse()
        except StoreFormatError:
            raise
        except (KeyError, TypeError, ValueError) as error:
            raise StoreFormatError(
                f"{self.path!r}: malformed manifest: {error!r}"
            ) from None
        self.scenario = manifest.get("scenario")
        self.schemes = manifest.get("schemes")
        self.meta = manifest.get("meta") or {}

    def _parse(self) -> dict:
        """Read and check the manifest; return it."""
        raise NotImplementedError

    def record_gauges(self) -> None:
        """Record the gauges an open records (again, for a run reusing it)."""
        raise NotImplementedError

    @classmethod
    def open(cls, path: str):
        """Open an existing corpus read-only."""
        return cls(path)

    def trace(self, index: int) -> Trace:
        """Trace ``index`` as zero-copy views into mapped columns.

        The same object is returned on repeated calls (until the corpus
        is closed, or a shard set releases the trace's member), so
        identity-keyed caches (e.g.
        :class:`~repro.analysis.batch.WindowCache`) behave exactly as
        they do for in-memory corpora.
        """
        raise NotImplementedError

    def evict(self, index: int) -> None:
        """Give back the resident pages of trace ``index``'s columns.

        A residency hint for a trace no later request reads (a training
        capture once its rows are computed): the trace object and its
        views stay valid, and a later read faults the pages back in
        from the page cache, so nothing observable changes but RSS.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Drop column maps and cached traces; refuse further access."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> tuple[TraceEntry, ...]:
        """Every trace's manifest record, in corpus order."""
        return tuple(self._entries)

    def entry(self, index: int) -> TraceEntry:
        return self._entries[index]

    def __getitem__(self, index: int) -> Trace:
        return self.trace(index)

    def __iter__(self) -> Iterator[Trace]:
        for index in range(len(self._entries)):
            yield self.trace(index)

    def select(
        self, role: str | None = None, label: str | None = None
    ) -> Iterator[TraceEntry]:
        """Entries matching ``role`` and/or ``label`` (None = any)."""
        for entry in self._entries:
            if role is not None and entry.role != role:
                continue
            if label is not None and entry.label != label:
                continue
            yield entry

    def traces_by_label(self, role: str | None = None) -> dict[str, list[Trace]]:
        """Label -> traces mapping (insertion order = corpus order).

        Unlabeled entries are skipped, consistent with :meth:`labels` —
        they have no classifier ground truth to group under.
        """
        grouped: dict[str, list[Trace]] = {}
        for entry in self.select(role=role):
            if entry.label is None:
                continue
            grouped.setdefault(entry.label, []).append(self.trace(entry.index))
        return grouped

    def labels(self) -> tuple[str, ...]:
        """Distinct labels, in first-seen corpus order."""
        seen: dict[str, None] = {}
        for entry in self._entries:
            if entry.label is not None:
                seen.setdefault(entry.label)
        return tuple(seen)

    def scheme_specs(self):
        """The defense-scheme recipe attached to this corpus, parsed.

        Returns a tuple of :class:`~repro.schemes.SchemeSpec` (empty
        when the manifest carries no ``schemes`` key).  The recipe is
        provenance: it names the scheme stack the corpus was built for,
        and :func:`repro.schemes.build_stack` rehydrates it to a scheme
        whose output is bit-identical to the one recorded (the
        round-trip the integration tests assert).
        """
        if not self.schemes:
            return ()
        from repro.schemes.spec import specs_from_json

        try:
            return specs_from_json(self.schemes)
        except ValueError as error:
            raise StoreFormatError(
                f"{self.path!r}: malformed schemes recipe: {error}"
            ) from None

    @property
    def nbytes(self) -> int:
        """Total size of the column payload on disk."""
        return self.packets * _ROW_BYTES

    def validate(self) -> None:
        """Scan every trace and re-check the Trace invariants.

        Directions must also be 0 (downlink) or 1 (uplink).

        Not called on open (it touches every page of a possibly huge
        corpus); meant for tests and for auditing untrusted files.
        """
        for entry in self._entries:
            _check_trace(entry.index, self.trace(entry.index))

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _check_trace(index: int, trace: Trace) -> None:
    problem = column_problem(trace.times, trace.sizes)
    if problem is None:
        # The featurizers skip other directions, so a corrupt byte
        # would silently change features rather than fail.
        directions = trace.directions
        stray = np.flatnonzero((directions != 0) & (directions != 1))
        if len(stray):
            problem = (
                f"packet {int(stray[0])} has direction "
                f"{int(directions[stray[0]])}, not 0 (downlink) or 1 (uplink)"
            )
    if problem is not None:
        raise StoreFormatError(f"trace {index}: {problem}")


class TraceStore(Corpus):
    """A read-only, memory-mapped view of a persisted corpus.

    Opening is O(manifest): the column files are mapped (never read
    eagerly) and each trace materializes as column *views* through
    ``Trace._trusted`` on first access.  Maps are read-only, so the
    immutability every downstream cache assumes is enforced by the OS.
    """

    def _parse(self) -> dict:
        path = self.path
        manifest = load_manifest(path)
        self.packets = int(manifest["packets"])
        columns = manifest.get("columns") or {}
        if set(columns) != set(COLUMN_DTYPES) or any(
            columns[name] != dtype for name, dtype in COLUMN_DTYPES.items()
        ):
            raise StoreFormatError(
                f"{path!r}: column dtypes {columns!r} do not match the "
                f"version-{FORMAT_VERSION} layout {dict(COLUMN_DTYPES)!r}"
            )
        self._entries = _parse_traces(manifest, path, "columns")
        self._columns: dict[str, np.ndarray] | None = {}
        for name, dtype in COLUMN_DTYPES.items():
            column_path = _column_path(path, name)
            itemsize = np.dtype(dtype).itemsize
            try:
                actual = os.path.getsize(column_path)
            except OSError:
                raise StoreFormatError(
                    f"{path!r}: column file {name}.bin is missing"
                ) from None
            if actual != self.packets * itemsize:
                raise StoreFormatError(
                    f"{path!r}: column file {name}.bin holds {actual} bytes, "
                    f"expected {self.packets * itemsize} "
                    f"({self.packets} packets x {itemsize} B)"
                )
            if self.packets:
                self._columns[name] = np.memmap(column_path, dtype=dtype, mode="r")
            else:  # np.memmap refuses zero-length files
                self._columns[name] = np.empty(0, dtype=dtype)
        self._traces: dict[int, Trace] = {}
        # Opens are physical per-process work (each worker maps its own
        # view), so the counter is proc.*; the gauges are idempotent
        # high-water marks — every process that maps the same store
        # reports the same values, and max-merge keeps them run-stable.
        obs.add("proc.store.opens")
        self.record_gauges()
        return manifest

    def record_gauges(self) -> None:
        obs.gauge("store.bytes_mapped", self.nbytes)
        obs.gauge("store.traces_stored", len(self._entries))
        obs.gauge("store.packets_stored", self.packets)

    @classmethod
    def create(
        cls,
        path: str,
        scenario: Mapping[str, object] | None = None,
        meta: Mapping[str, object] | None = None,
        schemes: Sequence[Mapping[str, object]] | None = None,
        overwrite: bool = False,
    ) -> TraceStoreWriter:
        """Start writing a new store at ``path`` (a directory)."""
        return TraceStoreWriter(
            path, scenario=scenario, meta=meta, schemes=schemes, overwrite=overwrite
        )

    def trace(self, index: int) -> Trace:
        cached = self._traces.get(index)
        if cached is not None:
            return cached
        if self._columns is None:
            raise RuntimeError(f"store at {self.path!r} is closed")
        entry = self._entries[index]
        lo, hi = entry.offset, entry.offset + entry.count
        trace = Trace._trusted(
            self._columns["times"][lo:hi],
            self._columns["sizes"][lo:hi],
            self._columns["directions"][lo:hi],
            self._columns["ifaces"][lo:hi],
            self._columns["channels"][lo:hi],
            self._columns["rssi"][lo:hi],
            entry.label,
            dict(entry.meta),
        )
        self._traces[index] = trace
        return trace

    def evict(self, index: int) -> None:
        """:meth:`Corpus.evict`: ``madvise(MADV_DONTNEED)`` on the pages
        that lie wholly inside the trace's range in each column (a page
        shared with a neighbouring trace stays), through the ``mmap``
        each column's ``np.memmap`` holds.  The advised bytes count in
        ``proc.store.evicted_bytes``.  A no-op where ``madvise`` is
        missing, on a closed store and on a zero-length one.
        """
        advice = getattr(mmap, "MADV_DONTNEED", None)
        if advice is None or not self._columns:
            return
        entry = self._entries[index]
        page = mmap.PAGESIZE
        evicted = 0
        for column in self._columns.values():
            advise = getattr(getattr(column, "_mmap", None), "madvise", None)
            if advise is None:
                continue
            lo = -(-entry.offset * column.itemsize // page) * page
            hi = (entry.offset + entry.count) * column.itemsize // page * page
            if hi > lo:
                advise(advice, lo, hi - lo)
                evicted += hi - lo
        if evicted:
            obs.add("proc.store.evicted_bytes", evicted)

    def close(self) -> None:
        """Drop column maps and cached traces.

        Traces already handed out keep their views alive (numpy holds
        the underlying buffer); this only releases the store's own
        references so the maps can be reclaimed once callers drop
        theirs.
        """
        self._traces.clear()
        self._columns = None


def write_traces(
    path: str,
    traces: Iterable[Trace | tuple[Trace, Mapping[str, object]]],
    scenario: Mapping[str, object] | None = None,
    meta: Mapping[str, object] | None = None,
    schemes: Sequence[Mapping[str, object]] | None = None,
    overwrite: bool = False,
) -> TraceStore:
    """Persist ``traces`` to a new store and reopen it read-only.

    Items may be bare traces or ``(trace, extra)`` pairs where ``extra``
    provides the entry's ``role`` and/or ``station``.  ``schemes``
    attaches a defense-scheme recipe to the manifest, exactly as
    :class:`TraceStoreWriter` records it.
    """
    with TraceStoreWriter(
        path, scenario=scenario, meta=meta, schemes=schemes, overwrite=overwrite
    ) as writer:
        for item in traces:
            if isinstance(item, tuple):
                trace, extra = item
                writer.add(
                    trace,
                    role=extra.get("role"),
                    station=extra.get("station"),
                )
            else:
                writer.add(item)
    return TraceStore.open(path)
