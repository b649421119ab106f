"""Trace import/export: CSV interchange and the binary corpus store.

Real packet captures usually reach an analysis pipeline as CSV exports
(e.g. from tshark: ``tshark -r cap.pcap -T fields -e frame.time_epoch
-e frame.len ...``).  This module reads and writes that interchange
format so users can run the attack and the defenses on their own
captures — and converts it, streaming, into the columnar
:class:`~repro.storage.TraceStore` format that the experiments replay
zero-copy (see ``docs/trace-format.md``).

CSV column layout (header required): ``time,size,direction,iface,
channel`` with direction ``0`` = AP->client and ``1`` = client->AP;
``iface`` and ``channel`` are optional columns defaulting to 0 and 1.
Blank lines are skipped and stray whitespace in headers and cells is
ignored; malformed rows raise a ``ValueError`` naming the file, the
row number, and what was wrong with it.

Timestamps are written with ``repr`` (shortest exact decimal), so a
CSV round trip reproduces the original float64 values bit for bit.
"""

from __future__ import annotations

import csv
import math
import os
from collections.abc import Iterator, Sequence

from repro.traffic.trace import Trace

__all__ = [
    "csv_to_store",
    "trace_from_csv",
    "trace_to_csv",
]

_REQUIRED = ("time", "size")
_OPTIONAL_DEFAULTS = {"direction": 0, "iface": 0, "channel": 1}

#: Packets per chunk for the streaming CSV -> store conversion.
_CSV_CHUNK = 65536


def trace_to_csv(trace: Trace, path: str) -> None:
    """Write ``trace`` to ``path`` as CSV (one packet per row)."""
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(["time", "size", "direction", "iface", "channel"])
        for index in range(len(trace)):
            writer.writerow(
                [
                    repr(float(trace.times[index])),
                    int(trace.sizes[index]),
                    int(trace.directions[index]),
                    int(trace.ifaces[index]),
                    int(trace.channels[index]),
                ]
            )


def _parse_csv_rows(path: str) -> Iterator[tuple[int, float, int, int, int, int]]:
    """Yield ``(row_number, time, size, direction, iface, channel)``.

    The shared parser behind :func:`trace_from_csv` and
    :func:`csv_to_store`: validates the header, strips whitespace,
    skips blank lines, applies optional-column defaults, and reports
    malformed rows by number (1-based, counting the header as row 1).
    """
    with open(path, encoding="utf-8", newline="") as stream:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: CSV is empty (expected a header row)")
        names = [cell.strip() for cell in header]
        for column in _REQUIRED:
            if column not in names:
                raise ValueError(f"{path}: CSV is missing required column {column!r}")
        position = {name: names.index(name) for name in names}

        def cell(row: list[str], name: str) -> str:
            index = position.get(name)
            if index is None or index >= len(row):
                return ""
            return row[index].strip()

        for number, row in enumerate(reader, start=2):
            if not row or all(not value.strip() for value in row):
                continue  # blank or whitespace-only line
            try:
                raw_time = cell(row, "time")
                raw_size = cell(row, "size")
                if not raw_time or not raw_size:
                    missing = "time" if not raw_time else "size"
                    raise ValueError(f"missing value for required column {missing!r}")
                time = float(raw_time)
                size = int(raw_size)
                if not math.isfinite(time):
                    raise ValueError(f"non-finite timestamp {raw_time!r}")
                if time < 0:
                    raise ValueError(f"negative timestamp {time}")
                if size <= 0:
                    raise ValueError(f"non-positive packet size {size}")
                optional = {}
                for name, default in _OPTIONAL_DEFAULTS.items():
                    raw = cell(row, name)
                    optional[name] = int(raw) if raw else default
            except ValueError as error:
                raise ValueError(
                    f"{path}: malformed row {number}: {error} (row: {row!r})"
                ) from None
            yield (
                number,
                time,
                size,
                optional["direction"],
                optional["iface"],
                optional["channel"],
            )


def trace_from_csv(path: str, label: str | None = None) -> Trace:
    """Read a CSV written by :func:`trace_to_csv` (or a tshark export).

    Rows are re-sorted by timestamp; missing optional columns take
    their defaults; blank lines and stray whitespace are tolerated.
    Raises ``ValueError`` (naming the row) on malformed input.
    """
    times: list[float] = []
    sizes: list[int] = []
    directions: list[int] = []
    ifaces: list[int] = []
    channels: list[int] = []
    for _, time, size, direction, iface, channel in _parse_csv_rows(path):
        times.append(time)
        sizes.append(size)
        directions.append(direction)
        ifaces.append(iface)
        channels.append(channel)
    return Trace.from_arrays(
        times=times,
        sizes=sizes,
        directions=directions,
        ifaces=ifaces,
        channels=channels,
        label=label,
        sort=True,
    )


# ----------------------------------------------------------------------
# CSV -> corpus store (lazy import: repro.storage imports Trace from
# this package, so importing it at module load would cycle).
# ----------------------------------------------------------------------


def csv_to_store(
    csv_paths: str | Sequence[str],
    store_path: str,
    labels: Sequence[str | None] | None = None,
    chunk: int = _CSV_CHUNK,
    scenario=None,
    meta=None,
    schemes=None,
    overwrite: bool = False,
):
    """Convert CSV capture(s) into a corpus store, one trace per file.

    Streaming: at most ``chunk`` parsed packets are resident at a time,
    so captures larger than RAM convert fine.  The price of streaming
    is that each CSV must already be time-sorted (tshark exports are);
    an out-of-order row raises with its row number — load the file with
    :func:`trace_from_csv` (which sorts in memory) instead.

    ``scenario`` / ``meta`` / ``schemes`` pass straight through to the
    store manifest, so converted captures carry provenance just like
    generated corpora.  Returns the reopened, read-only
    :class:`~repro.storage.TraceStore`.
    """
    from repro.storage import TraceStore, TraceStoreWriter

    if isinstance(csv_paths, (str, os.PathLike)):
        csv_paths = [csv_paths]
    csv_paths = [str(p) for p in csv_paths]
    if labels is not None and len(labels) != len(csv_paths):
        raise ValueError(
            f"got {len(labels)} labels for {len(csv_paths)} CSV files"
        )
    with TraceStoreWriter(
        store_path,
        scenario=scenario,
        meta=meta,
        schemes=schemes,
        overwrite=overwrite,
    ) as writer:
        for index, csv_path in enumerate(csv_paths):
            label = labels[index] if labels is not None else None
            writer.begin_trace(
                label=label, meta={"source": os.path.basename(csv_path)}
            )
            times: list[float] = []
            sizes: list[int] = []
            directions: list[int] = []
            ifaces: list[int] = []
            channels: list[int] = []
            last_time: float | None = None

            def flush() -> None:
                writer.append_columns(times, sizes, directions, ifaces, channels)
                times.clear()
                sizes.clear()
                directions.clear()
                ifaces.clear()
                channels.clear()

            for number, time, size, direction, iface, channel in _parse_csv_rows(
                csv_path
            ):
                if last_time is not None and time < last_time:
                    raise ValueError(
                        f"{csv_path}: row {number} goes backwards in time "
                        f"({time} after {last_time}); the streaming converter "
                        "needs a time-sorted capture — sort it first or load "
                        "it with trace_from_csv()"
                    )
                last_time = time
                times.append(time)
                sizes.append(size)
                directions.append(direction)
                ifaces.append(iface)
                channels.append(channel)
                if len(times) >= chunk:
                    flush()
            flush()
            writer.end_trace()
    return TraceStore.open(store_path)
