"""Deterministic metrics: counters, gauges, and histograms — no clocks.

The registry is the deterministic half of the telemetry layer
(:mod:`repro.obs`): everything it records is a pure count of logical
work, so a profile taken at ``--jobs 2`` is bit-identical to the serial
one.  Three instrument kinds, three merge laws:

* **Counters** (and histogram buckets) are *additive*.  They count
  per-cell attributable work — packets defended, windows closed,
  predict calls — and merge by summation, so the run total is the sum
  of the per-cell totals in any grouping.
* **Gauges** are *high-water marks* and merge by ``max``.  That makes
  them idempotent under duplicated physical execution: every worker
  that maps the same :class:`~repro.storage.TraceStore` records the
  same ``store.bytes_mapped``, and the max is the serial value.
* **``proc.*``-prefixed names** are *process topology dependent* —
  cache hit/miss splits, memoized corpus builds, store opens, the
  window cache's pinned bytes.  They still merge by their kind's law,
  but they measure physical work or state that the serial path shares
  across cells while each parallel worker repeats it, so they are
  reported in the profile's ``process`` block and excluded from the
  bit-identity contract.

The routing between the last two groups is automatic: code that
executes inside a memoized build wraps itself in :func:`unattributed`,
and every counter recorded there is transparently moved into the
``proc.`` namespace (gauges pass through unprefixed — the max-merge law
already makes them safe).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager

__all__ = [
    "PROCESS_PREFIX",
    "MetricsRegistry",
    "active_metrics",
    "add",
    "as_process",
    "bucket_label",
    "collecting",
    "gauge",
    "is_unattributed",
    "observe",
    "unattributed",
]

#: Name prefix of the process-topology-dependent counter namespace.
PROCESS_PREFIX = "proc."


def bucket_label(value: int) -> str:
    """The power-of-two histogram bucket holding ``value``.

    ``0`` and negatives collapse into ``"0"``; positive values land in
    ``[2^k, 2^(k+1) - 1]`` buckets labelled ``"lo-hi"`` (``"1"`` for
    the singleton first bucket).  Pure integer arithmetic, so bucket
    boundaries can never drift between platforms.
    """
    v = int(value)
    if v <= 0:
        return "0"
    lo = 1 << (v.bit_length() - 1)
    hi = 2 * lo - 1
    return "1" if hi == lo else f"{lo}-{hi}"


def _bucket_sort_key(label: str) -> int:
    return int(label.split("-", 1)[0])


class MetricsRegistry:
    """A picklable, additively-mergeable bag of counters/gauges/histograms.

    Plain dicts of plain numbers — nothing here can capture a clock, a
    file handle, or an unpicklable object, so registries cross the
    ``multiprocessing`` boundary under any start method and merge
    associatively and commutatively (the property tests assert both).
    """

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(
        self,
        counters: Mapping[str, int] | None = None,
        gauges: Mapping[str, float] | None = None,
        histograms: Mapping[str, Mapping[str, int]] | None = None,
    ) -> None:
        self.counters: dict[str, int] = dict(counters or {})
        self.gauges: dict[str, float] = dict(gauges or {})
        self.histograms: dict[str, dict[str, int]] = {
            name: dict(buckets) for name, buckets in (histograms or {}).items()
        }

    # -- recording -----------------------------------------------------

    def count(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (additive merge law)."""
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if higher (max merge law)."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def observe(self, name: str, value: int) -> None:
        """Count ``value`` into histogram ``name``'s power-of-two bucket."""
        buckets = self.histograms.setdefault(name, {})
        label = bucket_label(value)
        buckets[label] = buckets.get(label, 0) + 1

    # -- merging -------------------------------------------------------

    def merge_in(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (sum / max / bucket-sum)."""
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.gauges.items():
            self.gauge_max(name, value)
        for name, buckets in other.histograms.items():
            mine = self.histograms.setdefault(name, {})
            for label, count in buckets.items():
                mine[label] = mine.get(label, 0) + count

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """A new registry holding this one merged with ``other``."""
        out = MetricsRegistry()
        out.merge_in(self)
        out.merge_in(other)
        return out

    @classmethod
    def merged(cls, registries: Iterable["MetricsRegistry"]) -> "MetricsRegistry":
        """Fold an iterable of registries (in iteration order)."""
        out = cls()
        for registry in registries:
            out.merge_in(registry)
        return out

    # -- views ---------------------------------------------------------

    def as_dict(self) -> dict[str, object]:
        """Name-sorted plain-dict view (stable across merge orders)."""
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "gauges": {name: self.gauges[name] for name in sorted(self.gauges)},
            "histograms": {
                name: {
                    label: self.histograms[name][label]
                    for label in sorted(self.histograms[name], key=_bucket_sort_key)
                }
                for name in sorted(self.histograms)
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output."""
        return cls(
            counters=payload.get("counters") or {},
            gauges=payload.get("gauges") or {},
            histograms=payload.get("histograms") or {},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return (
            self.counters == other.counters
            and self.gauges == other.gauges
            and self.histograms == other.histograms
        )

    # __slots__ classes need explicit state hooks to pickle under the
    # text protocols too, not just protocol >= 2.
    def __getstate__(self) -> tuple[dict, dict, dict]:
        return (self.counters, self.gauges, self.histograms)

    def __setstate__(self, state: tuple[dict, dict, dict]) -> None:
        self.counters, self.gauges, self.histograms = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


# ----------------------------------------------------------------------
# Process-local collection state
# ----------------------------------------------------------------------
#
# One registry is "active" per process at a time (the executor installs
# one per cell); instrumented code records through the module-level
# helpers below, which no-op when collection is off — so the
# instrumentation sites cost one dict lookup when nobody is profiling.

_ACTIVE: MetricsRegistry | None = None
_UNATTRIBUTED_DEPTH: int = 0


def active_metrics() -> MetricsRegistry | None:
    """The registry currently collecting in this process, if any."""
    return _ACTIVE


def is_unattributed() -> bool:
    """True inside a memoized build whose work is not cell-attributable."""
    return _UNATTRIBUTED_DEPTH > 0


@contextmanager
def collecting(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the process's active collection target.

    Nests by save/restore: an inner ``collecting`` (the window cache's
    capture-and-replay) temporarily redirects recording, and the outer
    registry resumes untouched when it exits.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    try:
        yield registry
    finally:
        _ACTIVE = previous


@contextmanager
def unattributed() -> Iterator[None]:
    """Mark the enclosed work as memoized/shared rather than per-cell.

    Counters and histogram observations recorded inside move into the
    ``proc.`` namespace (serial runs build shared state once, parallel
    workers once each — the counts legitimately differ); gauges pass
    through unprefixed because max-merge already absorbs duplication;
    spans are dropped entirely (see :func:`repro.obs.spans.span`).
    """
    global _UNATTRIBUTED_DEPTH
    _UNATTRIBUTED_DEPTH += 1
    try:
        yield
    finally:
        _UNATTRIBUTED_DEPTH -= 1


@contextmanager
def suspend_unattributed() -> Iterator[None]:
    """Temporarily lift the pause for a private capture.

    :func:`repro.obs.profile.captured` records *logical* names into its
    private registry even when the surrounding code path is paused —
    routing is a property of the replay context, decided each time the
    subprofile is replayed, not of the context that happened to fill
    the cache first.
    """
    global _UNATTRIBUTED_DEPTH
    previous = _UNATTRIBUTED_DEPTH
    _UNATTRIBUTED_DEPTH = 0
    try:
        yield
    finally:
        _UNATTRIBUTED_DEPTH = previous


def _route(name: str) -> str:
    if _UNATTRIBUTED_DEPTH > 0 and not name.startswith(PROCESS_PREFIX):
        return PROCESS_PREFIX + name
    return name


def add(name: str, value: int = 1) -> None:
    """Record ``value`` on counter ``name`` in the active registry."""
    if _ACTIVE is not None:
        _ACTIVE.count(_route(name), value)


def gauge(name: str, value: float) -> None:
    """Record a high-water mark in the active registry (never rerouted)."""
    if _ACTIVE is not None:
        _ACTIVE.gauge_max(name, value)


def observe(name: str, value: int) -> None:
    """Record a histogram observation in the active registry."""
    if _ACTIVE is not None:
        _ACTIVE.observe(_route(name), value)


def replay_metrics(metrics: MetricsRegistry) -> None:
    """Merge a captured sub-registry into the active one, honoring routing.

    This is how cache-transparent logical counting works: the window
    cache stores the metrics a scheme application recorded when it
    physically ran, and every later cache *request* replays them — so
    a cell observes identical counts whether its flows were computed or
    reused, and serial (shared cache) matches ``--jobs N`` (per-worker
    caches) bit for bit.
    """
    if _ACTIVE is None:
        return
    for name, value in metrics.counters.items():
        _ACTIVE.count(_route(name), value)
    for name, value in metrics.gauges.items():
        _ACTIVE.gauge_max(name, value)
    for name, buckets in metrics.histograms.items():
        mine = _ACTIVE.histograms.setdefault(_route(name), {})
        for label, count in buckets.items():
            mine[label] = mine.get(label, 0) + count


def as_process(metrics: MetricsRegistry) -> MetricsRegistry:
    """A copy of ``metrics`` routed into the ``proc.`` namespace.

    How work the executor runs once per run, outside every cell (the
    training stage), joins a run profile: the routing
    :func:`unattributed` gives memoized builds, applied after the fact.
    Gauges pass through unprefixed, as they do there.
    """
    routed = MetricsRegistry()
    with collecting(routed), unattributed():
        replay_metrics(metrics)
    return routed
