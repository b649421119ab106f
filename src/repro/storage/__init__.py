"""Persistent trace corpora: the columnar, memory-mapped storage seam.

Everything above this package (featurizer, streaming engine,
experiments, CLI) consumes :class:`~repro.traffic.trace.Trace`
objects; everything below it is bytes on disk.  The
:class:`TraceStore` format decouples corpus size from RAM — traces are
reconstructed zero-copy from memory-mapped column blocks — and the
:class:`ShardSet` federation stacks N of them behind one manifest so
corpus size also decouples from what a single directory (or a single
worker's address space) can hold.

Both formats are a :class:`Corpus`: one read API (entries, selection,
labels, traces, provenance, ``validate``) over one manifest reader and
one trace-record parser, so each format adds only how it maps columns.
Consumers that accept "a corpus path" should open it through
:func:`open_corpus`, which dispatches on the directory's manifest, and
test ``isinstance(x, Corpus)`` for an already open one.  See
``docs/trace-format.md`` for both on-disk specifications.
"""

from repro.storage.shards import (
    PLACEMENT_RULE,
    SHARDSET_FORMAT_NAME,
    SHARDSET_VERSION,
    ShardSet,
    ShardSetWriter,
    corpus_manifest,
    is_shardset,
    load_shardset_manifest,
    open_corpus,
    shard_for_key,
)
from repro.storage.store import (
    COLUMN_DTYPES,
    Corpus,
    FORMAT_NAME,
    FORMAT_VERSION,
    SHARDSET_MANIFEST_NAME,
    StoreFormatError,
    TraceEntry,
    TraceStore,
    TraceStoreWriter,
    load_manifest,
    write_traces,
)

__all__ = [
    "COLUMN_DTYPES",
    "Corpus",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "PLACEMENT_RULE",
    "SHARDSET_FORMAT_NAME",
    "SHARDSET_MANIFEST_NAME",
    "SHARDSET_VERSION",
    "ShardSet",
    "ShardSetWriter",
    "StoreFormatError",
    "TraceEntry",
    "TraceStore",
    "TraceStoreWriter",
    "corpus_manifest",
    "is_shardset",
    "load_manifest",
    "load_shardset_manifest",
    "open_corpus",
    "shard_for_key",
    "write_traces",
]
