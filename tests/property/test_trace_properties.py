"""Property tests on the Trace container and windowing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.windows import sliding_windows
from repro.traffic.trace import Trace, concat_traces, merge_traces


@st.composite
def traces(draw, max_len=120):
    n = draw(st.integers(min_value=0, max_value=max_len))
    gaps = draw(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=n, max_size=n))
    sizes = draw(st.lists(st.integers(min_value=1, max_value=1576), min_size=n, max_size=n))
    times = np.cumsum(np.asarray(gaps)) if n else np.zeros(0)
    return Trace.from_arrays(times, sizes)


@given(trace=traces())
@settings(max_examples=60, deadline=None)
def test_jsonl_roundtrip_lossless(trace, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "t.jsonl")
    trace.to_jsonl(path)
    loaded = Trace.from_jsonl(path)
    assert np.array_equal(loaded.times, trace.times)
    assert np.array_equal(loaded.sizes, trace.sizes)
    assert np.array_equal(loaded.directions, trace.directions)
    assert np.array_equal(loaded.ifaces, trace.ifaces)


@given(trace=traces(), window=st.floats(min_value=0.5, max_value=30.0))
@settings(max_examples=60, deadline=None)
def test_windows_never_lose_packets_at_min_one(trace, window):
    windows = sliding_windows(trace, window, min_packets=1)
    assert sum(len(w) for w in windows) == len(trace)
    for piece in windows:
        assert piece.duration <= window + 1e-9
        assert len(piece) >= 1


@given(parts=st.lists(traces(max_len=40), max_size=4))
@settings(max_examples=40, deadline=None)
def test_merge_preserves_multiset(parts):
    merged = merge_traces(parts)
    assert len(merged) == sum(len(part) for part in parts)
    assert merged.total_bytes == sum(part.total_bytes for part in parts)
    assert np.all(np.diff(merged.times) >= 0) if len(merged) else True


@given(parts=st.lists(traces(max_len=40), max_size=4), gap=st.floats(0.0, 5.0))
@settings(max_examples=40, deadline=None)
def test_concat_is_sorted_and_conserves_bytes(parts, gap):
    joined = concat_traces(parts, gap=gap)
    assert joined.total_bytes == sum(part.total_bytes for part in parts)
    if len(joined):
        assert np.all(np.diff(joined.times) >= -1e-9)
