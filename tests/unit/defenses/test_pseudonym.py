"""Tests for the pseudonym baseline."""

import numpy as np
import pytest

from repro.defenses.pseudonym import PseudonymDefense
from repro.traffic.trace import Trace


class TestPseudonymDefense:
    def test_splits_by_epoch(self):
        trace = Trace.from_arrays(np.arange(10) * 100.0, np.full(10, 100))
        defended = PseudonymDefense(epoch=300.0).apply(trace)
        assert len(defended.flows) == 4  # 1000s span / 300s epochs
        assert sum(len(f) for f in defended.flows.values()) == 10

    def test_no_bytes_added(self):
        trace = Trace.from_arrays(np.arange(5) * 10.0, np.full(5, 100))
        defended = PseudonymDefense(epoch=20.0).apply(trace)
        assert defended.extra_bytes == 0

    def test_features_unchanged_within_epoch(self):
        # The paper's criticism: packets under one pseudonym stay linkable
        # and keep the original features.
        trace = Trace.from_arrays(np.arange(20) * 1.0, np.full(20, 500))
        defended = PseudonymDefense(epoch=1000.0).apply(trace)
        [flow] = defended.observable_flows
        assert np.array_equal(flow.sizes, trace.sizes)
        assert np.array_equal(flow.times, trace.times)

    def test_empty_trace(self):
        defended = PseudonymDefense().apply(Trace.empty())
        assert defended.flows == {}

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            PseudonymDefense(epoch=0.0)

    def test_too_many_epochs_raise_instead_of_wrapping(self):
        # 65,536 epochs apart: int16 epoch ids would wrap around and merge
        # the two packets into one flow.
        trace = Trace.from_arrays([0.0005, 65.5365], [100, 100])
        defense = PseudonymDefense(epoch=0.001)
        for route in (defense.apply, defense.fused_plan):
            with pytest.raises(ValueError, match=r"epoch 0\.001 s .* 65537 epochs"):
                route(trace)

    def test_last_int16_epoch_still_splits(self):
        trace = Trace.from_arrays([0.0, 32767.5], [100, 100])
        defended = PseudonymDefense(epoch=1.0).apply(trace)
        assert [len(flow) for flow in defended.observable_flows] == [1, 1]
        assert PseudonymDefense(epoch=1.0).fused_plan(trace).n_flows == 2
