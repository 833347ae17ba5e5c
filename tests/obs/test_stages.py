"""Summary-mode stage accounting: the StageAccumulator contract.

The accumulator mirrors the :class:`~repro.obs.metrics.MetricsRegistry`
discipline — lossless ``to_dict``/``from_dict``, associative ``merge`` —
because per-worker shards must fold into exactly what one process would
have recorded.  The fused-kernel side of the contract (summary totals ==
scalar trace-span sums) lives in ``tests/system/test_stage_reconciliation``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import LATENCY_BOUNDS_NS
from repro.obs.stages import (
    NULL_STAGES,
    STAGES_SCHEMA_VERSION,
    NullStageAccumulator,
    StageAccumulator,
)

STAGES = ("write.hash", "write.crypto", "read.nvm")

samples = st.lists(
    st.tuples(st.sampled_from(STAGES), st.floats(0.0, 1e7, allow_nan=False)),
    max_size=40,
)


def fill(accumulator: StageAccumulator, pairs) -> StageAccumulator:
    for stage, value in pairs:
        accumulator.record(stage, value)
    return accumulator


class TestRecording:
    def test_record_creates_stage_lazily(self):
        accumulator = StageAccumulator()
        assert accumulator.stage_names() == []
        accumulator.record("write.hash", 42.0)
        assert accumulator.stage_names() == ["write.hash"]
        assert accumulator.counts() == {"write.hash": 1}
        assert accumulator.totals() == {"write.hash": 42.0}

    def test_record_many_is_sequential_observe(self):
        columnar = StageAccumulator()
        columnar.record_many("write.nvm", [10.0, 20.0, 5.0])
        scalar = fill(StageAccumulator(), [("write.nvm", v) for v in (10.0, 20.0, 5.0)])
        assert columnar.to_dict() == scalar.to_dict()

    @settings(max_examples=200, deadline=None)
    @given(
        before=st.lists(st.floats(-1e3, 1e7, allow_nan=False), max_size=5),
        column=st.one_of(
            st.just([]),
            st.lists(st.floats(-1e3, 1e7, allow_nan=False), min_size=1, max_size=1),
            st.lists(st.floats(-1e3, 1e7, allow_nan=False), max_size=60),
        ),
        form=st.sampled_from(["list", "tuple", "generator"]),
    )
    def test_record_many_is_record_of_each_sample(self, before, column, form):
        # One fold per flush must leave exactly what one record() per
        # sample leaves, on a fresh stage or an existing one, for a list,
        # a tuple or a one-shot generator; repr() tells -0.0 from 0.0.
        columnar = fill(StageAccumulator(), [("write.nvm", v) for v in before])
        scalar = fill(StageAccumulator(), [("write.nvm", v) for v in before + column])
        flush = {"list": list, "tuple": tuple, "generator": lambda c: (v for v in c)}[form]
        columnar.record_many("write.nvm", flush(column))
        assert repr(columnar.to_dict()) == repr(scalar.to_dict())

    def test_record_many_empty_creates_no_stage(self):
        # The fused kernels flush every columnar list unconditionally; a
        # stage that never fired must not appear (name-set parity with
        # the scalar path, which only records stages that happen).
        accumulator = StageAccumulator()
        accumulator.record_many("read.crypto", [])
        accumulator.record_many("read.crypto", iter(()))
        assert accumulator.stage_names() == []

    def test_reset_drops_everything(self):
        accumulator = fill(StageAccumulator(), [("write", 1.0)])
        accumulator.reset()
        assert accumulator.stage_names() == []

    def test_histograms_accessor_sorted(self):
        accumulator = fill(StageAccumulator(), [("b", 1.0), ("a", 2.0)])
        assert list(accumulator.histograms()) == ["a", "b"]


class TestNullObject:
    def test_null_is_disabled_and_inert(self):
        assert NULL_STAGES.enabled is False
        NULL_STAGES.record("write", 1.0)
        NULL_STAGES.record_many("write", [1.0, 2.0])
        assert isinstance(NULL_STAGES, NullStageAccumulator)

    def test_real_accumulator_is_enabled(self):
        assert StageAccumulator().enabled is True


class TestSerialisation:
    def test_round_trip_is_lossless(self):
        accumulator = fill(
            StageAccumulator(),
            [("write.hash", 3.5), ("write.hash", 900.0), ("read.nvm", 1e6)],
        )
        payload = accumulator.to_dict()
        assert payload["schema"] == STAGES_SCHEMA_VERSION
        clone = StageAccumulator.from_dict(payload)
        assert clone.to_dict() == payload

    def test_from_dict_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            StageAccumulator.from_dict({"schema": 99, "bounds": [], "stages": {}})

    def test_merge_rejects_bounds_mismatch(self):
        left = StageAccumulator()
        right = StageAccumulator(bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="bounds"):
            left.merge(right)

    def test_merge_accepts_dict_shard(self):
        left = fill(StageAccumulator(), [("write", 5.0)])
        right = fill(StageAccumulator(), [("write", 7.0), ("read", 1.0)])
        left.merge(right.to_dict())
        assert left.counts() == {"read": 1, "write": 2}
        assert left.totals()["write"] == 12.0

    @settings(max_examples=50, deadline=None)
    @given(shards=st.lists(samples, min_size=1, max_size=5))
    def test_merge_of_shards_is_lossless(self, shards):
        # The parallel-run contract: per-worker accumulators merged in
        # the parent equal one accumulator that saw every sample.
        merged = StageAccumulator()
        for shard_samples in shards:
            merged.merge(fill(StageAccumulator(), shard_samples))
        single = fill(
            StageAccumulator(), [pair for shard in shards for pair in shard]
        )
        assert merged.counts() == single.counts()
        assert merged.stage_names() == single.stage_names()
        for stage in single.stage_names():
            assert merged.totals()[stage] == pytest.approx(single.totals()[stage])
            assert merged.histogram(stage).counts == single.histogram(stage).counts
            assert merged.histogram(stage).min_value == single.histogram(stage).min_value
            assert merged.histogram(stage).max_value == single.histogram(stage).max_value

    @settings(max_examples=50, deadline=None)
    @given(a=samples, b=samples, c=samples)
    def test_merge_is_associative(self, a, b, c):
        # Bucket counts, sample counts and extrema are exactly
        # associative; float totals only up to rounding.
        left = fill(StageAccumulator(), a)
        left.merge(fill(StageAccumulator(), b))
        left.merge(fill(StageAccumulator(), c))
        bc = fill(StageAccumulator(), b)
        bc.merge(fill(StageAccumulator(), c))
        right = fill(StageAccumulator(), a)
        right.merge(bc)
        assert left.stage_names() == right.stage_names()
        assert left.counts() == right.counts()
        for stage in left.stage_names():
            assert left.histogram(stage).counts == right.histogram(stage).counts
            assert left.histogram(stage).min_value == right.histogram(stage).min_value
            assert left.histogram(stage).max_value == right.histogram(stage).max_value
            assert left.totals()[stage] == pytest.approx(right.totals()[stage])

    def test_default_bounds_match_latency_buckets(self):
        assert StageAccumulator().bounds == LATENCY_BOUNDS_NS
