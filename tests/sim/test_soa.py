"""The struct-of-arrays trace encoding.

:class:`TraceArrays` must be a *lossless* re-encoding of a micro-op
trace — the batch tier's correctness argument starts from
``from_ops(ops).to_ops() == ops`` — and its derived columns (ordered
code-address dedup, producer rename) must agree between the numpy fast
paths and their scalar reference twins, with fast paths in either
position.  The Hypothesis strategy deliberately exercises every
``None``-sentinel field, empty source tuples and branch-only fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.sim.isa import MicroOp, OpKind
from repro.sim.soa import (
    KIND_ALU,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    TraceArrays,
    ordered_unique,
)

REG = st.integers(min_value=0, max_value=63)
ADDR = st.integers(min_value=0, max_value=1 << 40)


@st.composite
def micro_op_fields(draw):
    """Field dict for one valid MicroOp (op_id assigned positionally)."""
    kind = draw(st.sampled_from(list(OpKind)))
    sources = tuple(draw(st.lists(REG, min_size=0, max_size=2)))
    dest = draw(st.one_of(st.none(), REG))
    address = draw(st.one_of(st.none(), ADDR))
    code_address = draw(st.one_of(st.none(), ADDR))
    mispredicted = False
    taken = None
    branch_target = None
    if kind in (OpKind.LOAD, OpKind.STORE):
        address = draw(ADDR)
    if kind is OpKind.LOAD:
        dest = draw(REG)
    if kind is OpKind.BRANCH:
        mispredicted = draw(st.booleans())
        taken = draw(st.one_of(st.none(), st.booleans()))
        branch_target = draw(st.one_of(st.none(), ADDR))
    return dict(
        kind=kind,
        sources=sources,
        dest=dest,
        address=address,
        mispredicted=mispredicted,
        code_address=code_address,
        taken=taken,
        branch_target=branch_target,
    )


TRACES = st.lists(micro_op_fields(), min_size=0, max_size=50).map(
    lambda fields: [
        MicroOp(op_id=i, **kwargs) for i, kwargs in enumerate(fields)
    ]
)


class TestRoundTrip:
    @given(ops=TRACES)
    @settings(max_examples=200, deadline=None)
    def test_from_ops_to_ops_is_identity(self, ops):
        assert TraceArrays.from_ops(ops).to_ops() == ops

    def test_none_sentinels_round_trip(self):
        ops = [
            MicroOp(op_id=0, kind=OpKind.ALU),
            MicroOp(
                op_id=1,
                kind=OpKind.BRANCH,
                mispredicted=True,
                taken=False,
                branch_target=4096,
                code_address=0,
            ),
            MicroOp(op_id=2, kind=OpKind.LOAD, dest=0, address=0),
        ]
        arrays = TraceArrays.from_ops(ops)
        assert arrays.to_ops() == ops
        # ``taken=False`` and ``address=0`` survive next to the -1
        # sentinel (the encoding never conflates falsy with missing).
        assert arrays.taken.tolist() == [-1, 0, -1]
        assert arrays.addresses.tolist() == [-1, -1, 0]
        assert arrays.code_addresses.tolist() == [-1, 0, -1]

    def test_empty_trace(self):
        arrays = TraceArrays.from_ops([])
        assert len(arrays) == 0
        assert arrays.source_width == 1
        assert arrays.to_ops() == []

    def test_kind_codes_are_stable(self):
        # sim/_batchcore.c hardcodes these codes; catch any reorder.
        assert (KIND_ALU, KIND_LOAD, KIND_STORE, KIND_BRANCH) == (
            0,
            1,
            2,
            3,
        )
        ops = [
            MicroOp(op_id=0, kind=OpKind.ALU),
            MicroOp(op_id=1, kind=OpKind.LOAD, dest=1, address=64),
            MicroOp(op_id=2, kind=OpKind.STORE, address=128),
            MicroOp(op_id=3, kind=OpKind.BRANCH),
        ]
        arrays = TraceArrays.from_ops(ops)
        assert arrays.kinds.tolist() == [0, 1, 2, 3]
        assert arrays.is_memory.tolist() == [0, 1, 1, 0]

    def test_arrays_are_sealed(self):
        arrays = TraceArrays.from_ops(
            [MicroOp(op_id=0, kind=OpKind.ALU, dest=1)]
        )
        with pytest.raises(ValueError):
            arrays.kinds[0] = 2
        with pytest.raises(ValueError):
            arrays.sources[0, 0] = 5

    def test_mismatched_column_shape_rejected(self):
        good = TraceArrays.from_ops(
            [MicroOp(op_id=0, kind=OpKind.ALU), MicroOp(op_id=1, kind=OpKind.ALU)]
        )
        with pytest.raises(ValueError):
            TraceArrays(
                kinds=good.kinds,
                sources=good.sources,
                dests=good.dests[:1],
                addresses=good.addresses,
                mispredicted=good.mispredicted,
                code_addresses=good.code_addresses,
                taken=good.taken,
                branch_targets=good.branch_targets,
            )


    def test_op_ids_must_be_positions(self):
        ops = [MicroOp(op_id=i, kind=OpKind.ALU) for i in (0, 2, 4)]
        with pytest.raises(ValueError, match="position 1 has op_id 2"):
            TraceArrays.from_ops(ops)


class TestOrderedUnique:
    def test_first_occurrence_order_and_sentinel_skip(self):
        column = np.array([192, 64, -1, 64, 0, 192, -1, 0], dtype=np.int64)
        assert ordered_unique(column).tolist() == [192, 64, 0]

    @given(
        values=st.lists(
            st.integers(min_value=-1, max_value=12), max_size=60
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_scalar_dedup(self, values):
        column = np.array(values, dtype=np.int64)
        seen, expected = set(), []
        for value in values:
            if value >= 0 and value not in seen:
                seen.add(value)
                expected.append(value)
        assert ordered_unique(column).tolist() == expected


class TestFastReferenceTwins:
    @pytest.fixture(autouse=True)
    def restore_fast_paths(self):
        yield
        perf.set_fast_paths(True)

    @given(ops=TRACES)
    @settings(max_examples=100, deadline=None)
    def test_unique_code_addresses_twins_agree(self, ops):
        arrays = TraceArrays.from_ops(ops)
        with perf.fast_paths(True):
            fast = arrays.unique_code_addresses()
        with perf.fast_paths(False):
            reference = arrays.unique_code_addresses()
        assert fast.tolist() == reference.tolist()

    @given(ops=TRACES)
    @settings(max_examples=150, deadline=None)
    def test_rename_producers_twins_agree(self, ops):
        arrays = TraceArrays.from_ops(ops)
        with perf.fast_paths(True):
            fast = arrays.rename_producers(2)
        with perf.fast_paths(False):
            reference = arrays.rename_producers(2)
        assert fast.tolist() == reference.tolist()
        assert fast.shape == (len(ops), 2)

    def test_rename_producers_known_chain(self):
        ops = [
            MicroOp(op_id=0, kind=OpKind.ALU, dest=3),
            MicroOp(op_id=1, kind=OpKind.ALU, sources=(3,), dest=3),
            MicroOp(op_id=2, kind=OpKind.ALU, sources=(3, 7), dest=7),
            # reg 7's producer (op 2) is found, reg 9 has none: the
            # single hit packs left.
            MicroOp(op_id=3, kind=OpKind.ALU, sources=(9, 7)),
            MicroOp(op_id=4, kind=OpKind.ALU, sources=(3, 3)),
        ]
        producers = TraceArrays.from_ops(ops).rename_producers(2)
        assert producers.tolist() == [
            [-1, -1],
            [0, -1],
            [1, -1],
            [2, -1],
            [1, 1],
        ]

    def test_rename_producers_overflow_raises(self):
        ops = [
            MicroOp(op_id=0, kind=OpKind.ALU, dest=1),
            MicroOp(op_id=1, kind=OpKind.ALU, dest=2),
            MicroOp(op_id=2, kind=OpKind.ALU, sources=(1, 2)),
        ]
        arrays = TraceArrays.from_ops(ops)
        for enabled in (True, False):
            with perf.fast_paths(enabled):
                with pytest.raises(ValueError):
                    arrays.rename_producers(1)
