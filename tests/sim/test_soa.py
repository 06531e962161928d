"""The struct-of-arrays trace encoding.

:class:`TraceArrays` must be a *lossless* re-encoding of a micro-op
trace — the batch tier's correctness argument starts from
``from_ops(ops).to_ops() == ops`` — and ``ordered_unique``, the batch
kernel's prewarm set, must keep first-occurrence order.  The
Hypothesis strategy deliberately exercises every ``None``-sentinel
field, empty source tuples and branch-only fields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
