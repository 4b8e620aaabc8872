"""Property test: chunk size is invisible.

DESIGN.md §10: the chunk size bounds a kernel's working set and nothing else
— for any universe the run at the default chunk size and the runs at chunk
size 1 (every row its own chunk), 7 (chunks that straddle partition
boundaries unevenly) and 10**6 (one chunk per partition) must produce
exactly the same rows, ``JobMetrics`` and plan — and the rows of the
brute-force oracle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import DataType, Schema
from repro.engine.vector import DEFAULT_CHUNK_SIZE
from repro.lang.builder import QueryBuilder
from repro.session import Session
from repro.spec import PlannerSpec
from repro.testing import evaluate_reference, rows_equal_unordered

from tests.conftest import small_cluster
from tests.engine.equivalence import canonical_rows, metrics_fingerprint

CHUNK_SIZES = (1, 7, 10**6)

FACT = Schema.of(
    ("f_id", DataType.INT),
    ("f_k", DataType.INT),
    ("f_v", DataType.INT),
    primary_key=("f_id",),
)
DIM = Schema.of(
    ("d_id", DataType.INT),
    ("d_attr", DataType.INT),
    primary_key=("d_id",),
)

# Small random universes: values overlap enough for joins to match, and
# nullable fact values exercise the None guards in the filter kernels.
fact_rows = st.lists(
    st.tuples(
        st.integers(0, 12),
        st.one_of(st.none(), st.integers(0, 100)),
    ),
    min_size=0,
    max_size=120,
)
dim_rows = st.lists(st.integers(0, 9), min_size=1, max_size=16)


def _run(session: Session, query, chunk_size: int) -> tuple:
    session.executor.chunk_size = chunk_size
    try:
        result = session.execute(query, PlannerSpec.of("from_order"))
        assert rows_equal_unordered(result.rows, evaluate_reference(query, session))
        return (
            canonical_rows(result.rows),
            metrics_fingerprint(result.metrics),
            result.plan_description,
        )
    finally:
        session.reset_intermediates()


class TestChunkSizeInvariance:
    @given(fact=fact_rows, dim=dim_rows, threshold=st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_rows_and_metrics_identical_across_chunk_sizes(
        self, fact, dim, threshold
    ):
        session = Session(small_cluster())
        session.load(
            "f",
            FACT,
            [
                {"f_id": i, "f_k": k, "f_v": v}
                for i, (k, v) in enumerate(fact)
            ],
        )
        session.load(
            "d",
            DIM,
            [{"d_id": i, "d_attr": x} for i, x in enumerate(dim)],
        )
        query = (
            QueryBuilder()
            .select("f.f_v", "d.d_attr")
            .from_table("f")
            .from_table("d")
            .where_compare("f.f_v", ">=", threshold)
            .join("f.f_k", "d.d_id")
            .build()
        )
        baseline = _run(session, query, DEFAULT_CHUNK_SIZE)
        for chunk_size in CHUNK_SIZES:
            assert _run(session, query, chunk_size) == baseline
