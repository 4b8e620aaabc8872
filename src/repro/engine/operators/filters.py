"""Semi-join filter operator: apply transferred Bloom filters to a dataflow.

The predicate-transfer scheduler (``repro.core.predicate_transfer``) builds a
Bloom filter per join column of each FROM entry and ships it to the join
partners. ``SemiJoinFilterOp`` is the receiving side: it drops every row
whose join-key value is definitely absent from the partner's filter.

Semantics mirror the join the filter stands in for:

- a **null** filter-column value never matches (the joins'
  ``join_key_column`` contract), so null-keyed rows are dropped;
- Bloom filters produce false **positives** only, so the surviving superset
  always contains every row the real join would keep — the reduction is
  sound for the inner equi-joins this engine executes.

The operator makes one :func:`~repro.engine.vector.semi_join_filter` call
over its dataflow's batch: each filter is probed once, over the keys that
survived the filters before it, so a key several partitions hold is
digested once.

Cost charges are computed from the *input* data's modeled cardinality: the
filters ship once per job (network, at the filters' modeled wire size), then
every input row probes every filter (CPU). The filtering itself is the probe
— there is no separate selection charge.
"""

from __future__ import annotations

from repro.engine import vector
from repro.engine.bloom import BloomFilter
from repro.engine.data import ColumnarData
from repro.engine.operators.base import ExecState, PhysicalOperator


class SemiJoinFilterOp(PhysicalOperator):
    """Keep only rows whose filter-column values pass every Bloom filter."""

    def __init__(
        self,
        child: PhysicalOperator,
        filters: tuple[tuple[str, BloomFilter], ...],
    ) -> None:
        self.children = (child,)
        #: ordered (qualified probe column, partner's filter) pairs
        self.filters = tuple(filters)

    def execute(self, state: ExecState) -> ColumnarData:
        data = self.children[0].run(state)
        filtered, _ = vector.semi_join_filter(
            data.batch, data.row_count, self.filters
        )
        total_bytes = sum(bloom.charge_bytes for _, bloom in self.filters)
        state.charge("network", state.cost.bloom_transfer(total_bytes))
        state.charge(
            "compute", state.cost.bloom_probe(data.modeled_rows, len(self.filters))
        )
        return ColumnarData(filtered, data.columns, data.partitioned_on, data.scale)

    def label(self) -> str:
        return "SemiJoinFilter " + ", ".join(
            f"{column} IN bloom({bloom.bits_set})" for column, bloom in self.filters
        )
