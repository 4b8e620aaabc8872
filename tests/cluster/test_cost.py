"""Cost model tests: monotonicity, crossovers, spill behavior."""

import pytest

from repro.cluster.config import ClusterConfig, default_cluster
from repro.cluster.cost import CostModel, CostParameters


@pytest.fixture
def cost():
    return CostModel(default_cluster())


class TestBasicCharges:
    def test_scan_monotone_in_rows(self, cost):
        assert cost.scan(2000, 40) > cost.scan(1000, 40)

    def test_scan_monotone_in_width(self, cost):
        assert cost.scan(1000, 80) > cost.scan(1000, 40)

    def test_partitioned_work_scales_down_with_partitions(self):
        small = CostModel(ClusterConfig(nodes=1, cores_per_node=1))
        big = CostModel(ClusterConfig(nodes=10, cores_per_node=4))
        assert big.scan(10_000, 40) < small.scan(10_000, 40)

    def test_broadcast_build_not_parallel(self, cost):
        # Every partition builds the whole table: full-size charge.
        assert cost.broadcast_build(1000) == pytest.approx(
            cost.hash_build(1000) * cost.cluster.partitions
        )

    def test_zero_rows_zero_cost(self, cost):
        assert cost.scan(0, 40) == 0.0
        assert cost.hash_exchange(0, 40) == 0.0
        assert cost.materialize(0, 40) == 0.0

    def test_read_equals_write_for_materialized(self, cost):
        assert cost.read_materialized(500, 40) == cost.materialize(500, 40)

    def test_statistics_scales_with_fields(self, cost):
        assert cost.statistics(1000, 4) == pytest.approx(cost.statistics(1000, 2) * 2)

    def test_job_startup_constant(self, cost):
        assert cost.job_startup() == cost.params.job_startup


class TestAlgorithmCrossovers:
    def test_broadcast_beats_hash_for_tiny_build(self, cost):
        """Broadcasting a dimension table avoids re-shuffling the fact side."""
        dim_rows, fact_rows, width = 2_000, 10_000_000, 40
        broadcast = cost.broadcast_exchange(dim_rows, width) + cost.broadcast_build(
            dim_rows
        )
        hash_path = (
            cost.hash_exchange(dim_rows, width)
            + cost.hash_exchange(fact_rows, width)
            + cost.hash_build(dim_rows)
        )
        assert broadcast < hash_path

    def test_hash_beats_broadcast_for_balanced_sides(self, cost):
        rows, width = 5_000_000, 40
        broadcast = cost.broadcast_exchange(rows, width) + cost.broadcast_build(rows)
        hash_path = (
            cost.hash_exchange(rows, width) * 2 + cost.hash_build(rows)
        )
        assert hash_path < broadcast

    def test_inl_beats_scan_for_few_lookups(self, cost):
        lookups = 2_000
        inner_rows = 100_000_000
        assert cost.index_lookups(lookups) < cost.scan(inner_rows, 40)

    def test_inl_loses_for_many_lookups(self, cost):
        lookups = 50_000_000
        inner_rows = 10_000_000
        assert cost.index_lookups(lookups) > cost.scan(inner_rows, 40)


class TestSpill:
    def test_no_spill_under_capacity(self, cost):
        assert cost.spill(cost.join_memory_bytes * 0.99, 1e9) == 0.0

    def test_spill_grows_with_build(self, cost):
        cap = cost.join_memory_bytes
        assert cost.spill(cap * 4, 1e9) > cost.spill(cap * 2, 1e9) > 0.0

    def test_spill_grows_with_probe(self, cost):
        cap = cost.join_memory_bytes
        assert cost.spill(cap * 2, 2e9) > cost.spill(cap * 2, 1e9)

    def test_spill_zero_for_empty_build(self, cost):
        assert cost.spill(0, 1e9) == 0.0

    def test_join_memory_is_budget_times_partitions(self, cost):
        expected = cost.cluster.broadcast_threshold_bytes * cost.cluster.partitions
        assert cost.join_memory_bytes == expected


class TestParameters:
    def test_custom_parameters_flow_through(self):
        cost = CostModel(default_cluster(), CostParameters(cpu_tuple=1.0))
        assert cost.probe(40) == pytest.approx(1.0)

    def test_defaults_are_frozen(self):
        with pytest.raises(AttributeError):
            CostParameters().cpu_tuple = 1.0


class TestPartitionSlices:
    """with_partitions: the space-shared scheduler's per-job cost view."""

    def test_full_width_slice_is_the_same_object(self, cost):
        assert cost.with_partitions(cost.cluster.partitions) is cost
        assert cost.with_partitions(cost.cluster.partitions * 2) is cost

    def test_slice_reports_its_width(self, cost):
        assert cost.partitions == cost.cluster.partitions
        assert cost.with_partitions(10).partitions == 10

    def test_partitioned_work_stretches_with_narrower_slice(self, cost):
        half = cost.with_partitions(cost.cluster.partitions // 2)
        assert half.scan(10_000, 40) == pytest.approx(2 * cost.scan(10_000, 40))
        assert half.probe(10_000) == pytest.approx(2 * cost.probe(10_000))
        assert half.hash_exchange(10_000, 40) == pytest.approx(
            2 * cost.hash_exchange(10_000, 40)
        )

    def test_non_scalable_charges_unchanged(self, cost):
        half = cost.with_partitions(cost.cluster.partitions // 2)
        assert half.broadcast_exchange(1000, 40) == cost.broadcast_exchange(1000, 40)
        assert half.broadcast_build(1000) == cost.broadcast_build(1000)
        assert half.index_lookups(1000) == cost.index_lookups(1000)
        assert half.job_startup() == cost.job_startup()

    def test_join_memory_shrinks_with_slice(self, cost):
        half = cost.with_partitions(cost.cluster.partitions // 2)
        assert half.join_memory_bytes == pytest.approx(cost.join_memory_bytes / 2)

    def test_slice_raises_spill_pressure(self, cost):
        # A build that fits the full cluster's budget spills on a slice.
        build = cost.join_memory_bytes * 0.75
        assert cost.spill(build, build) == 0.0
        narrow = cost.with_partitions(cost.cluster.partitions // 2)
        assert narrow.spill(build, build) > 0.0

    def test_slice_clamped_to_cluster(self, cost):
        wide = cost.with_partitions(5).with_partitions(10_000)
        assert wide.partitions == cost.cluster.partitions

    def test_invalid_slice_rejected(self, cost):
        from repro.common.errors import ReproError

        with pytest.raises(ReproError):
            CostModel(default_cluster(), partitions=0)
        assert cost.with_partitions(0).partitions == 1  # clamped, not rejected
