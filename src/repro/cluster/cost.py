"""Analytic cost model: translates operator work into simulated seconds.

The paper measures wall-clock execution time on a 10-node cluster; we charge
each unit of work (tuples scanned, bytes shuffled, bytes materialized, index
lookups, sketch updates, job launches) against calibrated constants and report
*simulated seconds*. Partitioned work runs in parallel, so wall time for a
partitioned stage is its total work divided by the partition count; broadcast
reception and per-partition builds are charged at full size because every
node performs them.

All constants are per *simulated* tuple/byte: the workload generators produce
one self-consistent scaled-down universe (see DESIGN.md section 2), and the
constants are calibrated so the simulated clock lands in the same ranges as
the paper's figures (tens of seconds at SF 100, thousands at SF 1000).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.config import ClusterConfig
from repro.common.errors import ReproError


@dataclass(frozen=True)
class CostParameters:
    """Calibrated unit costs, in simulated seconds per unit of work."""

    #: CPU time to pass one (modeled) tuple through one operator.
    cpu_tuple: float = 1.0e-6
    #: Extra CPU to evaluate one predicate / UDF on a tuple.
    cpu_predicate: float = 2.5e-7
    #: Disk read/write time per byte (per partition, sequential; ~60MB/s
    #: effective per core including deserialization).
    disk_byte: float = 1.7e-8
    #: Network transfer time per byte (per partition link; ~10MB/s effective
    #: including serialization, the shared-nothing bottleneck).
    network_byte: float = 1.0e-7
    #: One secondary-index lookup against the in-memory component of an LSM
    #: index (~10us) — INL wins when lookups ≪ inner-scan tuples.
    index_lookup: float = 1.0e-5
    #: Sketch-update time per (tuple, tracked attribute) pair.
    stats_value: float = 2.0e-6
    #: Fixed cost of compiling + launching one Hyracks job, including the
    #: blocking re-optimization round trip through the planner.
    job_startup: float = 1.0


class CostModel:
    """Accumulates simulated time for engine activity on a given cluster.

    ``partitions`` (when given) narrows the *compute* view of the cluster to
    a partition slice: the space-shared scheduler assigns each concurrent
    cluster job a disjoint subset of partitions, so partitioned work divides
    by the slice width rather than the full cluster, and the per-job join
    memory budget shrinks proportionally (spill pressure rises as slices
    shrink). Data placement is unaffected — storage stays partitioned over
    the whole cluster; only the degree of parallelism charged to this job's
    clock changes.
    """

    def __init__(
        self,
        cluster: ClusterConfig,
        params: CostParameters | None = None,
        partitions: int | None = None,
    ) -> None:
        self.cluster = cluster
        self.params = params or CostParameters()
        if partitions is not None and partitions < 1:
            raise ReproError("a partition slice needs at least one partition")
        self._partitions = partitions

    @property
    def partitions(self) -> int:
        """Degree of parallelism this view charges against (slice or full)."""
        if self._partitions is not None:
            return self._partitions
        return self.cluster.partitions

    def with_partitions(self, partitions: int) -> CostModel:
        """A view of this model restricted to a ``partitions``-wide slice.

        Returns ``self`` unchanged for a full-width slice: a job running
        alone (every job of a one-slot schedule) is charged by the cluster's
        own model, the exact same object and float arithmetic.
        """
        if partitions >= self.cluster.partitions and self._partitions is None:
            return self
        return CostModel(
            self.cluster,
            self.params,
            partitions=min(max(1, partitions), self.cluster.partitions),
        )

    # Each method returns the *wall-clock* seconds the activity contributes.

    def scan(self, rows: float, row_width: int) -> float:
        """Full partitioned scan of a stored dataset."""
        per_partition_rows = rows / self.partitions
        return per_partition_rows * (
            self.params.cpu_tuple + row_width * self.params.disk_byte
        )

    def predicate_eval(self, rows: float, predicate_count: int = 1) -> float:
        return (rows / self.partitions) * self.params.cpu_predicate * max(
            1, predicate_count
        )

    def hash_exchange(self, rows: float, row_width: int) -> float:
        """Re-partition rows by hash: every row crosses the network once,
        links operate in parallel."""
        per_partition_bytes = rows * row_width / self.partitions
        return per_partition_bytes * self.params.network_byte + (
            rows / self.partitions
        ) * self.params.cpu_tuple

    def broadcast_exchange(self, rows: float, row_width: int) -> float:
        """Replicate rows to every node: each node receives the full input,
        so wall time is the *full* byte volume over one link."""
        return rows * row_width * self.params.network_byte + rows * self.params.cpu_tuple

    def hash_build(self, rows: float) -> float:
        """Build side of a partitioned hash join (parallel across partitions)."""
        return (rows / self.partitions) * self.params.cpu_tuple

    @property
    def join_memory_bytes(self) -> float:
        """Cluster-wide in-memory budget for one hash join's build side.

        Each partition may hold as much build data as one broadcast build
        (the same budget the broadcast rule checks), so the partitioned
        build capacity is that budget times the partition count.
        """
        return self.cluster.broadcast_threshold_bytes * self.partitions

    def spill(self, build_bytes: float, probe_bytes: float) -> float:
        """Grace-hash-join overflow cost (Section 3: "the rest (if any) in
        overflow partitions on disk").

        When the build side exceeds the in-memory budget, the overflowing
        fraction of *both* inputs is written to disk and read back once.
        This is what makes hash joins between two unpruned fact tables —
        the signature of the worst-order baseline — disproportionately
        expensive, exactly as in the paper's Figure 7.
        """
        capacity = self.join_memory_bytes
        if build_bytes <= capacity or build_bytes <= 0:
            return 0.0
        spilled_fraction = 1.0 - capacity / build_bytes
        spilled_bytes = (build_bytes + probe_bytes) * spilled_fraction
        return 2.0 * spilled_bytes / self.partitions * self.params.disk_byte

    def broadcast_build(self, rows: float) -> float:
        """Each partition builds a hash table over the *entire* broadcast
        input — in parallel, so wall time is one full build."""
        return rows * self.params.cpu_tuple

    def probe(self, rows: float) -> float:
        return (rows / self.partitions) * self.params.cpu_tuple

    def index_lookups(self, lookups: float) -> float:
        """INL probes; every partition performs lookups for all broadcast
        rows it received, in parallel across partitions."""
        return lookups * self.params.index_lookup

    def materialize(self, rows: float, row_width: int) -> float:
        """Sink: write intermediate data to per-partition temp storage."""
        per_partition_bytes = rows * row_width / self.partitions
        return per_partition_bytes * self.params.disk_byte + (
            rows / self.partitions
        ) * self.params.cpu_tuple

    def read_materialized(self, rows: float, row_width: int) -> float:
        """Reader: scan back a previously materialized intermediate."""
        return self.materialize(rows, row_width)

    def bloom_build(self, rows: float, filters: int = 1) -> float:
        """Insert ``rows`` keys into ``filters`` Bloom filters, partitioned.

        One filter insertion per (row, filter) pair at hash-table-build CPU
        cost — predicate transfer is charged like the hash work it is, never
        treated as free (the Jahangiri et al. robust-hybrid-hash analysis).
        """
        return (rows / self.partitions) * self.params.cpu_tuple * max(1, filters)

    def bloom_transfer(self, filter_bytes: float) -> float:
        """Ship Bloom filters to a probe job: broadcast-style, every node
        receives the full filter bytes over one link."""
        return filter_bytes * self.params.network_byte

    def bloom_probe(self, rows: float, filters: int = 1) -> float:
        """Probe ``filters`` membership filters per row, in parallel across
        partitions — one predicate-evaluation-weight test per (row, filter)."""
        return (rows / self.partitions) * self.params.cpu_predicate * max(1, filters)

    def statistics(self, rows: float, tracked_fields: int) -> float:
        """Online sketch maintenance, overlapped across partitions."""
        return (rows / self.partitions) * tracked_fields * self.params.stats_value

    def result_output(self, rows: float, row_width: int) -> float:
        """DistributeResult: funnel final rows back to the coordinator."""
        return rows * row_width * self.params.network_byte * 0.1

    def job_startup(self) -> float:
        return self.params.job_startup
