"""Equi-height histograms built from Greenwald-Khanna quantiles.

Section 4 of the paper: "we extract quantiles which represent the right
border of a bucket in an equi-height histogram. The buckets help us identify
estimates for different ranges which are very useful in the case that filters
exist in the base datasets."

The histogram answers range- and equality-selectivity questions with linear
interpolation inside buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import StatisticsError
from repro.sketches.gk import GKQuantileSketch


@dataclass(frozen=True)
class Bucket:
    """One equi-height bucket: values in ``(lower, upper]`` hold ``count`` rows."""

    lower: float
    upper: float
    count: float


class EquiHeightHistogram:
    """Equi-height histogram over a numeric attribute.

    Built from a GK sketch's quantile borders (the paper's pipeline).
    Selectivity estimates are returned as fractions of the total row count
    in [0, 1].
    """

    def __init__(self, buckets: list[Bucket], minimum: float, total: int) -> None:
        if not buckets:
            raise StatisticsError("histogram needs at least one bucket")
        self.buckets = buckets
        self.minimum = minimum
        self.total = total

    @classmethod
    def from_sketch(cls, sketch: GKQuantileSketch, bucket_count: int = 32) -> EquiHeightHistogram:
        """Build from quantile borders; each bucket holds ~n/bucket_count rows."""
        if len(sketch) == 0:
            raise StatisticsError("cannot build a histogram from an empty sketch")
        borders = sketch.quantiles(bucket_count)
        # The 1.0-quantile may land an epsilon short of the true maximum;
        # pin the last border so the histogram covers the full domain.
        borders[-1] = sketch.maximum
        total = len(sketch)
        per_bucket = total / bucket_count
        buckets = []
        lower = sketch.minimum
        for border in borders:
            buckets.append(Bucket(lower, border, per_bucket))
            lower = border
        return cls(buckets, sketch.minimum, total)

    # -- selectivity estimation -------------------------------------------------

    def _fraction_leq(self, value: float) -> float:
        """Estimated fraction of rows with attribute <= value."""
        if value < self.minimum:
            return 0.0
        running = 0.0
        for bucket in self.buckets:
            if value >= bucket.upper:
                running += bucket.count
                continue
            # Linear interpolation inside the bucket.
            span = bucket.upper - bucket.lower
            if span <= 0:
                running += bucket.count
            else:
                running += bucket.count * (value - bucket.lower) / span
            break
        return min(1.0, running / self.total)

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Fraction of rows with ``low <= attr <= high`` (None = unbounded)."""
        hi_frac = self._fraction_leq(high) if high is not None else 1.0
        if low is None:
            lo_frac = 0.0
        else:
            # Subtract strictly-below-low mass; approximate with leq(low - eps)
            # via interpolation at low itself minus the point mass estimate.
            lo_frac = self._fraction_leq(low) - self.selectivity_equals(low)
            lo_frac = max(0.0, lo_frac)
        return max(0.0, min(1.0, hi_frac - lo_frac))

    def selectivity_equals(self, value: float) -> float:
        """Fraction of rows with ``attr == value`` (uniform-in-bucket model).

        Heavy values span several buckets in an equi-height histogram
        (zero-width buckets pinned to the value), so the mass of *every*
        bucket containing the value accumulates: zero-width buckets
        contribute fully, wider buckets contribute one distinct value's
        share of their span.
        """
        mass = 0.0
        for bucket in self.buckets:
            if not bucket.lower <= value <= bucket.upper:
                continue
            span = bucket.upper - bucket.lower
            if span <= 0:
                mass += bucket.count
            else:
                mass += bucket.count * min(1.0, 1.0 / max(span, 1.0))
        return min(1.0, mass / self.total)

    def selectivity_comparison(self, op: str, value: float) -> float:
        """Selectivity of ``attr <op> value`` for op in =, !=, <, <=, >, >=."""
        if op == "=":
            return self.selectivity_equals(value)
        if op == "!=":
            return max(0.0, 1.0 - self.selectivity_equals(value))
        if op == "<=":
            return self._fraction_leq(value)
        if op == "<":
            return max(0.0, self._fraction_leq(value) - self.selectivity_equals(value))
        if op == ">":
            return max(0.0, 1.0 - self._fraction_leq(value))
        if op == ">=":
            return max(
                0.0, 1.0 - self._fraction_leq(value) + self.selectivity_equals(value)
            )
        raise StatisticsError(f"unsupported comparison operator {op!r}")
