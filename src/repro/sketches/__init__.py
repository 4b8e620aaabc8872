"""Statistical sketches: GK quantiles, HyperLogLog, histograms."""

from repro.sketches.gk import GKQuantileSketch
from repro.sketches.histogram import Bucket, EquiHeightHistogram
from repro.sketches.hyperloglog import HyperLogLog

__all__ = [
    "Bucket",
    "EquiHeightHistogram",
    "GKQuantileSketch",
    "HyperLogLog",
]
