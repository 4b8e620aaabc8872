"""Benchmark harness regenerating every table and figure of the paper."""

from repro.bench.comparison import figure7, format_cells
from repro.bench.sweep import Sweep
from repro.bench.table1 import format_rows, improvement_rows

__all__ = ["Sweep", "figure7", "format_cells", "format_rows", "improvement_rows"]
