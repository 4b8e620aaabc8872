"""Benchmark-harness unit tests (fast: SF 10 only)."""

import pytest

from repro.bench.comparison import figure7, figure8, format_cells
from repro.bench.overhead import figure6, format_reports, overhead_reports
from repro.bench.plans import format_matrix
from repro.bench.runner import COMPARISON_OPTIMIZERS, QUERIES, workbench_for_query
from repro.bench.sweep import Key, Sweep, execute
from repro.bench.table1 import PAPER_TABLE1, improvement_rows, format_rows

SWEEP = Sweep()


class TestRunner:
    def test_workbench_cached(self):
        assert workbench_for_query("Q8", 10) is workbench_for_query("Q9", 10)

    def test_workbench_for_query(self):
        assert workbench_for_query("Q17", 10).workload == "tpcds"
        assert workbench_for_query("Q8", 10).workload == "tpch"

    def test_query_cached_and_validated(self):
        bench = workbench_for_query("Q9", 10)
        assert bench.query("Q9") is bench.query("Q9")
        with pytest.raises(KeyError):
            bench.query("Q17")

    def test_run_query_cleans_up(self):
        bench = workbench_for_query("Q50", 10)
        execute(Key("Q50", 10, "dynamic"))
        assert not any(n.startswith("__") for n in bench.session.datasets.names())

    def test_run_query_inl_creates_indexes(self):
        execute(Key("Q50", 10, "dynamic", inl_enabled=True))
        bench = workbench_for_query("Q50", 10)
        assert bench.session.datasets.get("store_returns").has_index(
            "sr_returned_date_sk"
        )

    def test_queries_registry_covers_paper(self):
        assert sorted(QUERIES) == ["Q17", "Q50", "Q8", "Q9"]


class TestComparison:
    def test_row_covers_all_optimizers(self):
        cells = SWEEP.run(figure7((10,), ("Q50",)))
        assert [c.key.variant for c in cells] == list(COMPARISON_OPTIMIZERS)
        assert all(c.seconds > 0 for c in cells)

    def test_inl_excludes_worst_order(self):
        keys = figure8((10,), ("Q50",))
        assert all(key.inl_enabled for key in keys)
        assert "worst_order" not in [key.variant for key in keys]

    def test_format(self):
        text = format_cells(SWEEP.run(figure7((10,), ("Q50",))))
        assert "Q50 @ SF 10" in text and "1.00x dynamic" in text


class TestOverhead:
    def test_report_fields(self):
        (report,) = overhead_reports(SWEEP.run(figure6((10,), ("Q50",))))
        assert (report.query, report.scale_factor) == ("Q50", 10)
        assert report.full_seconds > 0
        assert 0 <= report.reoptimization_fraction < 1
        assert 0 <= report.online_stats_fraction < 1

    def test_format(self):
        text = format_reports(overhead_reports(SWEEP.run(figure6((10,), ("Q50",)))))
        assert "re-opt=" in text and "pushdown=" in text


class TestTable1:
    def test_rows_from_given_cells(self):
        cells = SWEEP.run(figure7((100,), ("Q50",)))
        (row,) = improvement_rows(cells, scale_factors=(100,))
        assert set(row.ratios) == {
            "cost_based",
            "best_order",
            "worst_order",
            "pilot_run",
            "ingres",
        }
        assert row.ratios["worst_order"] > 1.0

    def test_paper_reference_table_complete(self):
        for scale_factor, row in PAPER_TABLE1.items():
            assert set(row) == {
                "cost_based",
                "pilot_run",
                "ingres",
                "best_order",
                "worst_order",
            }

    def test_format_includes_paper_row(self):
        cells = SWEEP.run(figure7((100,), ("Q50",)))
        text = format_rows(improvement_rows(cells, scale_factors=(100,)))
        assert "paper" in text


class TestPlans:
    def test_matrix_and_format(self):
        cells = SWEEP.run(figure7((10,), ("Q50",)) + figure8((10,), ("Q50",)))
        assert len(cells) == 2 * len(COMPARISON_OPTIMIZERS) - 1
        text = format_matrix(cells)
        assert "-- Q50 @ SF 10\n" in text and "-- Q50 @ SF 10 (INL enabled)" in text
