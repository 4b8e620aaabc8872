"""Verifier sweep harness tests (fast SF-10 cells only)."""

from repro.bench.verify import (
    VERIFY_OPTIMIZERS,
    VerifyRow,
    format_verify,
    run_verify,
    verify_cell,
    verify_ok,
)


class TestVerifySweep:
    def test_covers_every_registered_strategy(self):
        from repro.optimizers import OPTIMIZERS

        # Every registered strategy plus the transfer-prelude variant.
        assert VERIFY_OPTIMIZERS == tuple(sorted(OPTIMIZERS)) + (
            "dynamic+transfer",
        )

    def test_transfer_variant_cell_runs_the_prelude(self):
        row = verify_cell("Q8", 10, "dynamic+transfer")
        assert row.clean
        assert row.optimizer == "dynamic+transfer"
        assert row.queries_verified == 1
        # The prelude's reduce jobs push the gate count past plain dynamic's.
        plain = verify_cell("Q8", 10, "dynamic")
        assert row.jobs_verified > plain.jobs_verified

    def test_dynamic_cell_is_clean_and_accounted(self):
        row = verify_cell("Q50", 10, "dynamic")
        assert row.clean
        assert row.jobs_verified > 0
        assert row.plans_verified > 0
        assert row.queries_verified == 1

    def test_single_query_sweep(self):
        rows = run_verify(
            scale_factors=(10,),
            queries=("Q8",),
            optimizers=("cost_based", "from_order"),
        )
        assert [row.optimizer for row in rows] == ["cost_based", "from_order"]
        assert verify_ok(rows)
        report = format_verify(rows)
        assert "Q8 @ SF 10" in report
        assert "all runs verified clean (0 diagnostics)" in report

    def test_format_flags_failures(self):
        rows = [
            VerifyRow(
                query="Q9",
                scale_factor=10,
                optimizer="dynamic",
                jobs_verified=3,
                diagnostics=("P002",),
            )
        ]
        assert not verify_ok(rows)
        report = format_verify(rows)
        assert "FAILED" in report and "P002" in report
