"""Transfer-experiment tests: both pre-filtering regimes must exist."""

from repro.bench.transfer import (
    SMOKE_WORKLOADS,
    TRANSFER_VARIANTS,
    VARIANTS,
    format_transfer,
    run_transfer,
    transfer_ok,
)
from repro.optimizers import available_strategies


class TestTransferSweep:
    def test_smoke_shows_both_regimes(self):
        """The PR's acceptance criterion, pinned: at least one workload where
        a transfer variant beats plain dynamic on simulated seconds, and at
        least one where dynamic beats both transfer variants."""
        cells = run_transfer(smoke=True)
        assert len(cells) == len(SMOKE_WORKLOADS) * len(VARIANTS)
        assert transfer_ok(cells)

    def test_variants_registered(self):
        registered = set(available_strategies())
        for name, (strategy, _) in VARIANTS.items():
            assert strategy in registered, name
        assert set(TRANSFER_VARIANTS) <= set(VARIANTS)
        assert "dynamic" in VARIANTS

    def test_single_regime_not_sufficient(self):
        """A sweep with only a winning (or only a losing) cell must fail the
        acceptance check — the experiment's point is mapping both regimes."""
        win_only = run_transfer(workloads=(("Q8", 100, 0.0, 0.0),))
        lose_only = run_transfer(workloads=(("Q8", 10, 0.0, 0.0),))
        assert not transfer_ok(win_only)
        assert not transfer_ok(lose_only)
        assert transfer_ok(win_only + lose_only)

    def test_format(self):
        cells = run_transfer(workloads=(("Q8", 10, 0.0, 0.0),))
        text = format_transfer(cells)
        assert "Q8 @ SF 10" in text
        assert "predicate_transfer" in text and "dynamic+transfer" in text
        assert "vs dynamic" in text

    def test_identical_rows_across_variants(self):
        """Bloom filters are false-positive-only, so every variant returns
        the same result rows on the same workload."""
        cells = run_transfer(workloads=(("Q8", 100, 0.0, 0.0),))
        assert len({cell.rows for cell in cells}) == 1
        assert cells[0].rows > 0
