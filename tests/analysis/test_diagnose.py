"""The plan-quality diagnosis engine: routing, ranking, rendering, CLI.

Routing tests feed hand-built estimate records through the hypothesis table
(one expected code per error locus x direction); integration tests pin the
explain_analyze section and the ``python -m repro.analysis.diagnose`` CLI
(both the --trace file mode and a live bad-miss run on the adversarial
workload generator).
"""

import json
import math

import pytest

from repro.analysis.diagnose import (
    DEFAULT_THRESHOLD,
    Hypothesis,
    diagnose_records,
    diagnose_trace,
    format_diagnosis,
    main,
)
from repro.engine.metrics import JobMetrics
from repro.obs.report import render_explain_analyze
from repro.obs.trace import EstimateRecord, Tracer


def record(phase, operator, estimated, actual) -> EstimateRecord:
    return EstimateRecord(
        phase=phase, operator=operator, estimated_rows=estimated, actual_rows=actual
    )


def only_code(records) -> str:
    hypotheses = diagnose_records(records)
    assert len(hypotheses) == 1
    return hypotheses[0].code


class TestRouting:
    def test_scan_underestimate_routes_to_correlated_filters(self):
        rec = record("pushdown:fact", "fact", 100.0, 1000.0)
        assert only_code([rec]) == "correlated-filter-underestimate"

    def test_scan_overestimate_routes_to_stale_base_statistics(self):
        rec = record("pushdown:fact", "fact", 1000.0, 100.0)
        assert only_code([rec]) == "stale-base-statistics"

    def test_join_underestimate_routes_to_skew(self):
        rec = record("join-2", "HashJoin(fact, da)", 500.0, 50_000.0)
        assert only_code([rec]) == "skewed-join-key"

    def test_join_overestimate_routes_to_stale_sketch(self):
        rec = record("join-2", "HashJoin(fact, da)", 50_000.0, 500.0)
        assert only_code([rec]) == "stale-sketch-overestimate"

    def test_flat_transfer_reduction_is_unhelpful(self):
        rec = record("transfer:reduce:fact", "τ(fact)", 1000.0, 950.0)
        assert only_code([rec]) == "unhelpful-transfer-filter"

    def test_transfer_underestimate_routes_to_correlated_filters(self):
        rec = record("transfer:reduce:fact", "τ(fact)", 100.0, 1000.0)
        assert only_code([rec]) == "correlated-filter-underestimate"

    def test_transfer_phase_record_routes_like_a_saved_one(self):
        # a transfer phase span's record names the phase; a trace file
        # written before estimates lived on spans names ``τ(alias)``
        for operator in ("transfer:fact", "τ(fact)"):
            rec = record("transfer:fact", operator, 1000.0, 950.0)
            assert only_code([rec]) == "unhelpful-transfer-filter"

    def test_effective_transfer_reduction_is_not_a_symptom(self):
        # A big *over*estimate at a transfer point means the filters worked
        # better than local predicates predicted — a win, never flagged.
        rec = record("transfer:reduce:fact", "τ(fact)", 1000.0, 10.0)
        assert diagnose_records([rec]) == []

    def test_zero_actual_routes_to_vanishing_intermediate(self):
        rec = record("join-3", "HashJoin(i1, dc)", 500.0, 0.0)
        assert only_code([rec]) == "vanishing-intermediate"

    def test_zero_estimate_routes_to_zero_support(self):
        rec = record("join-3", "HashJoin(i1, dc)", 0.0, 500.0)
        assert only_code([rec]) == "zero-support-estimate"

    def test_accurate_records_produce_nothing(self):
        records = [
            record("pushdown:fact", "fact", 1000.0, 1000.0),
            record("join-2", "HashJoin", 480.0, 500.0),
        ]
        assert diagnose_records(records) == []

    def test_threshold_is_respected(self):
        rec = record("join-2", "HashJoin", 100.0, 250.0)
        assert diagnose_records([rec], threshold=3.0) == []
        assert diagnose_records([rec], threshold=DEFAULT_THRESHOLD) != []


class TestRanking:
    def test_worst_miss_ranks_first_and_infinite_tops_all(self):
        records = [
            record("join-1", "HashJoin(a)", 100.0, 1000.0),  # 10x
            record("join-2", "HashJoin(b)", 100.0, 0.0),  # inf
            record("join-3", "HashJoin(c)", 100.0, 300.0),  # 3x
        ]
        hypotheses = diagnose_records(records)
        assert [h.operator for h in hypotheses] == [
            "HashJoin(b)",
            "HashJoin(a)",
            "HashJoin(c)",
        ]
        assert math.isinf(hypotheses[0].q_error)

    def test_unhelpful_transfer_filters_rank_last(self):
        records = [
            record("transfer:reduce:fact", "τ(fact)", 1000.0, 990.0),
            record("join-2", "HashJoin", 100.0, 1000.0),
        ]
        hypotheses = diagnose_records(records)
        assert hypotheses[-1].code == "unhelpful-transfer-filter"

    def test_ties_break_deterministically(self):
        records = [
            record("join-2", "B", 100.0, 1000.0),
            record("join-1", "A", 100.0, 1000.0),
        ]
        first = diagnose_records(records)
        second = diagnose_records(list(reversed(records)))
        assert [(h.phase, h.operator) for h in first] == [
            ("join-1", "A"),
            ("join-2", "B"),
        ] == [(h.phase, h.operator) for h in second]


class TestRendering:
    def test_render_mentions_code_q_and_direction(self):
        (h,) = diagnose_records([record("join-2", "HashJoin", 100.0, 1000.0)])
        line = h.render()
        assert "skewed-join-key" in line
        assert "10.0x" in line and "under" in line
        assert "estimated 100 rows, measured 1000" in line

    def test_format_numbers_the_ranks(self):
        hypotheses = diagnose_records(
            [
                record("join-1", "A", 100.0, 1000.0),
                record("join-2", "B", 100.0, 500.0),
            ]
        )
        text = format_diagnosis(hypotheses)
        assert text.splitlines()[0].lstrip().startswith("1. ")
        assert text.splitlines()[1].lstrip().startswith("2. ")

    def test_empty_diagnosis_renders_placeholder(self):
        assert "no plan-quality symptoms" in format_diagnosis([])

    def test_to_dict_is_json_ready(self):
        (h,) = diagnose_records([record("join-2", "HashJoin", 100.0, 1000.0)])
        payload = json.dumps(h.to_dict())
        assert "skewed-join-key" in payload


def traced(label, operator, estimated, actual):
    """A finished trace whose one phase runs one join span carrying an
    estimate of ``estimated`` rows against ``actual`` measured ones."""
    tracer = Tracer(label)
    with tracer.phase("join-2"):
        token = tracer.begin_operator(operator, JobMetrics())
        tracer.end_operator(token, JobMetrics(), int(actual), actual, estimated)
    return tracer.finish()


class TestExplainAnalyzeWiring:
    def bad_trace(self):
        return traced("bad miss", "HashJoin(fact, da)", 500.0, 50_000.0)

    def test_explain_analyze_shows_ranked_hypotheses(self):
        text = render_explain_analyze(self.bad_trace())
        assert "plan-quality diagnosis (ranked hypotheses):" in text
        assert "skewed-join-key" in text

    def test_diagnose_trace_matches_records(self):
        trace = self.bad_trace()
        assert diagnose_trace(trace) == diagnose_records(list(trace.estimates))

    def test_clean_trace_has_no_diagnosis_section(self):
        text = render_explain_analyze(traced("clean", "HashJoin", 500.0, 500.0))
        assert "plan-quality diagnosis" not in text


class TestCLI:
    def test_trace_file_mode(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(
            json.dumps(
                {
                    "estimates": [
                        {
                            "phase": "join-2",
                            "operator": "HashJoin(fact, da)",
                            "estimated_rows": 500.0,
                            "actual_rows": 50_000.0,
                        }
                    ]
                }
            )
        )
        assert main(["--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "skewed-join-key" in out
        assert "1 hypothesis(es)" in out

    def test_trace_file_mode_clean(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"estimates": []}))
        assert main(["--trace", str(trace)]) == 0
        assert "no plan-quality symptoms" in capsys.readouterr().out

    def test_live_bad_miss_run_emits_a_hypothesis(self, capsys):
        # The adversarial J2 workload under a static strategy is the
        # acceptance scenario: skewed keys the static model cannot see.
        code = main(
            [
                "--query",
                "J2",
                "--sf",
                "10",
                "--optimizer",
                "cost_based",
                "--skew",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan-quality diagnosis for J2 @ SF 10 under cost_based" in out
        ranked = [line for line in out.splitlines() if line.lstrip().startswith("1. ")]
        assert ranked, out

    def test_an_unknown_variant_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--query", "Q8", "--optimizer", "dynamic+nothing"])
        assert exit_.value.code == 2
        assert "dynamic+transfer" in capsys.readouterr().err

    def test_a_knob_on_a_tpc_query_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--query", "Q8", "--skew", "0.9"])
        assert exit_.value.code == 2
        assert "only 'job'" in capsys.readouterr().err


@pytest.mark.parametrize("direction", ["under", "over"])
def test_hypothesis_is_frozen(direction):
    h = Hypothesis(
        code="skewed-join-key",
        phase="join-1",
        operator="HashJoin",
        q_error=10.0,
        direction=direction,
        summary="s",
        evidence="e",
    )
    with pytest.raises(AttributeError):
        h.code = "other"
