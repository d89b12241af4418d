"""Tests for the ``repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure_choices(self):
        args = build_parser().parse_args(["figure", "fig1"])
        assert args.figure_id == "fig1"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "topk-entropy"])
        assert args.dataset == "cdc"
        assert args.k == 4


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig12" in out
        assert "pus" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "33,714,152" in out

    def test_figure_small(self, capsys):
        code = main(
            ["figure", "fig9", "--datasets", "cdc", "--scale", "0.01", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fig9" in out
        assert "swope" in out

    def test_query_topk_entropy(self, capsys):
        code = main(
            ["query", "topk-entropy", "--dataset", "cdc", "--scale", "0.01", "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "answer (3 attributes)" in out
        assert "stats:" in out

    def test_query_filter_entropy(self, capsys):
        code = main(
            ["query", "filter-entropy", "--dataset", "cdc", "--scale", "0.01",
             "--eta", "8.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top_twin" in out

    def test_query_topk_mi_default_target(self, capsys):
        code = main(
            ["query", "topk-mi", "--dataset", "cdc", "--scale", "0.01", "-k", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mi_m_00" in out

    def test_query_filter_mi(self, capsys):
        code = main(
            ["query", "filter-mi", "--dataset", "cdc", "--scale", "0.01",
             "--eta", "1.0"]
        )
        assert code == 0

    def test_error_exit_code(self, capsys):
        code = main(
            ["query", "topk-mi", "--dataset", "cdc", "--scale", "0.01",
             "--target", "ghost"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "kind", ["topk-entropy", "filter-entropy", "topk-mi", "filter-mi"]
    )
    def test_zero_epsilon_is_rejected_not_defaulted(self, kind, capsys):
        code = main(
            ["query", kind, "--dataset", "cdc", "--scale", "0.01",
             "--epsilon", "0"]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err


class TestQueryBatch:
    def _plan_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "queries": [
                        {"name": "a", "kind": "topk-entropy", "k": 2},
                        {"name": "b", "kind": "filter-entropy", "threshold": 2.0},
                        {
                            "name": "c", "kind": "topk-mi",
                            "target": "mi_base_00", "k": 2,
                        },
                    ]
                }
            )
        )
        return str(path)

    def test_batch_mode_runs_plan(self, tmp_path, capsys):
        code = main(
            ["query", "--queries", self._plan_file(tmp_path),
             "--dataset", "cdc", "--scale", "0.01", "--emit-metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "plan: 3 queries" in out
        for name in ("[a]", "[b]", "[c]"):
            assert name in out
        assert "shared-scan accounting:" in out
        assert "plans_total=1" in out
        assert "plan_queries_total=3" in out

    def test_kind_and_queries_are_mutually_exclusive(self, tmp_path, capsys):
        code = main(
            ["query", "topk-entropy", "--queries", self._plan_file(tmp_path),
             "--dataset", "cdc", "--scale", "0.01"]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_query_without_kind_or_plan_errors(self, capsys):
        code = main(["query", "--dataset", "cdc", "--scale", "0.01"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_plan_file_errors(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(
            ["query", "--queries", str(path), "--dataset", "cdc",
             "--scale", "0.01"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_batch_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "plan_trace.jsonl"
        code = main(
            ["query", "--queries", self._plan_file(tmp_path),
             "--dataset", "cdc", "--scale", "0.01",
             "--trace-out", str(trace)]
        )
        assert code == 0
        lines = trace.read_text().splitlines()
        kinds = [json.loads(line)["event"] for line in lines]
        assert kinds[0] == "header"
        assert kinds[1] == "plan_start"
        assert kinds[-1] == "plan_end"
        assert kinds.count("query_retired") == 3
