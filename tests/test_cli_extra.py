"""Tests for the newer CLI subcommands: select, compare, figure --svg/--save,
store build/info."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestSelectCommand:
    def test_mrmr(self, capsys):
        code = main(
            ["select", "mrmr", "--dataset", "cdc", "--scale", "0.01", "-k", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mrmr selected 3 features" in out
        assert "cells scanned" in out

    def test_relevance(self, capsys):
        code = main(
            ["select", "relevance", "--dataset", "cdc", "--scale", "0.01",
             "-k", "2", "--engine", "exact"]
        )
        assert code == 0
        assert "engine: exact" in capsys.readouterr().out

    def test_explicit_label(self, capsys):
        code = main(
            ["select", "relevance", "--dataset", "cdc", "--scale", "0.01",
             "-k", "1", "--label", "mi_base_01"]
        )
        assert code == 0
        assert "mi_base_01" in capsys.readouterr().out

    @pytest.mark.parametrize("method", ["magic", "cmim"])
    def test_bad_method_rejected(self, method):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["select", method])


class TestFigureArtifacts:
    def test_svg_and_save(self, tmp_path, capsys):
        svg_path = tmp_path / "fig.svg"
        json_path = tmp_path / "run.json"
        code = main(
            ["figure", "fig9", "--datasets", "cdc", "--scale", "0.01",
             "--svg", str(svg_path), "--save", str(json_path)]
        )
        assert code == 0
        assert svg_path.read_text().startswith("<svg")
        payload = json.loads(json_path.read_text())
        assert payload["figure"] == "fig9"
        out = capsys.readouterr().out
        assert f"wrote {svg_path}" in out

    def test_svg_metric_choice(self, tmp_path):
        svg_path = tmp_path / "acc.svg"
        code = main(
            ["figure", "fig9", "--datasets", "cdc", "--scale", "0.01",
             "--svg", str(svg_path), "--svg-metric", "accuracy"]
        )
        assert code == 0
        assert "accuracy" in svg_path.read_text()


class TestCompareCommand:
    @pytest.fixture()
    def saved_run(self, tmp_path):
        path = tmp_path / "ref.json"
        main(
            ["figure", "fig9", "--datasets", "cdc", "--scale", "0.01",
             "--save", str(path)]
        )
        return path

    def test_identical_runs_pass(self, saved_run, capsys):
        code = main(["compare", str(saved_run), str(saved_run)])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, saved_run, tmp_path, capsys):
        payload = json.loads(saved_run.read_text())
        for point in payload["points"]:
            point["cells_scanned"] *= 10
        worse = tmp_path / "worse.json"
        worse.write_text(json.dumps(payload))
        code = main(["compare", str(saved_run), str(worse)])
        assert code == 1
        assert "regression" in capsys.readouterr().out

    def test_missing_file_is_handled(self, tmp_path, capsys):
        code = main(["compare", str(tmp_path / "ghost.json"), str(tmp_path / "g2.json")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestFigureLatexFlag:
    def test_latex_artifact(self, tmp_path):
        tex_path = tmp_path / "fig.tex"
        code = main(
            ["figure", "fig9", "--datasets", "cdc", "--scale", "0.01",
             "--latex", str(tex_path)]
        )
        assert code == 0
        tex = tex_path.read_text()
        assert "\\begin{tabular}" in tex
        assert "swope" in tex


class TestDescribeCommand:
    def test_describe(self, capsys):
        code = main(["describe", "--dataset", "cdc", "--scale", "0.01", "--top", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "top_twin" in out
        assert "entropy" in out

    def test_describe_sort_by_name(self, capsys):
        code = main(
            ["describe", "--dataset", "cdc", "--scale", "0.01",
             "--top", "3", "--sort", "name"]
        )
        assert code == 0
        assert "ent_anchor_00" in capsys.readouterr().out


class TestStoreCommand:
    #: The cdc 0.01 fingerprint, the same for int16 and int8 column files.
    CDC_001_FINGERPRINT = (
        "e3dbdcf5d8f1dc83ebd30518a661710c2f4c360a1ab452cfceaaf66e7f73fe31"
    )

    def test_build_and_info(self, tmp_path, capsys):
        out_dir = str(tmp_path / "cdc_store")
        code = main(
            ["store", "build", "--dataset", "cdc", "--scale", "0.01",
             "--out", out_dir]
        )
        assert code == 0
        built = capsys.readouterr().out
        assert f"fingerprint: {self.CDC_001_FINGERPRINT}" in built
        assert main(["store", "info", out_dir, "--verify"]) == 0
        info = capsys.readouterr().out
        assert "  mi_base_00           u=64 dtype=int8\n" in info
        assert "  top_twin_a_00        u=1000 dtype=int16\n" in info
        assert "fingerprint verified" in info
