"""Tests for the ``python -m repro`` artefact CLI."""

import pytest

from repro.__main__ import ARTEFACTS, main


class TestCli:
    def test_no_args_lists_artefacts(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "table2" in out

    def test_unknown_artefact_fails(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown artefact" in capsys.readouterr().err

    def test_table2_renders(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Z-PIM" in out
        assert "bit-parallel" in out

    def test_multiple_artefacts(self, capsys):
        assert main(["table1", "table3"]) == 0
        out = capsys.readouterr().out
        assert "PC3_tr" in out
        assert "Analog PIM" in out

    @pytest.mark.parametrize("name", [n for n in ARTEFACTS if n != "fig4"])
    def test_every_fast_artefact_renders(self, name, capsys):
        assert main([name]) == 0
        assert capsys.readouterr().out.strip()


class TestBarChart:
    def test_scaling_and_labels(self):
        from repro.analysis.reporting import bar_chart

        chart = bar_chart([("aa", 2.0), ("b", 1.0)], width=10)
        lines = chart.splitlines()
        assert lines[0].startswith("aa | ##########")
        assert lines[1].startswith("b  | #####")

    def test_empty(self):
        from repro.analysis.reporting import bar_chart

        assert bar_chart([]) == "(empty chart)"

    def test_zero_values(self):
        from repro.analysis.reporting import bar_chart

        chart = bar_chart([("x", 0.0)])
        assert "x" in chart


class TestServeBench:
    def test_human_readable_report(self, capsys):
        assert main(
            ["serve-bench", "--duration", "0.15", "--clients", "2", "--backend", "exact"]
        ) == 0
        out = capsys.readouterr().out
        assert "serve-bench: lenet on exact_float32" in out
        assert "p50" in out and "samples/s" in out

    def test_json_report(self, capsys):
        import json

        assert main(
            ["serve-bench", "--duration", "0.15", "--clients", "2", "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model"] == "lenet"
        assert report["backend"] == "approx_bfloat16_PC3_tr"
        assert report["load"]["requests"] > 0

    def test_unknown_model_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["serve-bench", "--model", "alexnet"])


class TestKernelFlag:
    def test_unknown_kernel_structured_error(self, capsys):
        import json

        assert main(["serve-bench", "--kernel", "bogus", "--json"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["kernel"] == "bogus"
        assert "float_table" in err["registered_kernels"]
        assert "unknown GEMM kernel" in err["error"]

    def test_unknown_kernel_plain_error(self, capsys):
        assert main(["fleet-bench", "--kernel", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown GEMM kernel" in err
        assert "float_table" in err
